"""Semantic decision vocabulary and pruned enumeration of ego decision sequences."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import IntEnum

from .bounds import check_integer

__all__ = [
    "GapChoice",
    "LateralDecision",
    "SvAction",
    "EgoDecision",
    "ROOT",
    "DecisionSequence",
    "ALL_EGO_DECISIONS",
    "FORBIDDEN_TRANSITIONS",
    "lateral_decision_set",
    "enumerate_ego_sequences",
]


class GapChoice(IntEnum):
    """Target gap. GAP_0 is the current lane (stay behind the front vehicle, no lane change)."""

    GAP_0 = 0
    GAP_1 = 1
    GAP_2 = 2


class LateralDecision(IntEnum):
    LANE_KEEP = 0
    LEFT_CHANGE = 1
    LEFT_PROBE = 2


class SvAction(IntEnum):
    """Behavior mode of the surrounding-vehicle group."""

    ASSERT = 0
    YIELD = 1


_LATERAL_SETS = {
    GapChoice.GAP_0: frozenset({LateralDecision.LANE_KEEP}),
    GapChoice.GAP_1: frozenset(LateralDecision),
    GapChoice.GAP_2: frozenset(LateralDecision),
}


def lateral_decision_set(gap: GapChoice) -> frozenset[LateralDecision]:
    """Lateral decisions available for a gap: the current-lane gap only allows lane keeping."""
    return _LATERAL_SETS[GapChoice(gap)]


@dataclass(frozen=True, order=True)
class EgoDecision:
    """One semantic step: a gap choice plus a lateral decision valid for that gap."""

    gap: GapChoice
    lateral: LateralDecision

    def __post_init__(self):
        if self.lateral not in lateral_decision_set(self.gap):
            raise ValueError(f"{self.lateral.name} not available for {self.gap.name}")

    def __str__(self):
        code = {LateralDecision.LANE_KEEP: "LK",
                LateralDecision.LEFT_CHANGE: "LC",
                LateralDecision.LEFT_PROBE: "LP"}[self.lateral]
        return f"{int(self.gap)}{code}"


# The decision an episode or a one-off plan starts from: keep the current lane
ROOT = EgoDecision(GapChoice.GAP_0, LateralDecision.LANE_KEEP)

ALL_EGO_DECISIONS: tuple[EgoDecision, ...] = tuple(
    EgoDecision(g, d) for g in GapChoice for d in sorted(lateral_decision_set(g))
)


@dataclass(frozen=True, order=True)
class DecisionSequence:
    """A length-H sequence of ego decisions."""

    steps: tuple[EgoDecision, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("DecisionSequence must contain at least one step")

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __getitem__(self, k):
        return self.steps[k]

    def __str__(self):
        return ">".join(str(s) for s in self.steps)

    @functools.cached_property
    def codes(self) -> tuple[int, ...]:
        """Each step's decision code 3 * gap + lateral, a dense index in [0, 9)."""
        return tuple(3 * int(s.gap) + int(s.lateral) for s in self.steps)

    @functools.cached_property
    def partner_gap(self) -> GapChoice | None:
        """The gap whose rear bound the sequence negotiates with: that of its
        last step targeting a lane-change gap; None if it never leaves the
        current lane. Row partner_gap, column 1 of WorldSnapshot.resolve_gaps'
        table is that vehicle's index."""
        for step in reversed(self.steps):
            if step.gap != GapChoice.GAP_0:
                return step.gap
        return None


# Adjacent pairs that switch gap while committed to a lane change, which a
# human driver would not do mid-maneuver
FORBIDDEN_TRANSITIONS: frozenset[tuple[EgoDecision, EgoDecision]] = frozenset(
    (a, b)
    for a, b in itertools.product(ALL_EGO_DECISIONS, repeat=2)
    if a.lateral == b.lateral == LateralDecision.LEFT_CHANGE and a.gap != b.gap
)


# typed: a cached answer for 2 would otherwise also answer 2.0 or True unchecked
@functools.lru_cache(maxsize=64, typed=True)
def enumerate_ego_sequences(root: EgoDecision, max_decision_changes: int,
                            horizon: int) -> tuple[DecisionSequence, ...]:
    """Enumerate all decision sequences of length `horizon` reachable from root.

    root is the decision executed in the previous planning cycle. A sequence
    is kept when every adjacent pair (including root -> first step) avoids
    FORBIDDEN_TRANSITIONS and the total number of step-to-step changes stays
    within max_decision_changes. Output order is deterministic: lexicographic
    over step index with decisions in (gap, lateral) enum order. The result
    depends only on the arguments, so it is cached; it is a tuple because
    every caller shares it.
    """
    # a depth of 2.5 is never reached, so a non-integer would recurse without end
    check_integer("enumerate_ego_sequences", horizon=horizon,
                  max_decision_changes=max_decision_changes)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if max_decision_changes < 0:
        raise ValueError("max_decision_changes must be >= 0")

    out: list[DecisionSequence] = []
    prefix: list[EgoDecision] = []

    def walk(prev: EgoDecision, changes: int):
        depth = len(prefix)
        if depth == horizon:
            out.append(DecisionSequence(tuple(prefix)))
            return
        for cand in ALL_EGO_DECISIONS:
            changed = cand != prev
            if changes + changed > max_decision_changes:
                continue
            if (prev, cand) in FORBIDDEN_TRANSITIONS:
                continue
            prefix.append(cand)
            walk(cand, changes + changed)
            prefix.pop()

    walk(root, 0)
    return tuple(out)

