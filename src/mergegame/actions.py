"""Ego decision vocabulary and the pruned enumeration of decision sequences.

Each decision period the ego picks a target gap and a lateral move. Two rules
prune the picks, each stated once:
- the current-lane gap GAP_0 allows lane keeping only (`_available`, which
  EgoDecision enforces);
- a lane change under way never switches gap (`_forbidden`, a rule on
  adjacent steps).
enumerate_ego_sequences lists every sequence of a horizon's length that keeps
both rules and a budget on the number of step-to-step changes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import IntEnum

from .bounds import MAX_STATES, check_integer

__all__ = ["GapChoice", "LateralDecision", "SvAction", "EgoDecision", "ROOT", "DecisionSequence",
           "ALL_EGO_DECISIONS", "enumerate_ego_sequences"]


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


def _available(gap: GapChoice, lateral: LateralDecision) -> bool:
    """The current-lane gap allows lane keeping only."""
    return gap != GapChoice.GAP_0 or lateral == LateralDecision.LANE_KEEP


@dataclass(frozen=True, order=True)
class EgoDecision:
    """One semantic step: a gap choice plus a lateral decision available for that gap."""

    gap: GapChoice
    lateral: LateralDecision

    def __post_init__(self):
        gap, lateral = GapChoice(self.gap), LateralDecision(self.lateral)
        if not _available(gap, lateral):
            raise ValueError(f"{lateral.name} not available for {gap.name}")

    def __str__(self):
        code = {LateralDecision.LANE_KEEP: "LK",
                LateralDecision.LEFT_CHANGE: "LC",
                LateralDecision.LEFT_PROBE: "LP"}[self.lateral]
        return f"{int(self.gap)}{code}"


# The decision an episode or a one-off plan starts from: keep the current lane
ROOT = EgoDecision(GapChoice.GAP_0, LateralDecision.LANE_KEEP)

ALL_EGO_DECISIONS: tuple[EgoDecision, ...] = tuple(
    EgoDecision(g, d) for g in GapChoice for d in LateralDecision if _available(g, d))


def _forbidden(a: EgoDecision, b: EgoDecision) -> bool:
    """Switching gap while committed to a lane change, which a human driver
    would not do mid-maneuver."""
    return a.lateral == b.lateral == LateralDecision.LEFT_CHANGE and a.gap != b.gap


class DecisionSequence(tuple):
    """A length-H sequence of ego decisions: a tuple of EgoDecision, so it
    compares, orders, indexes and iterates as one."""

    def __new__(cls, steps):
        self = super().__new__(cls, steps)
        if not self:
            raise ValueError("DecisionSequence must contain at least one step")
        return self

    def __str__(self):
        return ">".join(str(s) for s in self)

    @functools.cached_property
    def codes(self) -> tuple[int, ...]:
        """Each step's decision code 3 * gap + lateral, a dense index in [0, 9)."""
        return tuple(3 * int(s.gap) + int(s.lateral) for s in self)

    @functools.cached_property
    def partner_gap(self) -> GapChoice | None:
        """The gap whose rear bound the sequence negotiates with: that of its
        last step targeting a lane-change gap; None if it never leaves the
        current lane. Row partner_gap, column 1 of WorldSnapshot.resolve_gaps'
        table is that vehicle's index."""
        for step in reversed(self):
            if step.gap != GapChoice.GAP_0:
                return step.gap
        return None


# typed: a cached answer for 2 would otherwise also answer 2.0 or True unchecked
@functools.lru_cache(maxsize=64, typed=True)
def enumerate_ego_sequences(root: EgoDecision, max_decision_changes: int,
                            horizon: int) -> tuple[DecisionSequence, ...]:
    """Enumerate all decision sequences of length `horizon` reachable from root.

    root is the decision executed in the previous planning cycle. A sequence
    is kept when no adjacent pair (root -> first step included) is
    `_forbidden` and the number of step-to-step changes stays within
    max_decision_changes. The chains grow one step per level, each extended
    by the decisions in (gap, lateral) enum order, so the output is
    lexicographic over step index. The result depends only on the arguments,
    so it is cached; it is a tuple because every caller shares it.

    ValueError once a level reaches MAX_STATES // len(SvAction) chains: the
    levels only grow, and simulate_batch takes fewer sequences even for a
    lone ego, so the tree is cut off before it fills memory.
    """
    # both come from a scenario file, and the cache keys on their exact type
    check_integer("enumerate_ego_sequences", horizon=horizon,
                  max_decision_changes=max_decision_changes)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if max_decision_changes < 0:
        raise ValueError("max_decision_changes must be >= 0")

    # (root and the steps so far, changes so far)
    level, cap = [((root,), 0)], MAX_STATES // len(SvAction)
    for _ in range(horizon):
        level = list(itertools.islice(
            ((chain + (cand,), n) for chain, changes in level for cand in ALL_EGO_DECISIONS
             if (n := changes + (cand != chain[-1])) <= max_decision_changes
             and not _forbidden(chain[-1], cand)), cap))
        if len(level) == cap:
            raise ValueError(f"horizon {horizon} with max_decision_changes {max_decision_changes} "
                             f"gives {cap} or more sequences, more than any roster can roll "
                             f"out within {MAX_STATES} vehicle states")
    return tuple(DecisionSequence(chain[1:]) for chain, _ in level)
