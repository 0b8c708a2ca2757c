import itertools

import pytest

from mergegame.actions import (
    ALL_EGO_DECISIONS,
    FORBIDDEN_TRANSITIONS,
    DecisionSequence,
    EgoDecision,
    GapChoice,
    LateralDecision,
    enumerate_ego_sequences,
    lateral_decision_set,
)

G0, G1, G2 = GapChoice.GAP_0, GapChoice.GAP_1, GapChoice.GAP_2
LK, LC, LP = LateralDecision.LANE_KEEP, LateralDecision.LEFT_CHANGE, LateralDecision.LEFT_PROBE


def brute_sequences(root: EgoDecision, max_decision_changes: int, horizon: int):
    """Independent enumeration oracle: filter the full product of decisions."""
    out = []
    for cand in itertools.product(ALL_EGO_DECISIONS, repeat=horizon):
        chain = (root,) + cand
        changes = sum(chain[k] != chain[k - 1] for k in range(1, len(chain)))
        if changes > max_decision_changes:
            continue
        if any((chain[k - 1], chain[k]) in FORBIDDEN_TRANSITIONS
               for k in range(1, len(chain))):
            continue
        out.append(DecisionSequence(cand))
    return out


def test_lateral_sets():
    assert lateral_decision_set(G0) == {LK}
    assert lateral_decision_set(G1) == {LK, LP, LC}
    assert lateral_decision_set(G2) == {LK, LP, LC}


def test_invalid_decision_rejected():
    with pytest.raises(ValueError):
        EgoDecision(G0, LC)


def test_universe_size():
    assert len(ALL_EGO_DECISIONS) == 7


def test_zero_change_budget_keeps_only_root():
    seqs = enumerate_ego_sequences(EgoDecision(G1, LP), 0, horizon=5)
    assert seqs == (DecisionSequence((EgoDecision(G1, LP),) * 5),)


def test_single_step_horizon_counts_every_decision():
    assert len(enumerate_ego_sequences(EgoDecision(G1, LK), 1, horizon=1)) == 7


def test_forbidden_transition_never_appears():
    root = EgoDecision(G0, LK)
    assert (EgoDecision(G1, LC), EgoDecision(G2, LC)) in FORBIDDEN_TRANSITIONS
    for seq in enumerate_ego_sequences(root, 4, horizon=5):
        chain = (root,) + tuple(seq)
        for a, b in zip(chain, chain[1:]):
            assert (a, b) not in FORBIDDEN_TRANSITIONS


def test_enumeration_is_deterministic():
    a = enumerate_ego_sequences(EgoDecision(G0, LK), 2, horizon=5)
    b = enumerate_ego_sequences(EgoDecision(G0, LK), 2, horizon=5)
    assert a == b


def test_enumeration_is_cached_and_immutable():
    seqs = enumerate_ego_sequences(EgoDecision(G0, LK), 2, 5)
    assert isinstance(seqs, tuple) and len(seqs) == 371
    # an equal, separately built root hits the same cache entry
    assert enumerate_ego_sequences(EgoDecision(G0, LK), 2, 5) is seqs
    assert enumerate_ego_sequences(EgoDecision(G1, LK), 2, 5) is not seqs


def test_first_step_reachable_and_budget_respected():
    root = EgoDecision(G2, LP)
    for seq in enumerate_ego_sequences(root, 2, horizon=5):
        chain = (root,) + tuple(seq)
        changes = sum(chain[k] != chain[k - 1] for k in range(1, len(chain)))
        assert changes <= 2
        assert (root, seq[0]) not in FORBIDDEN_TRANSITIONS


def test_matches_brute_force_oracle():
    for root, budget in [(EgoDecision(G0, LK), 2), (EgoDecision(G1, LC), 3),
                         (EgoDecision(G2, LK), 1)]:
        assert list(enumerate_ego_sequences(root, budget, 4)) == brute_sequences(root, budget, 4)


def test_count_monotone_in_change_budget():
    h = 5
    counts = [len(enumerate_ego_sequences(EgoDecision(G0, LK), m, h)) for m in range(h + 1)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))



@pytest.mark.parametrize("budget, horizon, message", [
    (2, 0, "horizon must be >= 1"), (-1, 5, "max_decision_changes must be >= 0"),
    # the walk never reaches depth 2.5, so these recursed without end
    (2, 2.5, "horizon must be an integer, got 2.5"), (2, True, "horizon must be an integer"),
    (1.5, 5, "max_decision_changes must be an integer, got 1.5")])
def test_enumeration_rejects_bad_arguments(budget, horizon, message):
    with pytest.raises(ValueError, match=message):
        enumerate_ego_sequences(EgoDecision(G0, LK), budget, horizon)
