import pytest

from mergegame.actions import (
    ALL_EGO_DECISIONS,
    DecisionSequence,
    EgoDecision,
    GapChoice,
    LateralDecision,
    enumerate_ego_sequences,
)

from reference import UNIVERSE, brute_sequences, forbidden

G0, G1, G2 = GapChoice.GAP_0, GapChoice.GAP_1, GapChoice.GAP_2
LK, LC, LP = LateralDecision.LANE_KEEP, LateralDecision.LEFT_CHANGE, LateralDecision.LEFT_PROBE


@pytest.mark.parametrize("gap, lateral", [pytest.param(g, lat, id=f"{g.name}-{lat.name}")
                                          for g in GapChoice for lat in LateralDecision])
def test_lateral_sets(gap, lateral):
    if (gap, lateral) in {(G0, LC), (G0, LP)}:
        with pytest.raises(ValueError, match=f"{lateral.name} not available for GAP_0"):
            EgoDecision(gap, lateral)
    else:
        decision = EgoDecision(gap, lateral)
        assert (decision.gap, decision.lateral) == (gap, lateral)


def test_invalid_decision_rejected():
    for gap, lateral in [(G0, LC), (3, LK), (G1, 3)]:
        with pytest.raises(ValueError):
            EgoDecision(gap, lateral)


def test_universe_size():
    assert len(ALL_EGO_DECISIONS) == 7
    assert [(d.gap, d.lateral) for d in ALL_EGO_DECISIONS] == UNIVERSE


def test_zero_change_budget_keeps_only_root():
    seqs = enumerate_ego_sequences(EgoDecision(G1, LP), 0, horizon=5)
    assert seqs == (DecisionSequence((EgoDecision(G1, LP),) * 5),)


def test_single_step_horizon_counts_every_decision():
    assert len(enumerate_ego_sequences(EgoDecision(G1, LK), 1, horizon=1)) == 7


def test_forbidden_transition_never_appears():
    root = EgoDecision(G1, LC)
    seqs = enumerate_ego_sequences(root, 4, horizon=5)
    # the other gap's lane change is reached through a step that is not one
    assert DecisionSequence((EgoDecision(G1, LK),) + (EgoDecision(G2, LC),) * 4) in seqs
    for seq in seqs:
        chain = (root,) + seq
        assert not any(forbidden(a, b) for a, b in zip(chain, chain[1:]))
    assert not any(s[0] == EgoDecision(G2, LC) for s in seqs)


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
        chain = (root,) + seq
        changes = sum(chain[k] != chain[k - 1] for k in range(1, len(chain)))
        assert changes <= 2
        assert not forbidden(root, seq[0])


def test_matches_brute_force_oracle():
    for root in ALL_EGO_DECISIONS:
        for budget in range(5):
            assert list(enumerate_ego_sequences(root, budget, 4)) == brute_sequences(root, budget, 4)


def test_count_monotone_in_change_budget():
    h = 5
    counts = [len(enumerate_ego_sequences(EgoDecision(G0, LK), m, h)) for m in range(h + 1)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


@pytest.mark.parametrize("budget, horizon, message", [
    (2, 0, "horizon must be >= 1"), (-1, 5, "max_decision_changes must be >= 0"),
    # a scenario file can hold a non-integer
    (2, 2.5, "horizon must be an integer, got 2.5"), (2, True, "horizon must be an integer"),
    (1.5, 5, "max_decision_changes must be an integer, got 1.5"),
    # cut off at the first level too large for any roster, not after 2e8 chains
    (10, 10, "horizon 10 with max_decision_changes 10 gives 524288 or more")])
def test_enumeration_rejects_bad_arguments(budget, horizon, message):
    with pytest.raises(ValueError, match=message):
        enumerate_ego_sequences(EgoDecision(G0, LK), budget, horizon)
