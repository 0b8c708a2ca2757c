import itertools

import pytest

from mergegame.actions import (
    ALL_EGO_DECISIONS,
    DecisionSequence,
    EgoDecision,
    GapChoice,
    LateralDecision,
    PruneRules,
    default_forbidden_transitions,
    enumerate_ego_sequences,
    lateral_decision_set,
)

G0, G1, G2 = GapChoice.GAP_0, GapChoice.GAP_1, GapChoice.GAP_2
LK, LC, LP = LateralDecision.LANE_KEEP, LateralDecision.LEFT_CHANGE, LateralDecision.LEFT_PROBE


def brute_sequences(rules: PruneRules, horizon: int):
    """Independent enumeration oracle: filter the full product of decisions."""
    out = []
    for cand in itertools.product(ALL_EGO_DECISIONS, repeat=horizon):
        chain = (rules.root,) + cand
        changes = sum(chain[k] != chain[k - 1] for k in range(1, len(chain)))
        if changes > rules.max_decision_changes:
            continue
        if any((chain[k - 1], chain[k]) in rules.forbidden_transitions
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
    rules = PruneRules(root=EgoDecision(G1, LP), max_decision_changes=0)
    seqs = enumerate_ego_sequences(rules, horizon=5)
    assert seqs == (DecisionSequence((EgoDecision(G1, LP),) * 5),)


def test_single_step_horizon_counts_every_decision():
    rules = PruneRules(root=EgoDecision(G1, LK), max_decision_changes=1,
                       forbidden_transitions=frozenset())
    assert len(enumerate_ego_sequences(rules, horizon=1)) == 7


def test_forbidden_transition_never_appears():
    rules = PruneRules(root=EgoDecision(G0, LK), max_decision_changes=4)
    banned = default_forbidden_transitions()
    assert (EgoDecision(G1, LC), EgoDecision(G2, LC)) in banned
    for seq in enumerate_ego_sequences(rules, horizon=5):
        chain = (rules.root,) + tuple(seq)
        for a, b in zip(chain, chain[1:]):
            assert (a, b) not in banned


def test_enumeration_is_deterministic():
    rules = PruneRules(root=EgoDecision(G0, LK))
    a = enumerate_ego_sequences(rules, horizon=5)
    b = enumerate_ego_sequences(rules, horizon=5)
    assert a == b


def test_enumeration_is_cached_and_immutable():
    seqs = enumerate_ego_sequences(PruneRules(root=EgoDecision(G0, LK)), 5)
    assert isinstance(seqs, tuple) and len(seqs) == 371
    # an equal, separately built rule set hits the same cache entry
    assert enumerate_ego_sequences(PruneRules(root=EgoDecision(G0, LK)), 5) is seqs
    assert enumerate_ego_sequences(PruneRules(root=EgoDecision(G1, LK)), 5) is not seqs


def test_first_step_reachable_and_budget_respected():
    rules = PruneRules(root=EgoDecision(G2, LP), max_decision_changes=2)
    for seq in enumerate_ego_sequences(rules, horizon=5):
        chain = (rules.root,) + tuple(seq)
        changes = sum(chain[k] != chain[k - 1] for k in range(1, len(chain)))
        assert changes <= 2
        assert (rules.root, seq[0]) not in rules.forbidden_transitions


def test_matches_brute_force_oracle():
    for root, budget in [(EgoDecision(G0, LK), 2), (EgoDecision(G1, LC), 3),
                         (EgoDecision(G2, LK), 1)]:
        rules = PruneRules(root=root, max_decision_changes=budget)
        assert list(enumerate_ego_sequences(rules, 4)) == brute_sequences(rules, 4)


def test_unpruned_tree_is_full_product():
    h = 4
    rules = PruneRules(root=EgoDecision(G0, LK), max_decision_changes=h,
                       forbidden_transitions=frozenset())
    assert len(enumerate_ego_sequences(rules, h)) == 7 ** h


def test_count_monotone_in_change_budget():
    h = 5
    counts = [len(enumerate_ego_sequences(
        PruneRules(root=EgoDecision(G0, LK), max_decision_changes=m), h))
        for m in range(h + 1)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))

