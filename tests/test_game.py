from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from game_oracles import (
    brute_nash,
    brute_selection,
    brute_stackelberg,
    check_prop1_assumptions,
    monotone_instance,
    weighted,
)
from mergegame import planner
from mergegame.actions import EgoDecision, GapChoice, LateralDecision
from mergegame.costs import Belief, GameMatrix
from mergegame.game import (
    Player,
    find_pure_nash,
    select_action,
    stackelberg,
)
from mergegame.scenario import PLANNER_KINDS, default_merge_scenario


def game(sv, ev):
    return GameMatrix.from_arrays(np.array(sv, float), np.array(ev, float))


def select(g):
    """The selection policy on cells solved beforehand, as plan_cycle calls it."""
    return select_action(g, nash_cells=find_pure_nash(g), se_sv=stackelberg(g, Player.SV))


# worked examples ------------------------------------------------------------------

EX_SV = [[1.0, 2.0], [3.0, 4.0]]
EX_EV = [[5.0, 6.0], [2.0, 1.0]]


def test_unique_nash_worked_example():
    eqs = find_pure_nash(game(EX_SV, EX_EV))
    assert [e.cell() for e in eqs] == [(0, 0)]
    assert eqs[0].social_cost == pytest.approx(6.0)


def test_dominant_row_and_column():
    g = game([[1, 1, 1], [2, 3, 4]], [[5, 1, 7], [6, 2, 8]])
    assert [e.cell() for e in find_pure_nash(g)] == [(0, 1)]


def test_anti_coordination_has_no_pure_nash():
    g = game([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    assert find_pure_nash(g) == []


def test_stackelberg_ev_leader_worked_example():
    eq = stackelberg(game(EX_SV, EX_EV), Player.EV)
    assert eq.cell() == (0, 0)
    assert eq.kind == "stackelberg-ev-leader"


def test_stackelberg_single_row_degenerates():
    # two equal rows are one row: every tie goes to row 0
    g = game([[3.0, 1.0, 2.0]] * 2, [[9.0, 4.0, 7.0]] * 2)
    assert stackelberg(g, Player.SV).cell() == (0, 1)
    assert stackelberg(g, Player.EV).cell() == (0, 1)


@pytest.mark.parametrize("rows", [1, 3])
def test_game_matrix_has_one_row_per_group_action(rows):
    with pytest.raises(ValueError, match="shape"):
        game(np.zeros((rows, 2)), np.zeros((rows, 2)))


def test_selection_policy():
    # two equilibria with social costs 7 and 5: take the cheaper cell
    g = game([[1, 5], [5, 2]], [[6, 9], [9, 3]])
    eqs = find_pure_nash(g)
    assert {e.cell() for e in eqs} == {(0, 0), (1, 1)}
    sel = select(g)
    assert sel.chosen.cell() == (1, 1) and not sel.fallback_used

    g2 = game([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    sel2 = select(g2)
    assert sel2.fallback_used
    assert sel2.chosen.kind == "stackelberg-sv-leader"

    sel3 = select(game(EX_SV, EX_EV))
    assert sel3.chosen.cell() == (0, 0) and not sel3.fallback_used


def test_nash_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        cols = int(rng.integers(1, 51))
        sv = rng.uniform(0, 100, (2, cols))
        ev = rng.uniform(0, 100, (2, cols))
        got = [e.cell() for e in find_pure_nash(game(sv, ev))]
        assert got == brute_nash(sv, ev)


def test_stackelberg_matches_brute_force_oracle():
    rng = np.random.default_rng(43)
    for _ in range(1000):
        cols = int(rng.integers(1, 51))
        sv = rng.uniform(0, 100, (2, cols))
        ev = rng.uniform(0, 100, (2, cols))
        g = game(sv, ev)
        assert stackelberg(g, Player.EV).cell() == brute_stackelberg(sv, ev, "ev")
        assert stackelberg(g, Player.SV).cell() == brute_stackelberg(sv, ev, "sv")


def test_positive_scaling_leaves_solutions_unchanged():
    rng = np.random.default_rng(44)
    for _ in range(100):
        cols = int(rng.integers(1, 20))
        sv = rng.uniform(0, 100, (2, cols))
        ev = rng.uniform(0, 100, (2, cols))
        base = game(sv, ev)
        # powers of two keep the ordering exactly
        scaled_ev = game(sv, ev * 4.0)
        scaled_sv = game(sv * 0.5, ev)
        cells = [e.cell() for e in find_pure_nash(base)]
        assert [e.cell() for e in find_pure_nash(scaled_ev)] == cells
        assert [e.cell() for e in find_pure_nash(scaled_sv)] == cells
        for leader in (Player.EV, Player.SV):
            assert stackelberg(scaled_ev, leader).cell() == stackelberg(base, leader).cell()
            assert stackelberg(scaled_sv, leader).cell() == stackelberg(base, leader).cell()


def test_select_action_total_and_deterministic():
    rng = np.random.default_rng(45)
    for _ in range(200):
        cols = int(rng.integers(1, 12))
        sv = rng.uniform(0, 10, (2, cols))
        ev = rng.uniform(0, 10, (2, cols))
        g = game(sv, ev)
        s1, s2 = select(g), select(g)
        assert s1 == s2


# small cost sets tie almost everywhere; 0.0 and -0.0 compare equal
TIED_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.5])


@st.composite
def tied_games(draw):
    cols = draw(st.integers(1, 50))
    cells = st.lists(TIED_ENTRIES, min_size=2 * cols, max_size=2 * cols)
    return np.array(draw(cells)).reshape(2, cols), np.array(draw(cells)).reshape(2, cols)


# ties this dense seldom leave a game without a pure Nash cell, so one such game
# is always run: the ego's -0.0/0.0 tie in row 1 goes to the lower group cost
@settings(max_examples=500, deadline=None)
@given(tied_games())
@example((np.array([[-0.0, 0.0, 2.0], [1.0, 2.0, -0.0]]),
          np.array([[2.0, 2.0, -0.0], [-0.0, 0.0, 1.0]])))
def test_solvers_match_oracles_on_tied_games(costs):
    sv, ev = costs
    g = game(sv, ev)
    nash = find_pure_nash(g)
    assert [e.cell() for e in nash] == brute_nash(sv, ev)
    se_ev, se_sv = stackelberg(g, Player.EV), stackelberg(g, Player.SV)
    assert se_ev.cell() == brute_stackelberg(sv, ev, "ev")
    assert se_sv.cell() == brute_stackelberg(sv, ev, "sv")
    want = brute_selection(sv, ev)
    for sel in (select_action(g, nash_cells=nash, se_sv=se_sv), select_action(g)):
        assert (sel.chosen.cell(), sel.fallback_used) == want


@pytest.mark.parametrize("kind", PLANNER_KINDS)
def test_plan_cycle_solves_the_game_once(kind, monkeypatch):
    calls = []

    def counted(name):
        fn = getattr(planner, name)

        def wrapper(*args, **kwargs):
            calls.append((name, *args[1:], *sorted(kwargs)))
            return fn(*args, **kwargs)
        monkeypatch.setattr(planner, name, wrapper)

    for name in ("find_pure_nash", "stackelberg", "select_action"):
        counted(name)
    cfg = default_merge_scenario(5.0, planner=kind)
    planner.plan_cycle(cfg.initial_world(), cfg.initial_beliefs(), cfg,
                       EgoDecision(GapChoice.GAP_0, LateralDecision.LANE_KEEP))
    want = [("find_pure_nash",), ("stackelberg", Player.EV), ("stackelberg", Player.SV)]
    if kind == "nash":
        want.append(("select_action", "nash_cells", "se_sv"))
    assert Counter(calls) == Counter(want)


# proposition preconditions ------------------------------------------------------

def test_check_prop1_assumptions_examples():
    sv = np.array([[1.0, 2.0], [3.0, 4.0]])
    ev = np.array([[5.0, 6.0], [2.0, 1.0]])
    assert check_prop1_assumptions(sv, ev, Belief(0.6, 0.4))
    assert not check_prop1_assumptions(sv, ev, Belief(0.4, 0.6))
    bad_ev = np.array([[5.0, 0.5], [2.0, 1.0]])  # violated in column 1
    assert not check_prop1_assumptions(sv, bad_ev, Belief(0.6, 0.4))


def test_assert_row_equilibrium_exists_under_assumptions():
    rng = np.random.default_rng(46)
    for _ in range(1000):
        sv_raw, ev, belief = monotone_instance(rng)
        assert check_prop1_assumptions(sv_raw, ev, belief)
        eqs = find_pure_nash(GameMatrix.from_arrays(weighted(sv_raw, belief), ev))
        assert any(e.row == 0 for e in eqs)


def test_yield_row_nash_is_ev_leader_stackelberg():
    rng = np.random.default_rng(47)
    found = 0
    while found < 1000:
        sv_raw, ev, _ = monotone_instance(rng, belief_low=0.0)
        b = float(rng.uniform(0.0, 1.0))
        belief = Belief(b, 1.0 - b)
        g = GameMatrix.from_arrays(weighted(sv_raw, belief), ev)
        yield_nash = [e for e in find_pure_nash(g) if e.row == 1]
        if not yield_nash:
            continue
        found += 1
        se = stackelberg(g, Player.EV)
        for eq in yield_nash:
            assert se is not None
            assert g.ev[se.row, se.col] == g.ev[eq.row, eq.col]
