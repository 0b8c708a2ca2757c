"""The benchmark's own oracles against hand-made cases."""

import math

import numpy as np
import pytest

import checks
from mergegame.costs import GameMatrix
from mergegame.game import Player, find_pure_nash, select_action, stackelberg


def rect(x, y, theta=0.0, half_length=2.0, half_width=1.0):
    return (np.float64(x), np.float64(y), np.float64(theta), half_length, half_width)


def dist(a, b):
    return float(checks.distance(a, b))


def test_distance_side_by_side():
    assert dist(rect(0, 0), rect(7, 0)) == pytest.approx(3.0, abs=1e-12)
    assert dist(rect(0, 0), rect(0, 3.5)) == pytest.approx(1.5, abs=1e-12)


def test_distance_corner_to_corner():
    a = rect(0, 0, half_length=1.0, half_width=1.0)
    b = rect(5, 5, half_length=1.0, half_width=1.0)
    assert dist(a, b) == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-12)


def test_distance_rotated():
    # B stands crosswise above A: its long half (2) reaches down to y = 3, A's top is y = 1
    assert dist(rect(0, 0), rect(0, 5, theta=math.pi / 2)) == pytest.approx(2.0, abs=1e-12)
    # a diamond whose corner points at A's top edge from 1 m away
    s = 1.0 / math.sqrt(2.0)
    diamond = rect(0, 1.0 + 1.0 + math.sqrt(2.0) * s, math.pi / 4, s, s)
    assert dist(rect(0, 0), diamond) == pytest.approx(1.0, abs=1e-12)


def test_distance_and_overlap_when_touching_or_crossing():
    a, touch, cross = rect(0, 0), rect(4, 0), rect(3, 0.5, 0.3)
    ca, ct, cc = (checks.corners(*r) for r in (a, touch, cross))
    assert dist(a, touch) == 0.0 and dist(a, cross) == 0.0
    assert not checks.overlap(ca, ct, strict=True)
    assert checks.overlap(ca, ct, strict=False)
    assert checks.overlap(ca, cc, strict=True)


def test_distance_is_symmetric_and_rigid():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rect(*rng.uniform(-5, 5, 2), rng.uniform(-np.pi, np.pi), *rng.uniform(0.5, 3, 2))
        b = rect(*rng.uniform(-5, 5, 2), rng.uniform(-np.pi, np.pi), *rng.uniform(0.5, 3, 2))
        d = dist(a, b)
        assert d == pytest.approx(dist(b, a), abs=1e-12)
        shift, turn = rng.uniform(-50, 50, 2), rng.uniform(-np.pi, np.pi)
        c, s = math.cos(turn), math.sin(turn)

        def move(r):
            return rect(c * r[0] - s * r[1] + shift[0], s * r[0] + c * r[1] + shift[1],
                        r[2] + turn, r[3], r[4])
        assert dist(move(a), move(b)) == pytest.approx(d, abs=1e-9)


def test_nash_and_stackelberg_on_hand_games():
    sv = [[1, 2, 3], [2, 1, 1]]
    ev = [[3, 1, 2], [1, 2, 0]]
    assert checks.brute_nash(sv, ev) == [(1, 2)]
    assert checks.brute_stackelberg(sv, ev, "ev") == (1, 2)
    assert checks.brute_stackelberg(sv, ev, "sv") == (1, 2)
    assert checks.brute_selection(sv, ev) == ((1, 2), False)

    # matching pennies: no pure Nash, so the group-leader cell is the fallback
    sv, ev = [[0, 1], [1, 0]], [[1, 0], [0, 1]]
    assert checks.brute_nash(sv, ev) == []
    assert checks.brute_stackelberg(sv, ev, "sv") == (0, 1)
    assert checks.brute_stackelberg(sv, ev, "ev") == (0, 0)
    assert checks.brute_selection(sv, ev) == ((0, 1), True)


def test_ties():
    # two Nash cells: the lower social cost wins
    sv, ev = [[0.5, 0.0], [1.0, 1.0]], [[2.0, 2.0], [0.0, 0.0]]
    assert checks.brute_nash(sv, ev) == [(0, 0), (0, 1)]
    assert checks.brute_selection(sv, ev) == ((0, 1), False)
    # the group is indifferent in column 0: it picks the row cheaper for the ego leader
    sv, ev = [[1.0, 0.0], [1.0, 3.0]], [[5.0, 4.0], [2.0, 9.0]]
    assert checks.brute_stackelberg(sv, ev, "ev") == (1, 0)


def test_oracles_match_the_program_on_random_games():
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = int(rng.integers(1, 8))
        sv, ev = rng.integers(0, 4, (2, m)).astype(float), rng.integers(0, 4, (2, m)).astype(float)
        game = GameMatrix.from_arrays(sv, ev)
        assert checks.brute_nash(sv, ev) == [e.cell() for e in find_pure_nash(game)]
        assert checks.brute_stackelberg(sv, ev, "ev") == stackelberg(game, Player.EV).cell()
        assert checks.brute_stackelberg(sv, ev, "sv") == stackelberg(game, Player.SV).cell()
        sel = select_action(game)
        assert checks.brute_selection(sv, ev) == (sel.chosen.cell(), sel.fallback_used)


def test_info_gain_by_hand():
    obs = np.array([[1.0, 1.0]])
    gain = checks.info_gain(np.array([0.5]), np.array([0.5]), obs, obs, obs - 1.0, 1.0)
    # likelihood ratio exp(-0.5 * 2) for yield: posterior assert = 1 / (1 + e^-1)
    p = 1.0 / (1.0 + math.exp(-1.0))
    want = -(p * math.log(p) + (1 - p) * math.log(1 - p)) - math.log(2.0)
    assert gain[0] == pytest.approx(want, rel=1e-12)
    # a certain prior stays certain and gains nothing
    assert checks.info_gain(np.array([1.0]), np.array([0.0]), obs, obs, obs - 1.0, 1.0)[0] == 0.0


def test_beliefs_off_the_simplex_are_caught():
    assert checks.check_beliefs({"a": (0.3, 0.7)}) == []
    assert checks.check_beliefs({"a": (0.3, 0.6)})
    assert checks.check_beliefs({"a": (-0.1, 1.1)})


def test_reference_game_catches_a_wrong_entry():
    from mergegame import planner
    from mergegame.actions import EgoDecision, GapChoice, LateralDecision
    from mergegame.costs import Belief
    from mergegame.scenario import default_merge_scenario

    cfg = default_merge_scenario(5.0)
    world = cfg.initial_world()
    beliefs = {v: Belief(0.7, 0.3) for v in cfg.sv_ids}
    res = planner.plan_cycle(world, beliefs, cfg,
                             EgoDecision(GapChoice.GAP_0, LateralDecision.LANE_KEEP))
    assert checks.check_reference_game(res, world, beliefs, cfg) == []
    assert checks.check_rollout(res.rollout, world) == []
    res.game.ev[1, 5] *= 1.0 + 1e-6
    assert checks.check_reference_game(res, world, beliefs, cfg)


def test_truth_steps_catch_an_ego_overlap():
    from mergegame.scenario import default_merge_scenario

    cfg = default_merge_scenario(5.0)
    world = cfg.initial_world()
    rows = [(0, 0.0, vid, *world.states[i], 0.0, 0.0) for i, vid in enumerate(world.ids)]
    assert checks.check_truth_steps(rows, cfg) == []
    crash = list(rows)
    crash[1] = (0, 0.0, "sv0", 3.0, 0.0, 0.0, 4.0, 0.0, 0.0)  # the truck onto the ego
    assert any("overlaps sv0" in e for e in checks.check_truth_steps(crash, cfg))
