import logging
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergegame.actions import (
    ROOT,
    DecisionSequence,
    EgoDecision,
    GapChoice,
    LateralDecision,
    SvAction,
    enumerate_ego_sequences,
)
from mergegame import costs
from mergegame.costs import (
    Belief,
    CostWeights,
    GameMatrix,
    _pair_band_penalties,
    belief_entropy,
    build_game_from_batch,
    column_priors,
    update_belief,
)
from mergegame.dynamics import VehicleParams
from mergegame.forward_sim import PlannerModel, SimConfig, simulate_batch
from mergegame.planner import _info_gain_extra
from mergegame.scenario import BeliefSettings, default_merge_scenario, packed_lane_scenario
from mergegame.world import LaneGeometry, WorldSnapshot

from helpers import bits, mid_episode_world, planner_rollout
from reference import (INFO_RTOL, build_game, comfort_cost, efficiency_cost, navigation_cost,
                       reference_info_gain_extra, reference_pair_band_penalties,
                       reference_simulate_batch, reference_update_belief)

W = CostWeights(w_saf1=400.0, w_saf2=4.0, d_lo=1.0, d_hi=3.0,
                w_eff=1.0, w_com=1.0, w_nav=1.0)


def two_vehicle_world():
    return WorldSnapshot(
        ids=("a", "b"),
        states=np.array([[0.0, 0.0, 0.0, 10.0], [10.0, 0.0, 0.0, 10.0]]),
        params=(VehicleParams(), VehicleParams()),
        v_des=np.array([10.0, 10.0]),
        lanes=LaneGeometry(),
        ego_index=0,
    )


def make_traj(xa, xb):
    """States (2, T+1, 4) and inputs (2, T, 2) of two same-lane vehicles at
    given longitudinal positions per step, at 10 m/s with no command."""
    states = np.zeros((2, len(xa), 4))
    states[0, :, 0] = xa
    states[1, :, 0] = xb
    states[:, :, 3] = 10.0
    return states, np.zeros((2, len(xa) - 1, 2))


def period_segments(traj_states, block_start, periods):
    """(R, periods) segment of each table row in each of `periods` equal periods
    (the last one through the final step): rows of one vehicle whose slices
    of the period are bit-equal share a segment."""
    R, n_steps = traj_states.shape[:2]
    S = (n_steps - 1) // periods
    vehicle = np.repeat(np.arange(len(block_start) - 1), np.diff(block_start))
    segments = np.empty((R, periods), dtype=np.intp)
    for d in range(periods):
        t1 = n_steps if d == periods - 1 else (d + 1) * S
        flat = np.ascontiguousarray(traj_states[:, d * S:t1]).reshape(R, -1).view(np.uint64)
        keys = np.column_stack((vehicle.astype(np.uint64), flat))
        segments[:, d] = np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1)
    return segments


def trajectory_table(states):
    """(traj_states, rows, block_start, period_rows) of stacked per-tuple states
    (K, V, T+1, 4): each vehicle's bit-distinct rows once, in vehicle blocks,
    as one decision period."""
    K, V = states.shape[:2]
    blocks, rows, start = [], np.empty((K, V), dtype=np.intp), [0]
    for v in range(V):
        flat = np.ascontiguousarray(states[:, v]).reshape(K, -1).view(np.uint64)
        _, first, inverse = np.unique(flat, axis=0, return_index=True, return_inverse=True)
        blocks.append(states[first, v])
        rows[:, v] = start[-1] + inverse.reshape(-1)
        start.append(start[-1] + len(first))
    traj_states, start = np.concatenate(blocks), np.array(start)
    return traj_states, rows, start, period_segments(traj_states, start, 1)


def two_vehicle_safety(states):
    """The reference safety sums (2,) of two default footprints' states
    (2, T+1, 4), after checking that the production band scores them alike."""
    world = two_vehicle_world()
    assert_pair_band_matches_reference(*trajectory_table(states[None]), world.half_len,
                                       world.half_wid, W)
    return reference_pair_band_penalties(states[None], world.half_len, world.half_wid, W)[0]


def test_safety_cost_counting_oracle():
    # same-lane rectangles: separation = dx - length; steps at 0.1, 1.5, 2.5, 3.5 m
    xa = np.zeros(4)
    xb = np.array([4.6, 6.0, 7.0, 8.0])
    expected = W.w_saf1 + 2 * W.w_saf2
    assert two_vehicle_safety(make_traj(xa, xb)[0]) == pytest.approx([expected, expected])


def test_safety_cost_zero_when_far():
    assert (two_vehicle_safety(make_traj(np.zeros(5), np.full(5, 50.0))[0]) == 0.0).all()


def test_safety_band_boundaries():
    # exactly at d_hi counts as band, just above does not
    for xb, want in [(4.5 + W.d_hi, W.w_saf2), (4.5 + W.d_hi + 1e-6, 0.0), (4.5, W.w_saf1)]:
        assert two_vehicle_safety(make_traj(np.zeros(1), np.array([xb]))[0])[0] == want


# --- culled pairwise scoring against the all-pairs reference -------------------------

def assert_pair_band_matches_reference(traj_states, rows, block_start, period_rows, half_len,
                                       half_wid, weights):
    """The table's penalties against the all-pairs loop over the per-tuple arrays."""
    got = _pair_band_penalties(traj_states, rows, block_start, period_rows, half_len, half_wid,
                               weights)
    want = reference_pair_band_penalties(traj_states[rows], half_len, half_wid, weights)
    assert np.array_equal(got, want)
    return got


@pytest.mark.parametrize("case", ["packed", "packed-mid", "merge5", "merge10",
                                  "packed-fractional", "merge10-fractional"])
def test_pair_band_penalties_match_reference_on_rollouts(case):
    if case.startswith("packed"):
        cfg = packed_lane_scenario(6.0)
        world = mid_episode_world(cfg, 6) if case == "packed-mid" else cfg.initial_world()
    else:
        cfg = default_merge_scenario(5.0 if case == "merge5" else 10.0)
        world = cfg.initial_world()
    rollout = planner_rollout(cfg, world)
    weights = cfg.weights
    if case.endswith("fractional"):
        # unlike the integer defaults, these weights do not sum exactly in any
        # order: a sum taken out of step order or pair order changes bits
        weights = replace(weights, w_saf1=1000.3, w_saf2=0.7)
    got = assert_pair_band_matches_reference(rollout.traj_states, rollout.rows,
                                             rollout.block_start, rollout.period_rows,
                                             world.half_len, world.half_wid, weights)
    assert got.any()
    assert (got != np.round(got)).any() == case.endswith("fractional")


def test_pair_band_groups_only_pairs_with_two_multi_row_sides(monkeypatch):
    # a pair with a single-row side has the other side's block rows as its
    # combinations; only the rest need grouping over the K rollouts
    cfg = packed_lane_scenario(6.0)
    world = cfg.initial_world()
    rollout = planner_rollout(cfg, world)
    R, (K, _) = len(rollout.traj_states), rollout.rows.shape
    n_rows = np.diff(rollout.block_start)
    n_multi = np.count_nonzero(n_rows > 1)
    calls, group_codes = [], costs._group_codes

    def recording(code):
        calls.append(code.copy())
        return group_codes(code)

    monkeypatch.setattr(costs, "_group_codes", recording)
    _pair_band_penalties(rollout.traj_states, rollout.rows, rollout.block_start,
                         rollout.period_rows, world.half_len, world.half_wid, cfg.weights)
    # the combination step's call comes first, then one call per period
    vehicle = np.searchsorted(rollout.block_start, np.divmod(calls[0], R), side="right") - 1
    assert n_rows[vehicle].min(initial=2) > 1
    assert 0 < len(calls[0]) <= K * n_multi * (n_multi - 1) // 2


def test_pair_band_penalties_reach_boundary():
    # footprints turned so that corners face each other across the center line:
    # at a center distance of exactly d_hi + r_i + r_j the corners are d_hi apart
    hl, hw = 2.0, 1.5                       # circumradius 2.5
    reach = W.d_hi + 2.0 * np.hypot(hl, hw)
    turn = -np.arctan2(hw, hl)
    states = np.zeros((1, 4, 1, 4))
    states[0, :, 0, 2] = turn
    states[0, 1, 0, 0] = reach                                   # kept by <=
    states[0, 2, 0, 1] = 50.0
    states[0, 3, 0, :2] = np.nextafter(reach, np.inf), 50.0      # just beyond
    half_len, half_wid = np.full(4, hl), np.full(4, hw)
    got = assert_pair_band_matches_reference(*trajectory_table(states), half_len, half_wid, W)
    assert got[0, 0] == got[0, 1] == W.w_saf2
    assert got[0, 2] == got[0, 3] == 0.0


@pytest.mark.parametrize("column, step", [(0, 0), (0, 3), (2, 0), (2, 3)])
def test_pair_band_penalties_row_constant_and_single_row_pairs(column, step):
    # a and b hold the same trajectory in every row, so one table row each; c,
    # 1.1 m ahead of b, moves 0.5 m back or turns by 0.6 rad in row 2 at one
    # step, entering w_saf1's band
    K, S = 5, 4
    states = np.zeros((K, 3, S, 4))
    states[:, 1, :, 0] = 6.0
    states[:, 2, :, 0] = 11.6
    states[2, 2, step, column] += -0.5 if column == 0 else 0.6
    half_len, half_wid = np.full(3, 2.25), np.full(3, 1.0)
    table = trajectory_table(states)
    assert np.array_equal(np.diff(table[2]), [1, 1, 2])
    got = assert_pair_band_matches_reference(*table, half_len, half_wid, W)
    assert np.all(got[:, 0] == got[0, 0]) and got[0, 0] > 0.0
    assert got[2, 2] == got[0, 2] + W.w_saf1 - W.w_saf2


# footprints with circumradius 2.5 whose corners face each other when turned
# by TURN; a center distance of REACH then puts the corners exactly d_hi apart
HL, HW = 2.0, 1.5
TURN = -float(np.arctan2(HW, HL))
REACH = W.d_hi + 2.0 * float(np.hypot(HL, HW))
# center offsets that touch (0 and 2 * HL), end each band, or sit on the reach
OFFSETS = [0.0, 2 * HL, 2 * HL + W.d_lo, 2 * HL + W.d_hi, REACH,
           float(np.nextafter(REACH, np.inf)), 2 * HW, 50.0]


@st.composite
def small_tables(draw):
    """Tables of 2-4 vehicles with 1-3 rows each over 1-3 decision periods of
    1-2 steps plus the final step, value-equal rows or period slices forced
    into some blocks, entries placed on touching and band or reach boundaries,
    and 1-6 rollouts indexing them. The period segments are the bit grouping
    or a finer partition of it: one per row, or bit groups split at random."""
    V, H, S, K = (draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 2)),
                  draw(st.integers(1, 6)))
    n_steps = H * S + 1
    sizes = draw(st.lists(st.integers(1, 3), min_size=V, max_size=V))
    coord = st.sampled_from(OFFSETS)
    blocks = []
    for v, n in enumerate(sizes):
        block = np.zeros((n, n_steps, 4))
        for r in range(n):
            for t in range(n_steps):
                block[r, t, :3] = (draw(coord), draw(coord),
                                   draw(st.sampled_from([0.0, TURN, np.pi / 2])))
        if n > 1:
            shared = draw(st.sampled_from(["none", "row", "period"]))
            if shared == "row":
                block[-1] = block[0]                       # a value-equal row
            elif shared == "period":                       # a value-equal period slice
                d = draw(st.integers(0, H - 1))
                t1 = n_steps if d == H - 1 else (d + 1) * S
                block[-1, d * S:t1] = block[0, d * S:t1]
        blocks.append(block)
    traj_states, start = np.concatenate(blocks), np.concatenate(([0], np.cumsum(sizes)))
    rows = np.array([[start[v] + draw(st.integers(0, sizes[v] - 1)) for v in range(V)]
                     for _ in range(K)], dtype=np.intp)
    segments = period_segments(traj_states, start, H)
    split = draw(st.sampled_from(["bits", "rows", "random"]))
    R = len(traj_states)
    if split == "rows":
        segments[:] = np.arange(R)[:, None]
    elif split == "random":
        halves = np.array(draw(st.lists(st.integers(0, 1), min_size=R * H, max_size=R * H)))
        finer = segments * 2 + halves.reshape(R, H)
        for d in range(H):
            segments[:, d] = np.unique(finer[:, d], return_inverse=True)[1]
    return traj_states, rows, start, segments


@settings(max_examples=300, deadline=None)
@given(small_tables())
def test_pair_band_penalties_match_reference_on_small_tables(table):
    V = table[1].shape[1]
    # the fractional weights do not sum exactly in every order
    for weights in (W, replace(W, w_saf1=1000.3, w_saf2=0.7)):
        assert_pair_band_matches_reference(*table, np.full(V, HL), np.full(V, HW), weights)


def test_efficiency_cost_direct_sum():
    states, _ = make_traj(np.zeros(3), np.full(3, 50.0))
    states[0, :, 3] = [10.0, 9.0, 10.0]
    assert efficiency_cost(states[0], W, v_des=10.0) == pytest.approx(1.0)
    assert np.array_equal(efficiency_cost(states, W, v_des=10.0), [1.0, 0.0])


def test_comfort_cost_finite_difference():
    _, inputs = make_traj(np.zeros(4), np.full(4, 50.0))
    inputs[0, :, 0] = [0.0, 1.0, 1.0]
    assert comfort_cost(inputs[0], W, 0.2) == pytest.approx(1.0 / 0.04)
    inputs[0, :, 0] = 2.0
    assert comfort_cost(inputs[0], W, 0.2) == 0.0


def test_navigation_cost_squared_offset():
    states, _ = make_traj(np.zeros(3), np.full(3, 50.0))
    states[0, :, 1] = [0.0, 1.0, 2.0]
    assert navigation_cost(states[0], W, y_des=0.0) == pytest.approx(5.0)
    assert navigation_cost(states[0], W, y_des=2.0) == pytest.approx(4.0 + 1.0)


# --- matrix assembly ------------------------------------------------------------

ROWS = (SvAction.ASSERT, SvAction.YIELD)
SEQS = (
    DecisionSequence((EgoDecision(GapChoice.GAP_0, LateralDecision.LANE_KEEP),) * 5),
    DecisionSequence((EgoDecision(GapChoice.GAP_2, LateralDecision.LEFT_CHANGE),) * 5),
    DecisionSequence((EgoDecision(GapChoice.GAP_1, LateralDecision.LEFT_PROBE),) * 5),
)


def priors_of(rollout, beliefs):
    """column_priors of a rollout's column partners (row 0 holds the columns in order)."""
    return column_priors(rollout.partner_ids[:len(rollout.cols)], beliefs)


def planning_setup():
    """The default merge at 5 m/s and the game's tuples, row-major."""
    cfg = default_merge_scenario(5.0)
    world = cfg.initial_world()
    return cfg, world, [(sv, seq) for sv in ROWS for seq in SEQS]


def test_group_cost_adds_vehicles_in_roster_order():
    # with only the fractional safety weights on, each vehicle's cost is its
    # safety sum, and the group cost adds those from 0.0 in roster order, bit
    # for bit; a pairwise sum of the same values gives other bits here
    cfg = packed_lane_scenario(6.0)
    weights = replace(cfg.weights, w_saf1=1000.3, w_saf2=0.7, w_eff=0.0, w_com=0.0, w_nav=0.0)
    world = cfg.initial_world()
    rollout = planner_rollout(cfg, world)
    game = build_game_from_batch(rollout, world, priors_of(rollout, {}), weights)
    safety = np.delete(_pair_band_penalties(rollout.traj_states, rollout.rows,
                                            rollout.block_start, rollout.period_rows,
                                            world.half_len, world.half_wid, weights),
                       world.ego_index, axis=1)
    in_roster_order = np.zeros(len(safety))
    for cost in safety.T:
        in_roster_order += cost
    assert np.array_equal(game.sv_raw.ravel(), in_roster_order)
    assert not np.array_equal(safety.sum(axis=1), in_roster_order)


def test_belief_weighting_rule():
    cfg, world, _ = planning_setup()
    rollout = simulate_batch(world, SEQS, SimConfig(), PlannerModel())
    b = Belief(0.7, 0.3)
    prior = priors_of(rollout, {"sv1": b, "sv2": b, "sv3": b})
    g = build_game_from_batch(rollout, world, prior, cfg.weights)
    for j, partner in enumerate(rollout.partner_ids[:len(SEQS)]):
        weight = (1.0 - b.p_assert, 1.0 - b.p_yield) if partner is not None else (0.5, 0.5)
        assert g.sv_weighted[0, j] == pytest.approx(weight[0] * g.sv_raw[0, j])
        assert g.sv_weighted[1, j] == pytest.approx(weight[1] * g.sv_raw[1, j])


def test_uniform_belief_halves_rows():
    cfg, world, _ = planning_setup()
    rollout = simulate_batch(world, SEQS, SimConfig(), PlannerModel())
    beliefs = {vid: Belief.uniform() for vid in cfg.sv_ids}
    g = build_game_from_batch(rollout, world, priors_of(rollout, beliefs), cfg.weights)
    assert np.allclose(g.sv_weighted, 0.5 * g.sv_raw)
    # beliefs weight only the group's rows: the ego's costs are those under any belief
    skewed = {vid: Belief(0.9, 0.1) for vid in cfg.sv_ids}
    g2 = build_game_from_batch(rollout, world, priors_of(rollout, skewed), cfg.weights)
    assert not np.array_equal(g2.sv_weighted, g.sv_weighted)
    assert np.array_equal(bits(g2.ev), bits(g.ev))


def test_degenerate_belief_zeroes_assert_row():
    cfg, world, _ = planning_setup()
    rollout = simulate_batch(world, SEQS, SimConfig(), PlannerModel())
    beliefs = {vid: Belief(1.0, 0.0) for vid in cfg.sv_ids}
    g = build_game_from_batch(rollout, world, priors_of(rollout, beliefs), cfg.weights)
    partnered = [j for j, p in enumerate(rollout.partner_ids[:len(SEQS)]) if p is not None]
    assert np.allclose(g.sv_weighted[0, partnered], 0.0)
    assert np.allclose(g.sv_weighted[1, partnered], g.sv_raw[1, partnered])


def test_build_game_rejects_mismatched_sets():
    # the reference game reads tuple k as (SvAction(k // M), column k % M)
    cfg, world, tuples = planning_setup()
    for wrong in (tuples[:-1], tuples[::-1]):
        flat = reference_simulate_batch(world, wrong, cfg.sim, cfg.model)
        with pytest.raises(ValueError, match="row by row"):
            build_game(flat, world, {}, cfg.weights)


def test_matrix_requires_finite_entries():
    finite = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert GameMatrix.from_arrays(finite, finite).sv_weighted.shape == (2, 2)
    for bad in (np.inf, -np.inf, np.nan):
        for k in range(finite.size):
            entries = finite.copy()
            entries.flat[k] = bad
            with pytest.raises(ValueError, match="finite"):
                GameMatrix.from_arrays(entries, finite)
            with pytest.raises(ValueError, match="finite"):
                GameMatrix.from_arrays(finite, entries)


# --- belief update ----------------------------------------------------------------

def worked_bayes(prior, lik):
    post = np.array(prior) * np.array(lik)
    return post / post.sum()


SIGMA = BeliefSettings().sigma_accel


def test_update_belief_bayes_rule():
    sigma = 0.8
    # residuals chosen so the likelihood ratio assert:yield is exactly 4:1
    delta = sigma * np.sqrt(2.0 * np.log(4.0))
    post_a, post_y = update_belief(0.5, 0.5, np.zeros(1), np.zeros(1), np.full(1, delta), sigma)
    expected = worked_bayes([0.5, 0.5], [0.8, 0.2])
    assert post_a == pytest.approx(expected[0], abs=1e-12)
    assert post_y == pytest.approx(expected[1], abs=1e-12)


def test_update_belief_identical_predictions_keep_prior():
    tr = np.array([0.1, -0.2, 0.3])
    post_a, _ = update_belief(0.6, 0.4, tr, tr + 0.5, tr + 0.5, SIGMA)
    assert post_a == pytest.approx(0.6)


def test_update_belief_flat_likelihood_keeps_skewed_prior():
    obs = np.zeros(3)
    post_a, _ = update_belief(0.9, 0.1, obs, obs + 1.0, obs + 1.0, SIGMA)
    assert post_a == pytest.approx(0.9)


def test_update_belief_simplex_and_relabel():
    rng = np.random.default_rng(9)
    p = rng.uniform(0.01, 0.99, 50)
    obs = rng.normal(0, 1, (50, 5))
    pa, py = rng.normal(0, 1, (50, 5)), rng.normal(0, 1, (50, 5))
    post_a, post_y = update_belief(p, 1.0 - p, obs, pa, py, SIGMA)
    assert np.all((0.0 <= post_a) & (post_a <= 1.0))
    np.testing.assert_allclose(post_a + post_y, 1.0, atol=1e-9)
    _, flipped_y = update_belief(1.0 - p, p, obs, py, pa, SIGMA)
    np.testing.assert_allclose(flipped_y, post_a, atol=1e-9)


def test_update_belief_vacuous_likelihood_returns_prior(caplog):
    # entry 0 observes an infinite acceleration: both likelihoods vanish
    obs = np.array([[np.inf], [0.2]])
    with caplog.at_level(logging.WARNING):
        post_a, post_y = update_belief(np.array([0.3, 0.3]), np.array([0.7, 0.7]), obs,
                                       np.zeros(1), np.ones(1), SIGMA)
    assert (post_a[0], post_y[0]) == (0.3, 0.7)
    assert post_a[1] != 0.3
    skipped = [r.getMessage() for r in caplog.records if "belief update skipped" in r.message]
    assert skipped == ["belief update skipped for 1 of 2 entries: likelihoods vanished "
                       "for every mode"]


def test_update_belief_window_mismatch():
    with pytest.raises(ValueError):
        update_belief(0.5, 0.5, np.zeros(3), np.zeros(2), np.zeros(3), SIGMA)


def _belief_entry(kind, prior, n_steps):
    """Strategy for one (prior, observed, pred_assert, pred_yield) entry."""
    trace = st.lists(st.floats(-10.0, 10.0), min_size=n_steps, max_size=n_steps)
    if kind == "random":
        return st.tuples(st.just(prior), trace, trace, trace)
    if kind == "flat":         # equal predictions: the likelihood carries no information
        return trace.flatmap(lambda p: st.tuples(st.just(prior), trace, st.just(p), st.just(p)))
    # observed so far from both predictions that both likelihoods underflow
    far = st.lists(st.sampled_from([-1e200, 1e200]), min_size=n_steps, max_size=n_steps)
    return st.tuples(st.just(prior), far, trace, trace)


belief_priors = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
belief_entries = st.integers(1, 8).flatmap(lambda t: st.lists(
    st.tuples(st.sampled_from(["random", "flat", "vacuous"]), belief_priors).flatmap(
        lambda kp: _belief_entry(kp[0], kp[1], t)),
    min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(entries=belief_entries, sigma=st.floats(0.1, 2.0))
def test_update_belief_batched_matches_scalar_rule(entries, sigma):
    p = np.array([e[0] for e in entries])
    obs, pred_a, pred_y = (np.array([e[i] for e in entries]) for i in (1, 2, 3))
    with mock.patch.object(costs.log, "warning") as warning:
        post_a, post_y = update_belief(p, 1.0 - p, obs, pred_a, pred_y, sigma)
    ref = [reference_update_belief((p[i], 1.0 - p[i]), obs[i], pred_a[i], pred_y[i], sigma)
           for i in range(len(p))]
    n_vacuous = sum(r is None for r in ref)
    want = np.array([(p[i], 1.0 - p[i]) if r is None else r for i, r in enumerate(ref)])
    np.testing.assert_allclose(post_a, want[:, 0], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(post_y, want[:, 1], rtol=1e-15, atol=0.0)
    # on the simplex
    assert np.all((post_a >= 0.0) & (post_a <= 1.0) & (post_y >= 0.0) & (post_y <= 1.0))
    assert np.all(np.abs(post_a + post_y - 1.0) <= 1e-15)
    # a prior of exactly 0 or 1 is never moved
    assert np.all(post_a[p == 1.0] == 1.0) and np.all(post_a[p == 0.0] == 0.0)
    # vacuous entries keep their prior, reported in one warning
    assert warning.call_count == (1 if n_vacuous else 0)
    if n_vacuous:
        assert warning.call_args.args[1:] == (n_vacuous, len(p))


# --- information-gain term ----------------------------------------------------------

def info_gain_cfg(case):
    cfg = packed_lane_scenario() if case == "packed" else default_merge_scenario(
        {"merge5": 5.0, "merge10": 10.0}[case])
    return replace(cfg, weights=replace(cfg.weights, w_info=20.0))


@pytest.mark.parametrize("p", [0.5, 0.8, 0.999])
@pytest.mark.parametrize("case", ["merge5", "merge10", "packed"])
def test_info_gain_matches_per_tuple_reference(case, p):
    cfg = info_gain_cfg(case)
    world = cfg.initial_world()
    # alternate the skew so that a column given another partner's prior shows
    beliefs = {vid: Belief(p, 1.0 - p) if i % 2 else Belief(1.0 - p, p)
               for i, vid in enumerate(cfg.sv_ids)}
    # the term alone, each side on its own rollout; test_plan_cycle checks
    # the cycle that it enters
    seqs = enumerate_ego_sequences(ROOT, cfg.prune.max_decision_changes, cfg.sim.horizon)
    rollout = simulate_batch(world, seqs, cfg.sim, cfg.model)
    flat = reference_simulate_batch(world, [(sv, s) for sv in SvAction for s in seqs], cfg.sim,
                                    cfg.model)
    want = reference_info_gain_extra(flat, world, beliefs, cfg)
    assert np.count_nonzero(want) > 0
    got = _info_gain_extra(rollout, priors_of(rollout, beliefs), cfg)
    np.testing.assert_allclose(got, want, rtol=INFO_RTOL, atol=0.0)


def test_info_gain_is_zero_without_partner():
    cfg = info_gain_cfg("merge5")
    world = cfg.initial_world()
    # the current-lane gap allows lane keeping only, and has no partner
    seqs = [s for s in enumerate_ego_sequences(ROOT, 2, cfg.sim.horizon)
            if all(d.gap == GapChoice.GAP_0 for d in s)]
    rollout = simulate_batch(world, seqs, cfg.sim, cfg.model)
    assert seqs and all(pid is None for pid in rollout.partner_ids)
    beliefs = {vid: Belief(0.8, 0.2) for vid in cfg.sv_ids}
    extra = _info_gain_extra(rollout, priors_of(rollout, beliefs), cfg)
    assert np.array_equal(extra, np.zeros(2 * len(seqs)))


def test_prop1_weighted_row_inequality():
    # for b >= 0.5 and polite-costs ordering, the weighted assert entry never
    # exceeds the weighted yield entry
    rng = np.random.default_rng(10)
    for _ in range(200):
        j1 = rng.uniform(0, 100)
        j2 = j1 + rng.uniform(0, 100)
        b = rng.uniform(0.5, 1.0)
        assert (1.0 - b) * j1 <= b * j2 + 1e-12


def test_belief_validation():
    with pytest.raises(ValueError):
        Belief(0.6, 0.6)
    with pytest.raises(ValueError):
        Belief(-0.1, 1.1)
    assert belief_entropy(0.5, 0.5) == pytest.approx(np.log(2.0))
    assert belief_entropy(1.0, 0.0) == 0.0
