import logging
import math
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergegame.actions import (
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
from mergegame.dynamics import VehicleParams, rect_distance_arrays
from mergegame.forward_sim import PlannerModel, SimConfig, simulate_batch
from mergegame.game import Player, find_pure_nash, select_action, stackelberg
from mergegame.planner import _info_gain_extra, plan_cycle
from mergegame.scenario import BeliefSettings, default_merge_scenario, packed_lane_scenario
from mergegame.world import LaneGeometry, WorldSnapshot

from gap_table import gap_ids
from helpers import mid_episode_world, planner_rollout

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


@dataclass
class TrajectorySet:
    """One action tuple's rollout of every vehicle: what the per-tuple reference scores."""

    vehicle_ids: tuple[str, ...]
    states: np.ndarray  # (V, T+1, 4)
    inputs: np.ndarray  # (V, T, 2)
    action: tuple
    dt: float

    def index_of(self, vehicle_id: str) -> int:
        return self.vehicle_ids.index(vehicle_id)


def simulate_one(world, action, sim, model) -> TrajectorySet:
    """The batch of the tuple's sequence alone holds it at k = group action."""
    sv, seq = action
    batch = simulate_batch(world, [seq], sim, model)
    return TrajectorySet(world.ids, batch.states[sv], batch.inputs[sv], action, batch.dt)


def make_traj(xa, xb, dt=0.2):
    """Two same-lane vehicles at given longitudinal positions per step."""
    n = len(xa)
    states = np.zeros((2, n, 4))
    states[0, :, 0] = xa
    states[1, :, 0] = xb
    states[:, :, 3] = 10.0
    inputs = np.zeros((2, n - 1, 2))
    seq = DecisionSequence((EgoDecision(GapChoice.GAP_0, LateralDecision.LANE_KEEP),))
    return TrajectorySet(("a", "b"), states, inputs, (SvAction.ASSERT, seq), dt)


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


# --- per-tuple reference: one trajectory set and one vehicle at a time ---------------

@dataclass(frozen=True)
class CostBreakdown:
    safety: float
    efficiency: float
    comfort: float
    navigation: float
    info: float = 0.0

    @property
    def total(self) -> float:
        return self.safety + self.efficiency + self.comfort + self.navigation + self.info


def _half_dims(traj: TrajectorySet, world: WorldSnapshot):
    order = [world.index_of(v) for v in traj.vehicle_ids]
    return world.half_len[order], world.half_wid[order]


def safety_cost(traj, vehicle_id, weights, world):
    """Sum over steps and other vehicles of the piecewise distance penalty."""
    hl, hw = _half_dims(traj, world)
    per_vehicle = reference_pair_band_penalties(traj.states[None], hl, hw, weights)
    return float(per_vehicle[0, traj.index_of(vehicle_id)])


def efficiency_cost(traj, vehicle_id, weights, v_des):
    v = traj.states[traj.index_of(vehicle_id), :, 3]
    return float(weights.w_eff * np.sum((v - v_des) ** 2))


def comfort_cost(traj, vehicle_id, weights):
    """Squared jerk, approximated by finite differences of the commanded acceleration."""
    a = traj.inputs[traj.index_of(vehicle_id), :, 0]
    return float(weights.w_com * np.sum(np.diff(a) ** 2) / traj.dt ** 2)


def navigation_cost(traj, vehicle_id, weights, y_des):
    y = traj.states[traj.index_of(vehicle_id), :, 1]
    return float(weights.w_nav * np.sum((y - y_des) ** 2))


def vehicle_cost(traj, vehicle_id, weights, world, v_des, y_des, info=0.0):
    return CostBreakdown(
        safety=safety_cost(traj, vehicle_id, weights, world),
        efficiency=efficiency_cost(traj, vehicle_id, weights, v_des),
        comfort=comfort_cost(traj, vehicle_id, weights),
        navigation=navigation_cost(traj, vehicle_id, weights, y_des),
        info=info,
    )


def build_game(tuples, trajectory_sets, beliefs, weights, world):
    """The belief-weighted cost matrix from per-tuple trajectory sets, scored
    vehicle by vehicle, and its column partners. Raises when a tuple is
    missing its trajectory set."""
    tuples = list(tuples)
    if len(trajectory_sets) != len(tuples):
        raise ValueError("one trajectory set per action tuple is required")
    for tup, ts in zip(tuples, trajectory_sets):
        if ts.action != tup:
            raise ValueError(f"trajectory set does not match its action tuple: {tup}")
    rows = tuple(dict.fromkeys(sv for sv, _ in tuples))
    cols = tuple(seq for _, seq in tuples[:len(tuples) // len(rows)])

    ego = world.ids[world.ego_index]
    v_des = {vid: float(world.v_des[world.index_of(vid)]) for vid in world.ids}
    sv_raw = np.empty((len(rows), len(cols)))
    ev = np.empty((len(rows), len(cols)))
    for k, ts in enumerate(trajectory_sets):
        r, c = divmod(k, len(cols))
        sv_raw[r, c] = sum(
            vehicle_cost(ts, vid, weights, world, v_des=v_des[vid],
                         y_des=world.lanes.nearest_center(ts.states[ts.index_of(vid), 0, 1])).total
            for vid in world.ids if vid != ego)
        ev[r, c] = vehicle_cost(ts, ego, weights, world, v_des=v_des[ego],
                                y_des=world.lanes.target_center).total

    gaps = gap_ids(world)
    partners = tuple(None if seq.partner_gap is None else gaps[seq.partner_gap][1] for seq in cols)
    col_beliefs = [beliefs.get(p, Belief.uniform()) if p is not None else Belief.uniform()
                   for p in partners]
    weight = np.array([[1.0 - (b.p_assert, b.p_yield)[row] for b in col_beliefs]
                       for row in rows])
    return GameMatrix(cols, weight * sv_raw, ev, sv_raw=sv_raw), partners


def assert_production_meets(traj, world):
    """The production pair band scores traj's table as the reference does."""
    assert_matches_reference(*trajectory_table(traj.states[None]), *_half_dims(traj, world), W)


def test_safety_cost_counting_oracle():
    # same-lane rectangles: separation = dx - length; steps at 0.1, 1.5, 2.5, 3.5 m
    xa = np.zeros(4)
    xb = np.array([4.6, 6.0, 7.0, 8.0])
    traj = make_traj(xa, xb)
    world = two_vehicle_world()
    expected = W.w_saf1 + 2 * W.w_saf2
    assert safety_cost(traj, "a", W, world) == pytest.approx(expected)
    assert safety_cost(traj, "b", W, world) == pytest.approx(expected)
    assert_production_meets(traj, world)


def test_safety_cost_zero_when_far():
    traj = make_traj(np.zeros(5), np.full(5, 50.0))
    assert safety_cost(traj, "a", W, two_vehicle_world()) == 0.0
    assert_production_meets(traj, two_vehicle_world())


def test_safety_band_boundaries():
    world = two_vehicle_world()
    # exactly at d_hi counts as band, just above does not
    at_hi = make_traj(np.zeros(1), np.array([4.5 + W.d_hi]))
    assert safety_cost(at_hi, "a", W, world) == W.w_saf2
    beyond = make_traj(np.zeros(1), np.array([4.5 + W.d_hi + 1e-6]))
    assert safety_cost(beyond, "a", W, world) == 0.0
    touching = make_traj(np.zeros(1), np.array([4.5]))
    assert safety_cost(touching, "a", W, world) == W.w_saf1
    for traj in (at_hi, beyond, touching):
        assert_production_meets(traj, world)


# --- culled pairwise scoring against the all-pairs reference -------------------------

def reference_pair_band_penalties(states, half_len, half_wid, weights):
    """Every vehicle pair on every row: the scoring loop before culling."""
    K, V, S, _ = states.shape
    radius = np.hypot(half_len, half_wid)
    out = np.zeros((K, V))
    for i in range(V):
        for j in range(i + 1, V):
            dx = states[:, i, :, 0] - states[:, j, :, 0]
            dy = states[:, i, :, 1] - states[:, j, :, 1]
            reach = weights.d_hi + radius[i] + radius[j]
            near = dx * dx + dy * dy <= reach * reach
            if not near.any():
                continue
            ks, ts = np.nonzero(near)
            d = rect_distance_arrays(
                states[ks, i, ts, 0], states[ks, i, ts, 1], states[ks, i, ts, 2],
                half_len[i], half_wid[i],
                states[ks, j, ts, 0], states[ks, j, ts, 1], states[ks, j, ts, 2],
                half_len[j], half_wid[j],
            )
            p = np.where(d < weights.d_lo, weights.w_saf1,
                         np.where(d <= weights.d_hi, weights.w_saf2, 0.0))
            per_k = np.bincount(ks, weights=p, minlength=K)
            out[:, i] += per_k
            out[:, j] += per_k
    return out


def assert_matches_reference(traj_states, rows, block_start, period_rows, half_len, half_wid,
                             weights):
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
    got = assert_matches_reference(rollout.traj_states, rollout.rows, rollout.block_start,
                                   rollout.period_rows, world.half_len, world.half_wid, weights)
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
    got = assert_matches_reference(*trajectory_table(states), half_len, half_wid, W)
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
    got = assert_matches_reference(*table, half_len, half_wid, W)
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
        assert_matches_reference(*table, np.full(V, HL), np.full(V, HW), weights)


def test_efficiency_cost_direct_sum():
    traj = make_traj(np.zeros(3), np.full(3, 50.0))
    traj.states[0, :, 3] = [10.0, 9.0, 10.0]
    assert efficiency_cost(traj, "a", W, v_des=10.0) == pytest.approx(1.0)
    traj.states[0, :, 3] = 10.0
    assert efficiency_cost(traj, "a", W, v_des=10.0) == 0.0


def test_comfort_cost_finite_difference():
    traj = make_traj(np.zeros(4), np.full(4, 50.0))
    traj.inputs[0, :, 0] = [0.0, 1.0, 1.0]
    assert comfort_cost(traj, "a", W) == pytest.approx(1.0 / 0.04)
    traj.inputs[0, :, 0] = 2.0
    assert comfort_cost(traj, "a", W) == 0.0


def test_navigation_cost_squared_offset():
    traj = make_traj(np.zeros(3), np.full(3, 50.0))
    traj.states[0, :, 1] = [0.0, 1.0, 2.0]
    assert navigation_cost(traj, "a", W, y_des=0.0) == pytest.approx(5.0)
    assert navigation_cost(traj, "a", W, y_des=2.0) == pytest.approx(4.0 + 1.0)


def test_breakdown_total():
    traj = make_traj(np.zeros(3), np.full(3, 50.0))
    b = vehicle_cost(traj, "a", W, two_vehicle_world(), v_des=9.0, y_des=0.5, info=0.25)
    assert b.total == pytest.approx(b.safety + b.efficiency + b.comfort + b.navigation + b.info)
    assert b.info == 0.25


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


def test_build_game_matches_batch_path():
    cfg, world, tuples = planning_setup()
    model, sim = PlannerModel(), SimConfig()
    beliefs = {"sv2": Belief(0.7, 0.3), "sv1": Belief(0.4, 0.6)}
    sets = [simulate_one(world, t, sim, model) for t in tuples]
    g1, partners = build_game(tuples, sets, beliefs, cfg.weights, world)
    rollout = simulate_batch(world, SEQS, sim, model)
    g2 = build_game_from_batch(rollout, world, priors_of(rollout, beliefs), cfg.weights)
    assert g2.cols is SEQS
    assert np.allclose(g1.sv_weighted, g2.sv_weighted, atol=1e-9)
    assert np.allclose(g1.ev, g2.ev, atol=1e-9)
    assert partners == rollout.partner_ids[:len(SEQS)]


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
    # the ego's best-response map is unchanged by the row scaling
    assert np.array_equal(np.argmin(g.ev, axis=1), np.argmin(g.ev, axis=1))


def test_degenerate_belief_zeroes_assert_row():
    cfg, world, _ = planning_setup()
    rollout = simulate_batch(world, SEQS, SimConfig(), PlannerModel())
    beliefs = {vid: Belief(1.0, 0.0) for vid in cfg.sv_ids}
    g = build_game_from_batch(rollout, world, priors_of(rollout, beliefs), cfg.weights)
    partnered = [j for j, p in enumerate(rollout.partner_ids[:len(SEQS)]) if p is not None]
    assert np.allclose(g.sv_weighted[0, partnered], 0.0)
    assert np.allclose(g.sv_weighted[1, partnered], g.sv_raw[1, partnered])


def test_build_game_rejects_mismatched_sets():
    cfg, world, tuples = planning_setup()
    model, sim = PlannerModel(), SimConfig()
    sets = [simulate_one(world, t, sim, model) for t in tuples]
    with pytest.raises(ValueError):
        build_game(tuples, sets[:-1], {}, cfg.weights, world)
    with pytest.raises(ValueError):
        build_game(tuples, list(reversed(sets)), {}, cfg.weights, world)


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


def reference_update_belief(prior, observed, pred_assert, pred_yield, sigma_a):
    """Scalar Bayes rule on one (p_assert, p_yield) entry, in log space; None
    when no mode has a finite log-posterior, so the prior must stay."""
    with np.errstate(over="ignore"):
        logliks = [-0.5 * float(np.sum(((observed - pred) / sigma_a) ** 2))
                   for pred in (pred_assert, pred_yield)]
    with np.errstate(divide="ignore"):
        log_post = np.array(logliks) + np.log(prior)
    finite = np.isfinite(log_post)
    if not finite.any():
        return None
    post = np.exp(np.where(finite, log_post - log_post[finite].max(), -np.inf))
    post = post / post.sum()
    return float(post[0]), float(post[1])


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

def reference_entropy(p_assert, p_yield):
    h = 0.0
    for p in (p_assert, p_yield):
        if p > 0.0:
            h -= p * math.log(p)
    return h


def reference_info_gain_extra(rollout, world, beliefs, cfg):
    """The information-gain addend tuple by tuple: one scalar Bayes update of
    the partner's belief per tuple, from its own partner trace against the
    traces its column predicts under each group action."""
    m = len(rollout.cols)
    k_total = 2 * m
    extra = np.zeros(k_total)
    for k in range(k_total):
        pid = rollout.partner_ids[k]
        if pid is None:
            continue
        b = beliefs.get(pid, Belief.uniform())
        prior = (b.p_assert, b.p_yield)
        p = world.index_of(pid)
        col = k % m
        post = reference_update_belief(prior, rollout.inputs[k, p, :, 0],
                                       rollout.inputs[col, p, :, 0],
                                       rollout.inputs[m + col, p, :, 0], cfg.beliefs.sigma_accel)
        post = prior if post is None else post
        extra[k] = cfg.weights.w_info * (reference_entropy(*post) - reference_entropy(*prior))
    return extra


INFO_ROOT = EgoDecision(GapChoice.GAP_0, LateralDecision.LANE_KEEP)


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
    res = plan_cycle(world, beliefs, cfg, INFO_ROOT)
    extra = reference_info_gain_extra(res.rollout, world, beliefs, cfg)
    assert np.count_nonzero(extra) > 0
    ref = build_game_from_batch(res.rollout, world, priors_of(res.rollout, beliefs),
                                cfg.weights, ev_extra=extra)
    np.testing.assert_allclose(res.game.ev, ref.ev, rtol=1e-12, atol=0.0)
    assert np.array_equal(res.game.sv_weighted, ref.sv_weighted)
    # the planner's choices are the reference game's
    assert [eq.cell() for eq in res.nash_cells] == [eq.cell() for eq in find_pure_nash(ref)]
    sel = select_action(ref, nash_cells=find_pure_nash(ref), se_sv=stackelberg(ref, Player.SV))
    assert (res.row, res.col, res.fallback_used) == (sel.chosen.row, sel.chosen.col,
                                                     sel.fallback_used)
    assert res.se_ev.cell() == stackelberg(ref, Player.EV).cell()
    assert res.se_sv.cell() == stackelberg(ref, Player.SV).cell()


def test_info_gain_is_zero_without_partner():
    cfg = info_gain_cfg("merge5")
    world = cfg.initial_world()
    # the current-lane gap allows lane keeping only, and has no partner
    seqs = [s for s in enumerate_ego_sequences(INFO_ROOT, 2, cfg.sim.horizon)
            if all(d.gap == GapChoice.GAP_0 for d in s)]
    rollout = simulate_batch(world, seqs, cfg.sim, cfg.model)
    assert seqs and all(pid is None for pid in rollout.partner_ids)
    beliefs = {vid: Belief(0.8, 0.2) for vid in cfg.sv_ids}
    extra = _info_gain_extra(rollout, world, priors_of(rollout, beliefs), cfg)
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
