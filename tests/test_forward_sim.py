from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mergegame.actions import (
    ALL_EGO_DECISIONS,
    DecisionSequence,
    EgoDecision,
    GapChoice,
    LateralDecision,
    SvAction,
    enumerate_ego_sequences,
)
from mergegame import closed_loop, forward_sim
from mergegame.closed_loop import run_episode
from mergegame.control import lateral_discount, pure_pursuit, virtual_gap_distance
from mergegame.dynamics import VehicleParams, step_bicycle
from mergegame.forward_sim import (
    PlannerModel,
    SimConfig,
    _group_codes,
    simulate_batch,
)
from mergegame.costs import CostWeights, _pair_band_penalties
from mergegame.planner import plan_cycle
from mergegame.scenario import default_merge_scenario, packed_lane_scenario
from mergegame.world import LaneGeometry, WorldSnapshot

from helpers import (HAND_WORLDS, SCENARIOS, gap_ids, mid_episode, planner_rollout, rosters,
                     scenario_times, scenario_world, tuple_arrays)
from reference import reference_simulate_batch, seq_partners

G0, G1, G2 = GapChoice.GAP_0, GapChoice.GAP_1, GapChoice.GAP_2
LK, LC, LP = LateralDecision.LANE_KEEP, LateralDecision.LEFT_CHANGE, LateralDecision.LEFT_PROBE

CFG = SimConfig()
MODEL = PlannerModel()


def const_seq(gap, lat, h=5):
    return DecisionSequence((EgoDecision(gap, lat),) * h)


def rollout_alone(world, action, cfg=CFG, model=MODEL):
    """The states (V, T+1, 4) and inputs (V, T, 2) of one (group action,
    sequence) tuple: the batch of its sequence alone holds it at k = group
    action."""
    sv, seq = action
    states, inputs = tuple_arrays(simulate_batch(world, [seq], cfg, model))
    return states[sv], inputs[sv]


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.2, horizon=5, decision_period=0.7)
    # an infinite period used to raise OverflowError from round()
    with pytest.raises(ValueError, match="sim decision_period must be a finite number, got inf"):
        SimConfig(decision_period=float("inf"))
    assert CFG.substeps == 5


def equilibrium_world():
    """Every vehicle at an exact equilibrium of its controller."""
    idm = MODEL.idm
    v = 8.0
    s_star = idm.s0 + v * idm.time_headway
    d_eq = s_star / np.sqrt(1.0 - (v / 10.0) ** 4)
    truck_x = 40.0
    rows = [
        ("ego", truck_x - MODEL.follow_distance, 0.0, v),
        ("truck", truck_x, 0.0, v),           # free road, cruising at its v_des
        ("lead", 60.0, 3.5, v),               # free road on the target lane
        ("tail", 60.0 - d_eq, 3.5, v),        # exactly at IDM equilibrium spacing
    ]
    ids = tuple(r[0] for r in rows)
    states = np.array([[r[1], r[2], 0.0, r[3]] for r in rows])
    v_des = np.array([8.0, 8.0, 8.0, 10.0])
    return WorldSnapshot(ids=ids, states=states,
                         params=tuple(VehicleParams() for _ in rows),
                         v_des=v_des, lanes=LaneGeometry(), ego_index=0)


def test_equilibrium_rollout_is_steady():
    world = equilibrium_world()
    states, inputs = rollout_alone(world, (SvAction.ASSERT, const_seq(G0, LK)))
    speeds = states[:, :, 3]
    assert np.allclose(speeds, 8.0, atol=1e-9)
    assert np.allclose(states[:, :, 1], states[:, [0], 1], atol=1e-12)
    assert np.allclose(inputs[:, :, 0], 0.0, atol=1e-9)
    # positions advance linearly at 8 m/s
    x = states[0, :, 0]
    assert np.allclose(np.diff(x), 8.0 * CFG.dt, atol=1e-9)


def test_rollouts_deterministic():
    world = default_merge_scenario(5.0).initial_world()
    seqs = [const_seq(G2, LC), const_seq(G0, LK)]
    a = tuple_arrays(simulate_batch(world, seqs, CFG, MODEL))
    b = tuple_arrays(simulate_batch(world, seqs, CFG, MODEL))
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1].tobytes() == b[1].tobytes()


def test_batch_matches_single_tuple_sim():
    world = default_merge_scenario(5.0).initial_world()
    seqs = [const_seq(G2, LC), const_seq(G1, LP), const_seq(G0, LK)]
    batch = simulate_batch(world, seqs, CFG, MODEL)
    assert batch.cols == tuple(seqs)
    states, inputs = tuple_arrays(batch)
    for k, action in enumerate((sv, seq) for sv in SvAction for seq in seqs):
        alone_states, alone_inputs = rollout_alone(world, action)
        assert np.array_equal(alone_states, states[k])
        assert np.array_equal(alone_inputs, inputs[k])


def test_replay_consistency():
    world = default_merge_scenario(5.0).initial_world()
    states, inputs = rollout_alone(world, (SvAction.YIELD, const_seq(G2, LC)))
    for i in range(world.n_vehicles):
        state = states[i, 0]
        for t in range(CFG.horizon * CFG.substeps):
            a, delta = inputs[i, t]
            state = np.array(step_bicycle(*state, a, delta, CFG.dt, world.params[i].wheelbase))
            assert np.array_equal(state, states[i, t + 1])


def test_surrounding_vehicles_stay_in_lane():
    world = default_merge_scenario(10.0).initial_world()
    states, inputs = rollout_alone(world, (SvAction.YIELD, const_seq(G2, LC)))
    e = world.ego_index
    for i in range(world.n_vehicles):
        if i == e:
            continue
        assert np.all(states[i, :, 1] == states[i, 0, 1])
        assert np.all(states[i, :, 2] == 0.0)
        assert np.all(inputs[i, :, 1] == 0.0)


def test_yield_opens_larger_gap_than_assert():
    world = default_merge_scenario(5.0).initial_world()
    seq = const_seq(G2, LC)
    front, partner = gap_ids(world)[G2]
    states, _ = tuple_arrays(simulate_batch(world, [seq], CFG, MODEL))
    gap = states[:, world.index_of(front), -1, 0] - states[:, world.index_of(partner), -1, 0]
    assert gap[SvAction.YIELD] > gap[SvAction.ASSERT]


def test_sv_action_only_touches_partner_directly():
    world = default_merge_scenario(5.0).initial_world()
    batch = simulate_batch(world, [const_seq(G2, LC)], CFG, MODEL)
    assert batch.partner_ids == (gap_ids(world)[G2][1],) * 2
    # vehicles upstream of the partner never feel the action switch
    _, inputs = tuple_arrays(batch)
    for vid in ("sv0", "sv1"):
        i = world.index_of(vid)
        assert np.array_equal(inputs[SvAction.ASSERT, i], inputs[SvAction.YIELD, i])


def test_partner_resolution_per_tuple():
    world = default_merge_scenario(5.0).initial_world()
    gaps = gap_ids(world)
    seqs = [const_seq(G0, LK), const_seq(G1, LC), const_seq(G2, LC)]
    batch = simulate_batch(world, seqs, CFG, MODEL)
    # both group actions of each sequence share its partner
    assert batch.partner_ids == (None, gaps[G1][1], gaps[G2][1]) * 2


def ego_safety_cost(world, rollout):
    penalties = _pair_band_penalties(rollout.traj_states, rollout.rows, rollout.block_start,
                                     rollout.period_rows, world.half_len, world.half_wid,
                                     CostWeights())
    return penalties[:, world.ego_index]


def test_collision_scored_by_safety_cost():
    # a collision does not abort a rollout; the safety cost is its only record
    world = WorldSnapshot(ids=("ego", "sv"),   # starts overlapped
                          states=np.array([[0.0, 0.0, 0.0, 8.0], [2.0, 0.0, 0.0, 2.0]]),
                          params=(VehicleParams(), VehicleParams()),
                          v_des=np.array([10.0, 2.0]), lanes=LaneGeometry(), ego_index=0)
    ts = simulate_batch(world, [const_seq(G0, LK)], CFG, MODEL)
    assert tuple_arrays(ts)[0].shape == (2, 2, CFG.horizon * CFG.substeps + 1, 4)
    assert (ego_safety_cost(world, ts) >= CostWeights().w_saf1).all()
    clear = equilibrium_world()
    ts2 = simulate_batch(clear, [const_seq(G0, LK)], CFG, MODEL)
    assert (ego_safety_cost(clear, ts2) == 0.0).all()


def test_wrong_horizon_rejected():
    world = default_merge_scenario(5.0).initial_world()
    with pytest.raises(ValueError):
        rollout_alone(world, (SvAction.ASSERT, const_seq(G0, LK, h=3)))
    with pytest.raises(ValueError):
        simulate_batch(world, [const_seq(G0, LK), const_seq(G0, LK, h=4)], CFG, MODEL)
    with pytest.raises(ValueError, match="at least one"):
        simulate_batch(world, [], CFG, MODEL)


def test_too_many_vehicle_states_rejected():
    # K * V bounds the states of one substep, and with them the packed keys:
    # 2 ** 17 sequences are K = 2 ** 18 tuples of 4 vehicles
    with pytest.raises(ValueError, match="vehicle states"):
        simulate_batch(equilibrium_world(), [const_seq(G0, LK)] * 2 ** 17, CFG, MODEL)


# --- vehicles shared by every rollout -----------------------------------------------

def _influence_set(leader_idx, ego, partner_idx) -> np.ndarray:
    """Vehicles whose trajectory can differ between the rollouts of one cycle.

    The ego, every interaction partner, and every vehicle whose leader is in
    the set: a fixed point reached within V rounds. Any other vehicle always
    takes kappa_assert, never has the ego as a leader, and follows only
    vehicles outside the set, so it moves identically in every rollout.
    """
    influenced = np.zeros(len(leader_idx), dtype=bool)
    influenced[ego] = True
    influenced[partner_idx[partner_idx >= 0]] = True
    has_leader = leader_idx >= 0
    for _ in range(len(leader_idx)):
        grown = influenced | (has_leader & influenced[leader_idx])
        if np.array_equal(grown, influenced):
            break
        influenced = grown
    return influenced


def shared_ids(world, seqs):
    partners = seq_partners(world.resolve_gaps(world.leader_indices()), seqs)
    shared = ~_influence_set(world.leader_indices(), world.ego_index, partners)
    return {world.ids[i] for i in np.flatnonzero(shared)}, partners


def test_packed_shared_set_is_the_stream_ahead_of_the_gap():
    cfg = packed_lane_scenario(6.0)
    world = cfg.initial_world()
    shared, partners = shared_ids(world, planner_rollout(cfg).cols)
    gap1_partner = gap_ids(world)[G1][1]
    x = world.states[:, 0]
    ahead = {vid for i, vid in enumerate(world.ids)
             if vid.startswith("pack") and x[i] > x[world.index_of(gap1_partner)]}
    assert shared == {"sv0"} | ahead
    assert world.ids[world.ego_index] not in shared
    assert not shared & {world.ids[p] for p in partners if p >= 0}


def test_default_merge_shared_set_is_the_truck():
    cfg = default_merge_scenario(5.0)
    shared, _ = shared_ids(cfg.initial_world(), planner_rollout(cfg).cols)
    assert shared == {"sv0"}


def test_packed_batch_rows_match_single_tuple_sim():
    cfg = packed_lane_scenario(6.0)
    world = cfg.initial_world()
    batch = planner_rollout(cfg)
    states, inputs = tuple_arrays(batch)
    samples = [(SvAction.ASSERT, const_seq(G0, LK)), (SvAction.ASSERT, const_seq(G1, LP))]
    samples += [(sv, const_seq(gap, LC)) for gap in (G1, G2)
                for sv in (SvAction.ASSERT, SvAction.YIELD)]
    for sv, seq in samples:
        k = sv * len(batch.cols) + batch.cols.index(seq)
        alone_states, alone_inputs = rollout_alone(world, (sv, seq), cfg.sim, cfg.model)
        assert np.array_equal(alone_states, states[k])
        assert np.array_equal(alone_inputs, inputs[k])


@pytest.mark.parametrize("scenario", ["merge10", "packed"])
def test_planner_rollout_layout_is_group_action_major(scenario):
    # tuple k of the planner's rollout is (SvAction(k // M), cols[k % M]), and
    # the game's columns are the rollout's sequences
    cfg = SCENARIOS[scenario]()
    world = cfg.initial_world()
    res = plan_cycle(world, cfg.initial_beliefs(), cfg, EgoDecision(G0, LK))
    rollout = res.rollout
    M = len(rollout.cols)
    tuples = [(SvAction(k // M), rollout.cols[k % M]) for k in range(2 * M)]
    want = reference_simulate_batch(world, tuples, cfg.sim, cfg.model)
    states, inputs = tuple_arrays(rollout)
    assert np.array_equal(states, want.states)
    assert np.array_equal(inputs, want.inputs)
    assert rollout.partner_ids == want.partner_ids
    assert res.game.cols is rollout.cols


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=rosters(), cycles=st.integers(1, 3))
@example(cfg=SCENARIOS["merge10"](), cycles=0)
@example(cfg=SCENARIOS["packed"](), cycles=0)
def test_column_inputs_and_partners_read_the_table(cfg, cycles):
    # column_inputs(j, v)[r] is vehicle v's row of tuple r * M + j, and each
    # tuple's partner id names its column's partner index (-1: None)
    (world, beliefs, cfg, root), _ = mid_episode(cfg, cycles)
    rollout = plan_cycle(world, beliefs, cfg, root).rollout
    M, V = len(rollout.cols), world.n_vehicles
    r, j, v = np.ix_(range(2), range(M), range(V))
    want = rollout.traj_inputs[rollout.rows[r * M + j, v]]   # (2, M, V, T, 2)
    assert np.array_equal(rollout.column_inputs(j[0], v[0]), want)
    for col, veh in [(0, 0), (M - 1, V - 1), (M // 2, world.ego_index)]:
        assert np.array_equal(rollout.column_inputs(col, veh), want[:, col, veh])
    assert rollout.partners.shape == (M,) and set(rollout.partners) <= set(range(-1, V))
    assert rollout.partner_ids == tuple(world.ids[p] if p >= 0 else None
                                        for p in rollout.partners[np.arange(2 * M) % M])


# --- the tree rollout against the flat reference loop ---------------------------------

def assert_rollout_matches_reference(world, seqs, cfg, model):
    """simulate_batch of seqs against the reference loop over the explicit
    product of the group actions and seqs."""
    got = simulate_batch(world, seqs, cfg, model)
    want = reference_simulate_batch(world, [(a, s) for a in SvAction for s in seqs], cfg, model)
    states, inputs = tuple_arrays(got)
    assert np.array_equal(states, want.states)
    assert np.array_equal(inputs, want.inputs)
    assert got.partner_ids == want.partner_ids


def root_seqs(root, horizon=5):
    return enumerate_ego_sequences(root, 2, horizon)


def test_hand_worlds_reach_their_corner():
    ego_leads = HAND_WORLDS["ego-leads"]
    assert ego_leads.leader_indices()[ego_leads.index_of("tail")] == ego_leads.ego_index
    idm = MODEL.idm
    kappa = {beta: lateral_discount(beta, LaneGeometry().width)
             for beta in (idm.beta_assert, idm.beta_yield)}
    for name in ("off-line-leader", "partner-led-by-ego"):
        world = HAND_WORLDS[name]
        p = world.index_of("p")
        assert gap_ids(world)[G2][1] == "p"
        assert world.leader_indices()[p] == world.index_of("t0")
    off = HAND_WORLDS["off-line-leader"]
    dy = off.states[off.index_of("t0"), 1] - off.states[off.index_of("p"), 1]
    assert dy == pytest.approx(0.3)
    # the ego's virtual gap to "p" beats the leader's under one discount only
    world = HAND_WORLDS["partner-led-by-ego"]
    (xe, ye), (xp, yp), (xl, _) = (world.states[world.index_of(v), :2]
                                   for v in ("ego", "p", "t0"))
    d_ego = {b: virtual_gap_distance(xe, ye, xp, yp, k) for b, k in kappa.items()}
    assert xe >= xp
    assert d_ego[idm.beta_yield] < xl - xp < d_ego[idm.beta_assert]
    wheelbase = HAND_WORLDS["own-wheelbases"].wheelbase
    assert len(set(wheelbase)) == len(wheelbase)


@pytest.mark.parametrize("name", ["own-wheelbases", "packed"])
def test_snapshot_arrays_are_the_params(name):
    # the laws read these (V,) arrays by vehicle index in place of params
    world = HAND_WORLDS.get(name) or packed_lane_scenario().initial_world()
    arrays = (world.wheelbase, world.half_len, world.half_wid, world.a_max, world.delta_max)
    assert all(a.shape == (world.n_vehicles,) for a in arrays)
    for v, p in enumerate(world.params):
        assert (world.wheelbase[v], world.a_max[v], world.delta_max[v]) == \
            (p.wheelbase, p.a_max, p.delta_max)
        assert (world.half_len[v], world.half_wid[v]) == (p.length / 2, p.width / 2)


@pytest.mark.parametrize("name", sorted(HAND_WORLDS))
def test_tree_rollout_matches_reference_on_hand_made_worlds(name):
    for root in ALL_EGO_DECISIONS:
        assert_rollout_matches_reference(HAND_WORLDS[name], root_seqs(root), CFG, MODEL)


@pytest.mark.parametrize("scenario, when", scenario_times(*sorted(SCENARIOS)))
def test_tree_rollout_matches_reference_from_every_root(scenario, when):
    cfg = SCENARIOS[scenario]()
    world = scenario_world(scenario, when)
    for root in ALL_EGO_DECISIONS:
        assert_rollout_matches_reference(world, root_seqs(root), cfg.sim, cfg.model)


@pytest.mark.parametrize("scenario, when", scenario_times("merge5", "merge10", "packed"))
def test_planner_rollout_invariants(scenario, when):
    # on every row the planner scores, from every root: speeds stay >= 0, and
    # each surrounding vehicle keeps its lane and heading with zero steering
    cfg = SCENARIOS[scenario]()
    world = scenario_world(scenario, when)
    sv = np.arange(world.n_vehicles) != world.ego_index
    for root in ALL_EGO_DECISIONS:
        states, inputs = tuple_arrays(plan_cycle(world, cfg.initial_beliefs(), cfg, root).rollout)
        assert states[..., 3].min() >= 0.0
        for col in (1, 2):
            assert (states[:, sv][..., col] == world.states[sv, col][:, None]).all()
        assert not inputs[:, sv][..., 1].any()


@pytest.mark.parametrize("scenario, when", scenario_times("merge5", "merge10", "packed"))
def test_trajectory_table_is_exact_and_complete(scenario, when):
    # from every root: one table row per distinct vehicle trajectory, every row
    # used, each tuple's row of v inside v's block, one row per shared vehicle
    cfg = SCENARIOS[scenario]()
    world = scenario_world(scenario, when)
    for root in ALL_EGO_DECISIONS:
        rollout = plan_cycle(world, cfg.initial_beliefs(), cfg, root).rollout
        start, rows = rollout.block_start, rollout.rows
        n_rows = len(rollout.traj_states)
        assert rows.shape == (len(SvAction) * len(rollout.cols), world.n_vehicles)
        assert start[0] == 0 and start[-1] == n_rows == len(rollout.traj_inputs)
        assert np.array_equal(np.unique(rows), np.arange(n_rows))
        assert ((rows >= start[:-1]) & (rows < start[1:])).all()
        # every row is used and in its vehicle's block, so the bit-distinct
        # rows of a block are that vehicle's distinct (states, inputs) trajectories
        flat = np.concatenate([rollout.traj_states.reshape(n_rows, -1),
                               rollout.traj_inputs.reshape(n_rows, -1)], axis=1).view(np.uint64)
        per_vehicle = [len(np.unique(flat[a:b], axis=0)) for a, b in zip(start[:-1], start[1:])]
        assert np.array_equal(np.diff(start), per_vehicle)
        shared, _ = shared_ids(world, rollout.cols)
        assert all(per_vehicle[world.index_of(vid)] == 1 for vid in shared)
        assert_period_rows_name_segments(rollout, cfg.sim)


@pytest.mark.parametrize("scenario", ["merge5", "merge10", "packed"])
def test_table_rows_follow_the_tree(scenario):
    # from every root: rows sort by their segment of period 0, then of period
    # 1, and so on, so each vehicle's rows and each segment's rows are one run
    cfg = SCENARIOS[scenario]()
    world = scenario_world(scenario, "start")
    for root in ALL_EGO_DECISIONS:
        rollout = plan_cycle(world, cfg.initial_beliefs(), cfg, root).rollout
        assert (np.diff(rollout.period_rows, axis=0) >= 0).all(), root


def assert_period_rows_name_segments(rollout, sim):
    """Rows with equal period_rows[:, d] hold bit-equal states over period d
    (the last one through step T), and no two vehicles share a segment."""
    segments, states = rollout.period_rows, rollout.traj_states
    n_rows, S, H = len(states), sim.substeps, sim.horizon
    assert segments.shape == (n_rows, H)
    assert segments.min() >= 0 and segments.max() < n_rows
    vehicle = np.repeat(np.arange(len(rollout.block_start) - 1), np.diff(rollout.block_start))
    for d in range(H):
        t1 = H * S + 1 if d == H - 1 else (d + 1) * S
        bits = np.ascontiguousarray(states[:, d * S:t1]).view(np.uint64)
        _, first, inverse = np.unique(segments[:, d], return_index=True, return_inverse=True)
        assert np.array_equal(bits[first][inverse], bits)
        assert np.array_equal(vehicle[first][inverse], vehicle)


def assert_not_materialized(rollout):
    assert not {"states", "inputs"} & vars(rollout).keys()


@pytest.mark.parametrize("case", ["merge10", "merge10-info", "packed"])
def test_plan_cycle_builds_no_per_tuple_arrays(case):
    # the planner works on the trajectory table; the (K, V, ...) arrays are
    # built only when a reader asks for them, and then kept
    cfg = SCENARIOS[case.split("-")[0]]()
    if case.endswith("info"):
        cfg = replace(cfg, weights=replace(cfg.weights, w_info=20.0))
    world = cfg.initial_world()
    res = plan_cycle(world, cfg.initial_beliefs(), cfg, EgoDecision(G0, LK))
    res.rollout.column_inputs(res.col, world.ego_index)
    assert_not_materialized(res.rollout)
    assert res.rollout.states is res.rollout.states
    assert "states" in vars(res.rollout)


def test_closed_loop_builds_no_per_tuple_arrays(monkeypatch):
    results = []

    def keep(*args, **kwargs):
        results.append(plan_cycle(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(closed_loop, "plan_cycle", keep)
    cfg = SCENARIOS["merge10"]()
    cfg = replace(cfg, episode=replace(cfg.episode, max_cycles=3))
    run_episode(cfg)
    assert len(results) == 3
    for res in results:
        assert_not_materialized(res.rollout)


def byte_records(prev, *columns):
    """Keys as simulate_batch groups them at a period's end: record i holds
    the 8 bytes of prev[i], big-endian, then those of element i of each
    column (ints, or the bits of floats)."""
    keys = np.column_stack([np.asarray(prev).astype(">u8").view(np.uint64)]
                           + [np.asarray(c).view(np.uint64) for c in columns])
    return keys.view(np.dtype((np.void, keys.shape[1] * 8))).ravel()


def test_group_codes_groups_byte_records_by_bits():
    # 0.0 and -0.0 are different keys, and so are NaNs with different payload
    # bits; groups are numbered by the byte order of their records, which
    # ranks them by prev first (256 is 00 01 .. in little-endian bytes)
    nan_a, nan_b = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(float)
    prev = np.array([256, 256, 1, 256, 256, 1, 2, 2, 2])
    a = np.array([0.0, -0.0, 0.0, 0.0, 1.5, 0.0, nan_a, nan_b, nan_a])
    records = byte_records(prev, a, np.full(9, 2.0))
    first, group = _group_codes(records)
    raw = [r.tobytes() for r in records]
    distinct = sorted(set(raw))
    assert group.tolist() == [distinct.index(r) for r in raw]
    assert first.tolist() == [raw.index(r) for r in distinct]
    assert (np.diff(prev[first]) >= 0).all()
    by_first = dict.fromkeys(group.tolist())
    assert [list(by_first).index(g) for g in group.tolist()] == [0, 1, 2, 0, 3, 2, 4, 5, 4]


@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(-5, 40), min_size=1,
                max_size=200))
def test_group_codes_on_byte_records_partitions_like_ints(codes):
    # the same ints as 8-byte records group alike, though negative ones rank
    # after the others
    code = np.array(codes, dtype=np.int64)
    first, group = _group_codes(code)
    b_first, b_group = _group_codes(byte_records(code))
    assert np.array_equal(b_group, b_group[first][group])
    assert np.array_equal(np.sort(b_first), np.sort(first))


@pytest.mark.parametrize("scenario", ["merge10", "packed"])
def test_tree_rollout_matches_reference_on_small_tuple_sets(scenario):
    cfg = SCENARIOS[scenario]()
    world, model = cfg.initial_world(), cfg.model
    assert_rollout_matches_reference(world, [const_seq(G0, LK)], CFG, model)
    assert_rollout_matches_reference(world, [const_seq(G0, LK)] * 2, CFG, model)
    assert_rollout_matches_reference(world, [const_seq(G2, LP)], CFG, model)
    for h in (1, 6):
        sim = SimConfig(dt=0.2, horizon=h, decision_period=1.0)
        assert_rollout_matches_reference(world, root_seqs(EgoDecision(G0, LK), h), sim, model)


ROOT_SEQS = [root_seqs(root) for root in ALL_EGO_DECISIONS]
SEQ_POOL = [seq for seqs in ROOT_SEQS for seq in seqs]
POOL_WORLDS = ([scenario_world(*case) for case in scenario_times("merge5", "merge10", "packed")]
               + list(HAND_WORLDS.values()))


@settings(max_examples=40, deadline=None)
@given(world=st.sampled_from(POOL_WORLDS), root=st.integers(0, len(ROOT_SEQS) - 1),
       picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=30),
       strays=st.lists(st.integers(0, len(SEQ_POOL) - 1), max_size=5), data=st.data())
def test_tree_rollout_matches_reference_on_any_tuple_list(world, root, picks, strays, data):
    # sequences of one root share long prefixes; strays from any root add
    # equal sequences that are distinct objects; any order, repeats included
    own = ROOT_SEQS[root]
    seqs = [own[k % len(own)] for k in picks] + [SEQ_POOL[k] for k in strays]
    assert_rollout_matches_reference(world, data.draw(st.permutations(seqs)), CFG, MODEL)


@given(st.lists(st.integers(-5, 40), min_size=1, max_size=200))
def test_group_codes_matches_unique(codes):
    code = np.array(codes)
    first, group = _group_codes(code)
    values, first_at, inverse = np.unique(code, return_index=True, return_inverse=True)
    assert np.array_equal(group, inverse)
    assert np.array_equal(first, first_at)


def ego_widths(monkeypatch, cfg, seqs):
    """The ego's entries in each substep of simulate_batch on cfg's initial world."""
    widths = []

    def counting_pursuit(y, *args):
        widths.append(len(y))
        return pure_pursuit(y, *args)

    monkeypatch.setattr(forward_sim, "pure_pursuit", counting_pursuit)
    simulate_batch(cfg.initial_world(), seqs, cfg.sim, cfg.model)
    return widths


def test_tree_shares_each_prefix_once(monkeypatch):
    # from the root 0LK the search tree has 30 / 122 / 282 / 510 / 742
    # (group action, partner, decision prefix) nodes in periods 0..4; columns
    # whose vehicles start a period in the same rows, under the same group
    # action and partner, merge when they take the same decision, and the ego
    # gets one entry per column in each substep. At 10 m/s the keep-lane
    # governor binds, so 0LK and 1LK reach the same states
    for speed, per_period in [(5.0, (30, 122, 282, 486, 638)), (10.0, (30, 70, 134, 230, 314))]:
        cfg = default_merge_scenario(speed)
        widths = ego_widths(monkeypatch, cfg, root_seqs(EgoDecision(G0, LK)))
        assert widths == [w for w in per_period for _ in range(cfg.sim.substeps)]


def test_columns_that_reach_the_same_state_merge(monkeypatch):
    # 0LK then 1LK steps the same states as 1LK throughout on the 10 m/s
    # merge, so after period 0 the two columns of each group action are one
    cfg = default_merge_scenario(10.0)
    seqs = [DecisionSequence((EgoDecision(first, LK),) + (EgoDecision(G1, LK),) * 4)
            for first in (G0, G1)]
    widths = ego_widths(monkeypatch, cfg, seqs)
    assert widths == [w for w in (4, 2, 2, 2, 2) for _ in range(cfg.sim.substeps)]
    monkeypatch.undo()
    assert_rollout_matches_reference(cfg.initial_world(), seqs, cfg.sim, cfg.model)


def test_packed_cycle_steps_each_vehicle_state_once(monkeypatch):
    # one step_bicycle call per substep. The first packed cycle steps 11,474
    # vehicle entries; stepping every influenced vehicle in every column took 93,380
    cfg = packed_lane_scenario(6.0)
    sizes = []

    def counting_step(x, *args):
        sizes.append(x.size)
        return step_bicycle(x, *args)

    monkeypatch.setattr(forward_sim, "step_bicycle", counting_step)
    planner_rollout(cfg)
    assert len(sizes) == cfg.sim.horizon * cfg.sim.substeps
    assert sum(sizes) < 20_000
