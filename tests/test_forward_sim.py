import numpy as np
import pytest

from mergegame.actions import (
    DecisionSequence,
    EgoDecision,
    GapChoice,
    LateralDecision,
    SvAction,
    build_action_tuples,
)
from mergegame.control import IdmSettings
from mergegame.dynamics import VehicleParams, rect_overlap_arrays, step_bicycle
from mergegame.forward_sim import (
    PlannerModel,
    SimConfig,
    _influence_set,
    active_decision_index,
    simulate_batch,
    simulate_tuple,
)
from mergegame.costs import Belief
from mergegame.planner import plan_cycle
from mergegame.scenario import default_merge_scenario, packed_lane_scenario
from mergegame.world import interaction_partner
from mergegame.world import LaneGeometry, WorldSnapshot

G0, G1, G2 = GapChoice.GAP_0, GapChoice.GAP_1, GapChoice.GAP_2
LK, LC, LP = LateralDecision.LANE_KEEP, LateralDecision.LEFT_CHANGE, LateralDecision.LEFT_PROBE

CFG = SimConfig()
MODEL = PlannerModel()


def const_seq(gap, lat, h=5):
    return DecisionSequence((EgoDecision(gap, lat),) * h)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(steps=25, dt=0.2, horizon=5, decision_period=0.7)
    with pytest.raises(ValueError):
        SimConfig(steps=20, dt=0.2, horizon=5, decision_period=1.0)
    assert CFG.substeps == 5


def test_active_decision_index():
    for t in range(CFG.steps):
        assert active_decision_index(t, CFG) == t // 5
    assert active_decision_index(CFG.steps, CFG) == CFG.horizon - 1
    consumed = {active_decision_index(t, CFG) for t in range(CFG.steps)}
    assert consumed == set(range(CFG.horizon))


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
    ts = simulate_tuple(world, (SvAction.ASSERT, const_seq(G0, LK)), CFG, MODEL)
    speeds = ts.states[:, :, 3]
    assert np.allclose(speeds, 8.0, atol=1e-9)
    assert np.allclose(ts.states[:, :, 1], ts.states[:, [0], 1], atol=1e-12)
    assert np.allclose(ts.inputs[:, :, 0], 0.0, atol=1e-9)
    # positions advance linearly at 8 m/s
    x = ts.states[0, :, 0]
    assert np.allclose(np.diff(x), 8.0 * CFG.dt, atol=1e-9)


def test_rollouts_deterministic():
    world = default_merge_scenario(5.0).initial_world()
    tuples = build_action_tuples([const_seq(G2, LC), const_seq(G0, LK)],
                                 [SvAction.ASSERT, SvAction.YIELD])
    a = simulate_batch(world, tuples, CFG, MODEL)
    b = simulate_batch(world, tuples, CFG, MODEL)
    assert a.states.tobytes() == b.states.tobytes()
    assert a.inputs.tobytes() == b.inputs.tobytes()


def test_batch_matches_single_tuple_sim():
    world = default_merge_scenario(5.0).initial_world()
    tuples = build_action_tuples(
        [const_seq(G2, LC), const_seq(G1, LP), const_seq(G0, LK)],
        [SvAction.ASSERT, SvAction.YIELD])
    batch = simulate_batch(world, tuples, CFG, MODEL)
    for k, action in enumerate(tuples):
        single = simulate_tuple(world, action, CFG, MODEL)
        assert np.array_equal(single.states, batch.states[k])
        assert np.array_equal(single.inputs, batch.inputs[k])


def test_replay_consistency():
    world = default_merge_scenario(5.0).initial_world()
    ts = simulate_tuple(world, (SvAction.YIELD, const_seq(G2, LC)), CFG, MODEL)
    for i in range(len(ts.vehicle_ids)):
        state = ts.states[i, 0]
        for t in range(ts.n_steps):
            a, delta = ts.inputs[i, t]
            state = np.array(step_bicycle(*state, a, delta, CFG.dt, world.params[i].wheelbase))
            assert np.array_equal(state, ts.states[i, t + 1])


def test_surrounding_vehicles_stay_in_lane():
    world = default_merge_scenario(10.0).initial_world()
    ts = simulate_tuple(world, (SvAction.YIELD, const_seq(G2, LC)), CFG, MODEL)
    e = world.ego_index
    for i in range(world.n_vehicles):
        if i == e:
            continue
        assert np.all(ts.states[i, :, 1] == ts.states[i, 0, 1])
        assert np.all(ts.states[i, :, 2] == 0.0)
        assert np.all(ts.inputs[i, :, 1] == 0.0)


def test_yield_opens_larger_gap_than_assert():
    world = default_merge_scenario(5.0).initial_world()
    seq = const_seq(G2, LC)
    gaps = world.resolve_gaps()
    partner = gaps[G2].rear_id
    front = gaps[G2].front_id
    out = {}
    for sv in (SvAction.ASSERT, SvAction.YIELD):
        ts = simulate_tuple(world, (sv, seq), CFG, MODEL)
        out[sv] = ts.states[world.index_of(front), -1, 0] - ts.states[world.index_of(partner), -1, 0]
    assert out[SvAction.YIELD] > out[SvAction.ASSERT]


def test_sv_action_only_touches_partner_directly():
    world = default_merge_scenario(5.0).initial_world()
    seq = const_seq(G2, LC)
    a = simulate_tuple(world, (SvAction.ASSERT, seq), CFG, MODEL)
    y = simulate_tuple(world, (SvAction.YIELD, seq), CFG, MODEL)
    assert a.partner_id == y.partner_id == world.resolve_gaps()[G2].rear_id
    # vehicles upstream of the partner never feel the action switch
    for vid in ("sv0", "sv1"):
        i = world.index_of(vid)
        assert np.array_equal(a.inputs[i], y.inputs[i])


def test_partner_resolution_per_tuple():
    world = default_merge_scenario(5.0).initial_world()
    gaps = world.resolve_gaps()
    tuples = build_action_tuples([const_seq(G0, LK), const_seq(G1, LC), const_seq(G2, LC)],
                                 [SvAction.ASSERT])
    batch = simulate_batch(world, tuples, CFG, MODEL)
    assert batch.partner_ids == (None, gaps[G1].rear_id, gaps[G2].rear_id)


def test_feasibility_flag():
    rows = [("ego", 0.0, 0.0, 8.0), ("sv", 2.0, 0.0, 2.0)]  # starts overlapped
    world = WorldSnapshot(ids=("ego", "sv"),
                          states=np.array([[0.0, 0.0, 0.0, 8.0], [2.0, 0.0, 0.0, 2.0]]),
                          params=(VehicleParams(), VehicleParams()),
                          v_des=np.array([10.0, 2.0]), lanes=LaneGeometry(), ego_index=0)
    ts = simulate_tuple(world, (SvAction.ASSERT, const_seq(G0, LK)), CFG, MODEL)
    assert not ts.feasible
    clear = equilibrium_world()
    ts2 = simulate_tuple(clear, (SvAction.ASSERT, const_seq(G0, LK)), CFG, MODEL)
    assert ts2.feasible


def test_wrong_horizon_rejected():
    world = default_merge_scenario(5.0).initial_world()
    with pytest.raises(ValueError):
        simulate_tuple(world, (SvAction.ASSERT, const_seq(G0, LK, h=3)), CFG, MODEL)


# --- vehicles shared by every rollout -----------------------------------------------

def planner_rollout(cfg):
    """The rollout of the planner's first cycle: every tuple from the root 0LK."""
    beliefs = {vid: Belief.uniform() for vid in cfg.sv_ids}
    return plan_cycle(cfg.initial_world(), beliefs, cfg, EgoDecision(G0, LK)).rollout


def shared_ids(world, tuples):
    gaps = world.resolve_gaps()
    partners = np.array([world.index_of(p) if p is not None else -1
                         for p in (interaction_partner(seq, gaps) for _, seq in tuples)])
    shared = ~_influence_set(world.leader_indices(), world.ego_index, partners)
    return {world.ids[i] for i in np.flatnonzero(shared)}, partners


def test_packed_shared_set_is_the_stream_ahead_of_the_gap():
    cfg = packed_lane_scenario(6.0)
    world = cfg.initial_world()
    shared, partners = shared_ids(world, planner_rollout(cfg).tuples)
    gap1_partner = world.resolve_gaps()[G1].partner_id
    x = world.states[:, 0]
    ahead = {vid for i, vid in enumerate(world.ids)
             if vid.startswith("pack") and x[i] > x[world.index_of(gap1_partner)]}
    assert shared == {"sv0"} | ahead
    assert world.ego_id not in shared
    assert not shared & {world.ids[p] for p in partners if p >= 0}


def test_default_merge_shared_set_is_the_truck():
    cfg = default_merge_scenario(5.0)
    shared, _ = shared_ids(cfg.initial_world(), planner_rollout(cfg).tuples)
    assert shared == {"sv0"}


def test_packed_batch_rows_match_single_tuple_sim():
    cfg = packed_lane_scenario(6.0)
    world = cfg.initial_world()
    batch = planner_rollout(cfg)
    samples = [(SvAction.ASSERT, const_seq(G0, LK)), (SvAction.ASSERT, const_seq(G1, LP))]
    samples += [(sv, const_seq(gap, LC)) for gap in (G1, G2)
                for sv in (SvAction.ASSERT, SvAction.YIELD)]
    for action in samples:
        k = batch.tuples.index(action)
        single = simulate_tuple(world, action, cfg.sim, cfg.planner_model())
        assert np.array_equal(single.states, batch.states[k])
        assert np.array_equal(single.inputs, batch.inputs[k])


def reference_no_overlap_flags(states, lengths, widths):
    """Every vehicle pair on every row: the overlap check before culling."""
    K, V = states.shape[:2]
    radius = 0.5 * np.hypot(lengths, widths)
    collided = np.zeros(K, dtype=bool)
    for i in range(V):
        for j in range(i + 1, V):
            dx = states[:, i, :, 0] - states[:, j, :, 0]
            dy = states[:, i, :, 1] - states[:, j, :, 1]
            ks, ts = np.nonzero(dx * dx + dy * dy <= (radius[i] + radius[j]) ** 2)
            hit = rect_overlap_arrays(
                states[ks, i, ts, 0], states[ks, i, ts, 1], states[ks, i, ts, 2],
                0.5 * lengths[i], 0.5 * widths[i],
                states[ks, j, ts, 0], states[ks, j, ts, 1], states[ks, j, ts, 2],
                0.5 * lengths[j], 0.5 * widths[j],
            )
            collided[ks[hit]] = True
    return ~collided


@pytest.mark.parametrize("scenario", ["packed", "merge10"])
def test_feasibility_flags_match_reference(scenario):
    cfg = packed_lane_scenario(6.0) if scenario == "packed" else default_merge_scenario(10.0)
    batch = planner_rollout(cfg)
    flags = batch.feasible
    assert np.array_equal(flags, reference_no_overlap_flags(batch.states, batch.lengths,
                                                            batch.widths))
    if scenario == "packed":
        assert not flags.any()   # the pack's bumpers touch in every rollout
    else:
        assert flags.any() and not flags.all()
