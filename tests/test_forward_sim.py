from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
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
from mergegame.control import (IdmSettings, gap_reference, idm_accel, lateral_discount,
                               pd_longitudinal, pure_pursuit, virtual_gap_distance)
from mergegame.dynamics import VehicleParams, step_bicycle
from mergegame.forward_sim import (
    PlannerModel,
    SimConfig,
    _group_codes,
    simulate_batch,
)
from mergegame.costs import CostWeights, _pair_band_penalties
from mergegame.planner import plan_cycle
from mergegame.scenario import default_merge_scenario, empty_lane_scenario, packed_lane_scenario
from mergegame.world import LaneGeometry, WorldSnapshot

from gap_table import gap_ids
from helpers import end_world, mid_episode_world, planner_rollout

G0, G1, G2 = GapChoice.GAP_0, GapChoice.GAP_1, GapChoice.GAP_2
LK, LC, LP = LateralDecision.LANE_KEEP, LateralDecision.LEFT_CHANGE, LateralDecision.LEFT_PROBE

CFG = SimConfig()
MODEL = PlannerModel()


def const_seq(gap, lat, h=5):
    return DecisionSequence((EgoDecision(gap, lat),) * h)


def simulate_one(world, action, cfg=CFG, model=MODEL):
    """The rollout of one (group action, sequence) tuple, as (1, V, ...)
    arrays: the batch of its sequence alone holds it at k = group action."""
    sv, seq = action
    batch = simulate_batch(world, [seq], cfg, model)
    k = slice(int(sv), int(sv) + 1)
    return FlatRollout(batch.states[k], batch.inputs[k], batch.partner_ids[k])


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
    ts = simulate_one(world, (SvAction.ASSERT, const_seq(G0, LK)))
    states, inputs = ts.states[0], ts.inputs[0]
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
    a = simulate_batch(world, seqs, CFG, MODEL)
    b = simulate_batch(world, seqs, CFG, MODEL)
    assert a.states.tobytes() == b.states.tobytes()
    assert a.inputs.tobytes() == b.inputs.tobytes()


def test_batch_matches_single_tuple_sim():
    world = default_merge_scenario(5.0).initial_world()
    seqs = [const_seq(G2, LC), const_seq(G1, LP), const_seq(G0, LK)]
    batch = simulate_batch(world, seqs, CFG, MODEL)
    assert batch.cols == tuple(seqs)
    for k, action in enumerate((sv, seq) for sv in SvAction for seq in seqs):
        single = simulate_one(world, action)
        assert np.array_equal(single.states[0], batch.states[k])
        assert np.array_equal(single.inputs[0], batch.inputs[k])


def test_replay_consistency():
    world = default_merge_scenario(5.0).initial_world()
    ts = simulate_one(world, (SvAction.YIELD, const_seq(G2, LC)))
    states, inputs = ts.states[0], ts.inputs[0]
    for i in range(world.n_vehicles):
        state = states[i, 0]
        for t in range(CFG.horizon * CFG.substeps):
            a, delta = inputs[i, t]
            state = np.array(step_bicycle(*state, a, delta, CFG.dt, world.params[i].wheelbase))
            assert np.array_equal(state, states[i, t + 1])


def test_surrounding_vehicles_stay_in_lane():
    world = default_merge_scenario(10.0).initial_world()
    ts = simulate_one(world, (SvAction.YIELD, const_seq(G2, LC)))
    states, inputs = ts.states[0], ts.inputs[0]
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
    states = simulate_batch(world, [seq], CFG, MODEL).states
    gap = states[:, world.index_of(front), -1, 0] - states[:, world.index_of(partner), -1, 0]
    assert gap[SvAction.YIELD] > gap[SvAction.ASSERT]


def test_sv_action_only_touches_partner_directly():
    world = default_merge_scenario(5.0).initial_world()
    batch = simulate_batch(world, [const_seq(G2, LC)], CFG, MODEL)
    assert batch.partner_ids == (gap_ids(world)[G2][1],) * 2
    # vehicles upstream of the partner never feel the action switch
    for vid in ("sv0", "sv1"):
        i = world.index_of(vid)
        assert np.array_equal(batch.inputs[SvAction.ASSERT, i], batch.inputs[SvAction.YIELD, i])


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
    assert ts.states.shape == (2, 2, CFG.horizon * CFG.substeps + 1, 4)
    assert (ego_safety_cost(world, ts) >= CostWeights().w_saf1).all()
    clear = equilibrium_world()
    ts2 = simulate_batch(clear, [const_seq(G0, LK)], CFG, MODEL)
    assert (ego_safety_cost(clear, ts2) == 0.0).all()


def test_wrong_horizon_rejected():
    world = default_merge_scenario(5.0).initial_world()
    with pytest.raises(ValueError):
        simulate_one(world, (SvAction.ASSERT, const_seq(G0, LK, h=3)))
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

def seq_partners(gaps, seqs):
    """Each sequence's interaction partner, as a vehicle index: the rear
    bound of its partner gap in the gap table gaps, -1 where it has none."""
    return np.array([-1 if seq.partner_gap is None else gaps[seq.partner_gap, 1]
                     for seq in seqs], dtype=np.intp)


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
    samples = [(SvAction.ASSERT, const_seq(G0, LK)), (SvAction.ASSERT, const_seq(G1, LP))]
    samples += [(sv, const_seq(gap, LC)) for gap in (G1, G2)
                for sv in (SvAction.ASSERT, SvAction.YIELD)]
    for sv, seq in samples:
        k = batch.tuple_index(sv, batch.cols.index(seq))
        single = simulate_one(world, (sv, seq), cfg.sim, cfg.model)
        assert np.array_equal(single.states[0], batch.states[k])
        assert np.array_equal(single.inputs[0], batch.inputs[k])


@pytest.mark.parametrize("scenario", ["merge10", "packed"])
def test_planner_rollout_layout_is_group_action_major(scenario):
    # tuple k of the planner's rollout is (SvAction(k // M), cols[k % M]), and
    # the game's columns are the rollout's sequences
    cfg = SCENARIOS[scenario]()
    world = cfg.initial_world()
    res = plan_cycle(world, cfg.initial_beliefs(), cfg, EgoDecision(G0, LK))
    rollout = res.rollout
    M = len(rollout.cols)
    k = np.arange(2 * M)
    assert np.array_equal(rollout.tuple_index(k // M, k % M), k)
    tuples = [(SvAction(j // M), rollout.cols[j % M]) for j in k]
    want = reference_simulate_batch(world, tuples, cfg.sim, cfg.model)
    assert np.array_equal(rollout.states, want.states)
    assert np.array_equal(rollout.inputs, want.inputs)
    assert rollout.partner_ids == want.partner_ids
    assert res.game.cols is rollout.cols


# --- the tree rollout against the flat reference loop ---------------------------------

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


def _idm_block(X, Y, TH, VS, rows, lead, kappa, ego_watch, v_des, a_max, idm: IdmSettings):
    """Modified-IDM accelerations of the surrounding vehicles in row slice rows.

    X, Y, TH, VS (V, R) hold R rollouts of every vehicle, the ego in row 0.
    lead (n,) is each vehicle's leader row (-1 for none) and kappa its lateral
    discount, a scalar or (n, R); v_des and a_max are (n, 1). Where ego_watch
    holds and the ego is level or ahead, the ego is a second, virtual leader,
    and the nearer of the two governs. The law itself is control.idm_accel.
    """
    x, y, v = X[rows], Y[rows], VS[rows]
    has_phys = (lead >= 0)[:, None]
    li = np.where(lead >= 0, lead, 0)
    d_phys = np.where(has_phys, virtual_gap_distance(X[li], Y[li], x, y, kappa), np.inf)
    v_phys = np.where(has_phys, VS[li], 0.0)
    d_ego = virtual_gap_distance(X[:1], Y[:1], x, y, kappa)
    use_ego = ego_watch & (X[:1] >= x) & (d_ego < d_phys)
    d_lead = np.where(use_ego, d_ego, d_phys)
    v_lead = np.where(use_ego, VS[:1] * np.cos(TH[:1]), v_phys)
    has_lead = has_phys | use_ego
    return idm_accel(v, v_lead, d_lead, has_lead, v_des, idm, a_max)


@dataclass
class FlatRollout:
    states: np.ndarray   # (K, V, T+1, 4)
    inputs: np.ndarray   # (K, V, T, 2)
    partner_ids: tuple


def reference_simulate_batch(world, tuples, cfg, model):
    """The flat rollout loop: every tuple stepped over the whole horizon, one
    row each, with no prefix shared between tuples."""
    tuples = list(tuples)
    if not tuples:
        raise ValueError("need at least one action tuple")
    K, V, T = len(tuples), world.n_vehicles, cfg.horizon * cfg.substeps
    e = world.ego_index
    for _, seq in tuples:
        if len(seq) != cfg.horizon:
            raise ValueError("decision sequence length must equal the decision horizon")

    leader_idx = world.leader_indices(include_ego=True)
    gaps = world.resolve_gaps(leader_idx)
    partner_idx = seq_partners(gaps, [seq for _, seq in tuples])
    partner_ids = tuple(world.ids[p] if p >= 0 else None for p in partner_idx)
    sv_is_yield = np.array([sv == SvAction.YIELD for sv, _ in tuples])

    gap_seq = np.array([[int(s.gap) for s in seq] for _, seq in tuples])       # (K, H)
    lat_seq = np.array([[int(s.lateral) for s in seq] for _, seq in tuples])   # (K, H)

    wheelbase, a_max, delta_max = world.wheelbase, world.a_max, world.delta_max
    lanes = world.lanes
    w_lane = lanes.width
    idm = model.idm
    kappa_assert = lateral_discount(idm.beta_assert, w_lane)
    kappa_yield = lateral_discount(idm.beta_yield, w_lane)

    # working rows, one per vehicle: [ego | other influenced vehicles | shared
    # vehicles], so that each block is a slice; each row holds the K rollouts
    influenced = _influence_set(leader_idx, e, partner_idx)
    order = np.concatenate(([e], np.flatnonzero(influenced & (np.arange(V) != e)),
                            np.flatnonzero(~influenced)))
    n_inf = int(influenced.sum())
    row_of = np.empty(V + 1, dtype=int)  # vehicle index -> working row; the extra -1 keeps "none"
    row_of[order] = np.arange(V)
    row_of[-1] = -1

    # gap bounds and leader chain resolved once per cycle; positions stay live
    front_by_gap, rear_by_gap = row_of[gaps.T]
    lead = row_of[leader_idx[order]]
    lead_cur = lead[0]
    wb, a_lim, v_des = wheelbase[order, None], a_max[order, None], world.v_des[order, None]

    ego_lane_center = lanes.nearest_center(float(world.states[e, 1]))
    # indexed by LateralDecision value: LANE_KEEP, LEFT_CHANGE, LEFT_PROBE
    line_by_lat = np.array([ego_lane_center, lanes.target_center, lanes.probe_line])

    sv_inf = slice(1, n_inf)
    is_partner = np.arange(1, n_inf)[:, None] == row_of[partner_idx][None, :]   # (n_inf - 1, K)
    kappa_inf = np.where(is_partner & sv_is_yield[None, :], kappa_yield, kappa_assert)

    # shared vehicles are written into every rollout once, after the loop
    inf_ids, shared_ids = order[:n_inf], order[n_inf:]
    states = np.empty((K, V, T + 1, 4))
    inputs = np.zeros((K, V, T, 2))
    shared_states = np.empty((V - n_inf, T + 1, 4))
    shared_inputs = np.zeros((V - n_inf, T, 2))
    X, Y, TH, VS = (np.repeat(world.states[order, c, None], K, axis=1) for c in range(4))
    cols = np.arange(K)

    for t in range(T + 1):
        for c, arr in enumerate((X, Y, TH, VS)):
            states[:, inf_ids, t, c] = arr[:n_inf].T
            shared_states[:, t, c] = arr[n_inf:, 0]
        if t == T:
            break

        d = t // cfg.substeps
        gap_t = gap_seq[:, d]
        lat_t = lat_seq[:, d]

        # --- ego lateral: pure pursuit onto the decision's target line
        delta_e = pure_pursuit(Y[0], TH[0], VS[0], line_by_lat[lat_t], wheelbase[e],
                               model.pursuit, delta_max[e])

        # --- ego longitudinal: PD on the rule-based gap reference
        fi = front_by_gap[gap_t]
        ri = rear_by_gap[gap_t]
        has_f, has_r = fi >= 0, ri >= 0
        x_tgt, v_tgt = gap_reference(X[np.where(has_f, fi, 0), cols],
                                     VS[np.where(has_f, fi, 0), cols], has_f,
                                     X[np.where(has_r, ri, 0), cols], has_r,
                                     world.v_des[e], model.follow_distance)
        a_e = pd_longitudinal(X[0], VS[0], x_tgt, v_tgt, has_f, model.gains, a_max[e])

        # until the ego has mostly crossed, its command may not drive it into
        # the leader of the lane it is still occupying; the governor engages
        # once that leader is within the follow point plus a time headroom
        if lead_cur >= 0:
            still_on_lane = np.abs(lanes.target_center - Y[0]) > 0.25 * w_lane
            slack = X[lead_cur] - X[0] - model.follow_distance
            engaged = still_on_lane & \
                (slack <= forward_sim.KEEP_ENGAGE_TIME * np.maximum(VS[0], 1.0))
            a_keep = pd_longitudinal(X[0], VS[0], X[lead_cur] - model.follow_distance,
                                     np.minimum(VS[lead_cur], world.v_des[e]), True,
                                     model.gains, a_max[e])
            a_e = np.where(engaged, np.minimum(a_e, a_keep), a_e)

        # --- surrounding vehicles: modified IDM, partner beta set by the group
        # action; the shared block is evaluated on one rollout
        ego_probing = (lat_t == int(LateralDecision.LEFT_CHANGE)) | \
                      (lat_t == int(LateralDecision.LEFT_PROBE))
        A = np.empty((n_inf, K))
        A[0] = a_e
        A[sv_inf] = _idm_block(X, Y, TH, VS, sv_inf, lead[sv_inf], kappa_inf,
                               is_partner & ego_probing[None, :], v_des[sv_inf], a_lim[sv_inf],
                               idm)
        a_shared = _idm_block(X[:, :1], Y[:, :1], TH[:, :1], VS[:, :1], slice(n_inf, V),
                              lead[n_inf:], kappa_assert, False, v_des[n_inf:], a_lim[n_inf:],
                              idm)
        inputs[:, inf_ids, t, 0] = A.T
        inputs[:, e, t, 1] = delta_e
        shared_inputs[:, t, 0] = a_shared[:, 0]

        D = np.zeros((n_inf, K))
        D[0] = delta_e
        stepped_inf = step_bicycle(X[:n_inf], Y[:n_inf], TH[:n_inf], VS[:n_inf],
                                   A, D, cfg.dt, wb[:n_inf])
        stepped_shared = step_bicycle(X[n_inf:, :1], Y[n_inf:, :1], TH[n_inf:, :1],
                                      VS[n_inf:, :1], a_shared, 0.0, cfg.dt, wb[n_inf:])
        X, Y, TH, VS = (np.empty((V, K)) for _ in range(4))
        for arr, a_inf, a_sh in zip((X, Y, TH, VS), stepped_inf, stepped_shared):
            arr[:n_inf] = a_inf
            arr[n_inf:] = a_sh

    states[:, shared_ids] = shared_states
    inputs[:, shared_ids] = shared_inputs

    return FlatRollout(states, inputs, partner_ids)


def assert_matches_reference(world, seqs, cfg, model):
    """simulate_batch of seqs against the reference loop over the explicit
    product of the group actions and seqs."""
    got = simulate_batch(world, seqs, cfg, model)
    want = reference_simulate_batch(world, [(a, s) for a in SvAction for s in seqs], cfg, model)
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.inputs, want.inputs)
    assert got.partner_ids == want.partner_ids


def root_seqs(root, horizon=5):
    return enumerate_ego_sequences(root, 2, horizon)


@lru_cache(maxsize=None)
def scenario_world(scenario, when):
    """The scenario's initial world ("start"), the world its cycle 6 plans
    from ("after6"), or the world its episode ends in ("end")."""
    cfg = SCENARIOS[scenario]()
    if when == "start":
        return cfg.initial_world()
    return end_world(cfg) if when == "end" else mid_episode_world(cfg, 6)


SCENARIOS = {
    "merge5": lambda: default_merge_scenario(5.0),
    "merge10": lambda: default_merge_scenario(10.0),
    "empty": lambda: empty_lane_scenario(8.0),
    "packed": lambda: packed_lane_scenario(6.0),
}

# A later world of each scenario: merge 10 and packed plan cycle 6, while the
# ego of empty (cycle 3) and merge 5 (cycle 5) merges before it, so their
# end states, post-merge worlds, stand in
LATER = {"merge5": "end", "merge10": "after6", "empty": "end", "packed": "after6"}


def scenario_times(*scenarios):
    """(scenario, when) for each scenario at its start and its later world."""
    return [(s, when) for s in scenarios for when in ("start", LATER[s])]


def hand_world(rows, wheelbases=None):
    """A world from (id, x, y, v, v_des) rows, the ego first, and optionally
    each vehicle's wheelbase."""
    wheelbases = wheelbases or [VehicleParams().wheelbase] * len(rows)
    return WorldSnapshot(ids=tuple(r[0] for r in rows),
                         states=np.array([[x, y, 0.0, v] for _, x, y, v, _ in rows]),
                         params=tuple(VehicleParams(wheelbase=w) for w in wheelbases),
                         v_des=np.array([r[4] for r in rows]), lanes=LaneGeometry(), ego_index=0)


# Worlds that reach the corners of the rollout's surrounding-vehicle key
HAND_WORLDS = {
    # "tail" follows the ego on the current lane: its leader differs per column
    "ego-leads": hand_world([("ego", 0.0, 0.0, 7.0, 10.0), ("tail", -14.0, 0.0, 8.0, 10.0),
                             ("truck", 30.0, 0.0, 5.0, 5.0), ("t0", 25.0, 3.5, 6.0, 8.0),
                             ("t1", 4.0, 3.5, 6.0, 8.0), ("t2", -20.0, 3.5, 6.0, 8.0)]),
    # the gap-2 partner "p" follows "t0", 0.3 m off its lane center, so the
    # partner's lateral discount reaches its physical leader
    "off-line-leader": hand_world([("ego", 0.0, 0.0, 7.0, 10.0), ("truck", 30.0, 0.0, 5.0, 5.0),
                                   ("t0", 20.0, 3.8, 6.0, 8.0), ("p", -8.0, 3.5, 7.0, 8.0),
                                   ("t2", -30.0, 3.5, 6.0, 8.0)]),
    # the gap-2 partner "p" is level with a faster ego: the probing ego is its
    # virtual leader under the yield discount and not under the assert one
    "partner-led-by-ego": hand_world([("ego", 0.0, 0.0, 8.0, 10.0),
                                      ("truck", 30.0, 0.0, 5.0, 5.0),
                                      ("t0", 30.0, 3.5, 6.0, 8.0), ("p", -1.0, 3.5, 6.0, 8.0),
                                      ("t2", -25.0, 3.5, 6.0, 8.0)]),
    # every vehicle has its own wheelbase: the rollout steps all entries with
    # the ego's, which the surrounding vehicles' zero steering makes exact
    "own-wheelbases": hand_world([("ego", 0.0, 0.0, 7.0, 10.0), ("truck", 30.0, 0.0, 5.0, 5.0),
                                  ("t0", 20.0, 3.5, 6.0, 8.0), ("p", -3.0, 3.5, 7.0, 8.0),
                                  ("t2", -30.0, 3.5, 0.0, 8.0)],
                                 wheelbases=[2.7, 5.5, 1.9, 3.3, 0.8]),
}


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
        assert_matches_reference(HAND_WORLDS[name], root_seqs(root), CFG, MODEL)


@pytest.mark.parametrize("scenario, when", scenario_times(*sorted(SCENARIOS)))
def test_tree_rollout_matches_reference_from_every_root(scenario, when):
    cfg = SCENARIOS[scenario]()
    world = scenario_world(scenario, when)
    for root in ALL_EGO_DECISIONS:
        assert_matches_reference(world, root_seqs(root), cfg.sim, cfg.model)


@pytest.mark.parametrize("scenario, when", scenario_times("merge5", "merge10", "packed"))
def test_planner_rollout_invariants(scenario, when):
    # on every row the planner scores, from every root: speeds stay >= 0, and
    # each surrounding vehicle keeps its lane and heading with zero steering
    cfg = SCENARIOS[scenario]()
    world = scenario_world(scenario, when)
    sv = np.arange(world.n_vehicles) != world.ego_index
    for root in ALL_EGO_DECISIONS:
        rollout = plan_cycle(world, cfg.initial_beliefs(), cfg, root).rollout
        assert rollout.states[..., 3].min() >= 0.0
        for col in (1, 2):
            assert (rollout.states[:, sv][..., col] == world.states[sv, col][:, None]).all()
        assert not rollout.inputs[:, sv][..., 1].any()


def distinct_trajectories(rollout, v):
    """Number of bit-distinct (states, inputs) trajectories of vehicle v over the tuples."""
    K = len(rollout.rows)
    flat = np.concatenate([rollout.states[:, v].reshape(K, -1),
                           rollout.inputs[:, v].reshape(K, -1)], axis=1)
    return len(np.unique(flat.view(np.uint64), axis=0))


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
        per_vehicle = [distinct_trajectories(rollout, v) for v in range(world.n_vehicles)]
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
    res.rollout.vehicle_inputs(res.rollout.tuple_index(res.row, res.col), world.ego_index)
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
    assert_matches_reference(world, [const_seq(G0, LK)], CFG, model)
    assert_matches_reference(world, [const_seq(G0, LK)] * 2, CFG, model)
    assert_matches_reference(world, [const_seq(G2, LP)], CFG, model)
    for h in (1, 6):
        sim = SimConfig(dt=0.2, horizon=h, decision_period=1.0)
        assert_matches_reference(world, root_seqs(EgoDecision(G0, LK), h), sim, model)


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
    assert_matches_reference(world, data.draw(st.permutations(seqs)), CFG, MODEL)


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
    assert_matches_reference(cfg.initial_world(), seqs, cfg.sim, cfg.model)


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
