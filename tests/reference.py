"""The plain references of the planning cycle and of the truth step, and
reference_plan_cycle, which chains them into one cycle: the one home of the
references that the tests check the pipeline against.

Each reference stands in for the production code it checks, and none
imports or calls that code (test_plan_cycle checks this):

- brute_sequences: actions.enumerate_ego_sequences.
- reference_simulate_batch, with seq_partners: forward_sim.simulate_batch.
  It steps every vehicle of every tuple in one (V, K) loop and returns a
  FlatRollout, every tuple's own (K, V, ...) arrays.
- reference_pair_band_penalties: costs._pair_band_penalties.
- efficiency_cost, comfort_cost, navigation_cost and build_game, which
  scores a FlatRollout: costs.build_game_from_batch.
- reference_update_belief and reference_entropy: costs.update_belief and
  costs.belief_entropy.
- reference_info_gain_extra: planner._info_gain_extra, within INFO_RTOL.
- game_oracles' brute_nash, brute_stackelberg and brute_selection:
  game.find_pure_nash, game.stackelberg and game.select_action.
- reference_plan_cycle: planner.plan_cycle.
- reference_truth_sv_accel, with the scalar reference_idm_accel:
  closed_loop.truth_sv_accel; reference_step: one truth-world step_bicycle
  call; reference_ego_hits_anyone: closed_loop._ego_hits_anyone.

The references share with production only the laws that each have one
implementation, and the data classes (EgoDecision, DecisionSequence,
Belief, GameMatrix, VehicleParams):
- control.py: the gap reference, PD, pure pursuit, the lateral discount,
  the virtual gap distance and the modified IDM, saturation included;
- dynamics.step_bicycle, rect_distance_arrays and rects_penetrate;
- WorldSnapshot's leader and gap resolution (leader_indices, resolve_gaps)
  and LaneGeometry.nearest_center;
- forward_sim.KEEP_ENGAGE_TIME, the keep-lane governor's time headroom.
"""

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from mergegame.actions import DecisionSequence, EgoDecision, GapChoice, LateralDecision, SvAction
from mergegame.control import (gap_reference, idm_accel, lateral_discount, pd_longitudinal,
                               pure_pursuit, virtual_gap_distance)
from mergegame.costs import Belief, GameMatrix
from mergegame.dynamics import VehicleParams, rect_distance_arrays, rects_penetrate, step_bicycle
from mergegame.forward_sim import KEEP_ENGAGE_TIME

from game_oracles import brute_nash, brute_selection, brute_stackelberg

G0, G1, G2 = GapChoice.GAP_0, GapChoice.GAP_1, GapChoice.GAP_2
LK, LC, LP = LateralDecision.LANE_KEEP, LateralDecision.LEFT_CHANGE, LateralDecision.LEFT_PROBE

# --- enumeration ---------------------------------------------------------------

# The two rules, stated here apart from src. The current lane (gap 0) only
# keeps lane, so these are the seven decisions, in (gap, lateral) order:
UNIVERSE = [(G0, LK)] + [(g, lat) for g in (G1, G2) for lat in (LK, LC, LP)]


def forbidden(a: EgoDecision, b: EgoDecision) -> bool:
    """A lane change into one gap followed by a lane change into the other."""
    return {(a.gap, a.lateral), (b.gap, b.lateral)} == {(G1, LC), (G2, LC)}


def brute_sequences(root: EgoDecision, max_decision_changes: int, horizon: int):
    """Independent enumeration oracle: filter the full product of decisions."""
    out = []
    for cand in itertools.product([EgoDecision(g, lat) for g, lat in UNIVERSE], repeat=horizon):
        chain = (root,) + cand
        changes = sum(chain[k] != chain[k - 1] for k in range(1, len(chain)))
        if changes > max_decision_changes:
            continue
        if any(forbidden(chain[k - 1], chain[k]) for k in range(1, len(chain))):
            continue
        out.append(DecisionSequence(cand))
    return out


# --- rollout ---------------------------------------------------------------------

def seq_partners(gaps, seqs):
    """Each sequence's interaction partner, as a vehicle index: the rear
    bound, in the gap table gaps, of the gap of its last step that leaves
    the current lane's gap; -1 where every step keeps it."""
    last = [next((s.gap for s in reversed(seq) if s.gap != G0), None) for seq in seqs]
    return np.array([-1 if g is None else gaps[g, 1] for g in last], dtype=np.intp)


@dataclass
class FlatRollout:
    """The flat loop's rollout of K (group action, sequence) tuples, each in
    its own rows: states (K, V, T+1, 4), inputs (K, V, T, 2), each tuple's
    partner id, and the step dt."""

    tuples: list
    states: np.ndarray
    inputs: np.ndarray
    partner_ids: tuple
    dt: float


def reference_simulate_batch(world, tuples, cfg, model) -> FlatRollout:
    """The flat rollout loop: every vehicle of every tuple stepped over the
    whole horizon in (V, K) arrays, tuple k in column k, with nothing shared
    between tuples."""
    tuples = list(tuples)
    if not tuples:
        raise ValueError("need at least one action tuple")
    K, V, T = len(tuples), world.n_vehicles, cfg.horizon * cfg.substeps
    e = world.ego_index
    if any(len(seq) != cfg.horizon for _, seq in tuples):
        raise ValueError("decision sequence length must equal the decision horizon")

    # gap bounds and leader chain resolved once per cycle; positions stay live
    leader_idx = world.leader_indices(include_ego=True)
    gaps = world.resolve_gaps(leader_idx)
    front_by_gap, rear_by_gap = gaps.T
    lead_cur = leader_idx[e]
    has_phys = (leader_idx >= 0)[:, None]
    li = np.where(leader_idx >= 0, leader_idx, 0)
    partner_idx = seq_partners(gaps, [seq for _, seq in tuples])
    partner_ids = tuple(world.ids[p] if p >= 0 else None for p in partner_idx)

    dec = np.array([[(s.gap, s.lateral) for s in seq] for _, seq in tuples])   # (K, H, 2)

    lanes, idm = world.lanes, model.idm
    v_des, a_max = world.v_des[:, None], world.a_max[:, None]
    # indexed by LateralDecision value: LANE_KEEP, LEFT_CHANGE, LEFT_PROBE
    line_by_lat = np.array([lanes.nearest_center(float(world.states[e, 1])), lanes.target_center,
                            lanes.probe_line])
    # the partner's beta is set by the group action, every other vehicle asserts
    is_partner = np.arange(V)[:, None] == partner_idx[None, :]   # (V, K)
    sv_is_yield = np.array([sv == SvAction.YIELD for sv, _ in tuples])
    kappa = np.where(is_partner & sv_is_yield, lateral_discount(idm.beta_yield, lanes.width),
                     lateral_discount(idm.beta_assert, lanes.width))

    states = np.empty((K, V, T + 1, 4))
    inputs = np.zeros((K, V, T, 2))
    X, Y, TH, VS = (np.repeat(world.states[:, c, None], K, axis=1) for c in range(4))
    cols = np.arange(K)

    for t in range(T + 1):
        states[:, :, t] = np.stack((X, Y, TH, VS), axis=-1).swapaxes(0, 1)
        if t == T:
            break

        gap_t, lat_t = dec[:, t // cfg.substeps].T

        # --- ego lateral: pure pursuit onto the decision's target line
        delta_e = pure_pursuit(Y[e], TH[e], VS[e], line_by_lat[lat_t], world.wheelbase[e],
                               model.pursuit, world.delta_max[e])

        # --- ego longitudinal: PD on the rule-based gap reference
        fi, ri = front_by_gap[gap_t], rear_by_gap[gap_t]
        has_f, has_r = fi >= 0, ri >= 0
        x_tgt, v_tgt = gap_reference(X[np.where(has_f, fi, 0), cols],
                                     VS[np.where(has_f, fi, 0), cols], has_f,
                                     X[np.where(has_r, ri, 0), cols], has_r,
                                     world.v_des[e], model.follow_distance)
        a_e = pd_longitudinal(X[e], VS[e], x_tgt, v_tgt, has_f, model.gains, a_max[e])

        # until the ego has mostly crossed, its command may not drive it into
        # the leader of the lane it is still occupying; the governor engages
        # once that leader is within the follow point plus a time headroom
        if lead_cur >= 0:
            still_on_lane = np.abs(lanes.target_center - Y[e]) > 0.25 * lanes.width
            slack = X[lead_cur] - X[e] - model.follow_distance
            engaged = still_on_lane & (slack <= KEEP_ENGAGE_TIME * np.maximum(VS[e], 1.0))
            a_keep = pd_longitudinal(X[e], VS[e], X[lead_cur] - model.follow_distance,
                                     np.minimum(VS[lead_cur], world.v_des[e]), True,
                                     model.gains, a_max[e])
            a_e = np.where(engaged, np.minimum(a_e, a_keep), a_e)

        # --- surrounding vehicles: modified IDM behind the physical leader;
        # where a vehicle is the tuple's partner, the ego changes lanes or
        # probes and is level or ahead, it is a second, virtual leader, and
        # the nearer of the two governs
        d_phys = np.where(has_phys, virtual_gap_distance(X[li], Y[li], X, Y, kappa), np.inf)
        v_phys = np.where(has_phys, VS[li], 0.0)
        d_ego = virtual_gap_distance(X[e], Y[e], X, Y, kappa)
        use_ego = is_partner & (lat_t != LK) & (X[e] >= X) & (d_ego < d_phys)
        A = idm_accel(VS, np.where(use_ego, VS[e] * np.cos(TH[e]), v_phys),
                      np.where(use_ego, d_ego, d_phys), has_phys | use_ego, v_des, idm, a_max)
        A[e] = a_e
        D = np.zeros((V, K))
        D[e] = delta_e
        inputs[:, :, t, 0] = A.T
        inputs[:, :, t, 1] = D.T
        X, Y, TH, VS = step_bicycle(X, Y, TH, VS, A, D, cfg.dt, world.wheelbase[:, None])

    return FlatRollout(tuples, states, inputs, partner_ids, cfg.dt)


# --- scoring ---------------------------------------------------------------------

def reference_pair_band_penalties(states, half_len, half_wid, weights):
    """Per-vehicle safety sums (K, V) of stacked per-tuple states (K, V, T+1, 4):
    every vehicle pair on every row, the scoring loop before culling."""
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


# The per-term costs of one trajectory, elementwise over any leading axes

def efficiency_cost(states, weights, v_des):
    """Squared speed error summed over the steps of states (..., T+1, 4)."""
    return weights.w_eff * np.sum((states[..., 3] - v_des) ** 2, axis=-1)


def comfort_cost(inputs, weights, dt):
    """Squared jerk, approximated by finite differences of the commanded
    acceleration in inputs (..., T, 2)."""
    return weights.w_com * np.sum(np.diff(inputs[..., 0], axis=-1) ** 2, axis=-1) / dt ** 2


def navigation_cost(states, weights, y_des):
    """Squared lateral offset from y_des summed over the steps of states."""
    return weights.w_nav * np.sum((states[..., 1] - y_des) ** 2, axis=-1)


def partner_beliefs(flat, beliefs):
    """The belief in each column's partner: uniform without a partner, or
    without a tracked belief."""
    M = len(flat.tuples) // len(SvAction)
    return [beliefs.get(p, Belief.uniform()) if p is not None else Belief.uniform()
            for p in flat.partner_ids[:M]]


def build_game(flat, world, beliefs, weights, info=None):
    """The belief-weighted cost matrix of a FlatRollout whose tuples are each
    group action with every column, row by row; ValueError for any other
    tuple list. Every tuple is scored on its own arrays: a vehicle's cost is
    its safety, efficiency, comfort and navigation terms, the group's is the
    sum of the surrounding vehicles' in roster order, and the ego's adds
    info (K,), when given. Row r of column j is weighted by one minus the
    belief in SvAction(r) of column j's partner (uniform without one)."""
    M = len(flat.tuples) // len(SvAction)
    cols = tuple(seq for _, seq in flat.tuples[:M])
    if flat.tuples != [(sv, seq) for sv in SvAction for seq in cols]:
        raise ValueError("the tuples must pair each group action with every column, row by row")
    e = world.ego_index
    y_des = world.lanes.nearest_center(world.states[:, 1])
    y_des[e] = world.lanes.target_center
    cost = (reference_pair_band_penalties(flat.states, world.half_len, world.half_wid, weights)
            + efficiency_cost(flat.states, weights, world.v_des[:, None])
            + comfort_cost(flat.inputs, weights, flat.dt)
            + navigation_cost(flat.states, weights, y_des[:, None]))   # (K, V)
    group = sum((cost[:, v] for v in range(world.n_vehicles) if v != e), np.zeros(len(cost)))
    ego = cost[:, e] if info is None else cost[:, e] + info
    weight = np.array([[1.0 - (b.p_assert, b.p_yield)[r] for b in partner_beliefs(flat, beliefs)]
                       for r in SvAction])
    sv_raw = group.reshape(len(SvAction), M)
    return GameMatrix(cols, weight * sv_raw, ego.reshape(len(SvAction), M), sv_raw=sv_raw)


# --- beliefs ---------------------------------------------------------------------

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


def reference_entropy(p_assert, p_yield):
    h = 0.0
    for p in (p_assert, p_yield):
        if p > 0.0:
            h -= p * math.log(p)
    return h


# The relative bound within which reference_info_gain_extra matches the
# planner's term: its scalar Bayes update and entropy round differently from
# the vectorized ones in rare entries (1 of 742 on merge 5 with beliefs of
# 0.999, by 1.5e-16 of the entry)
INFO_RTOL = 1e-12


def reference_info_gain_extra(flat, world, beliefs, cfg):
    """The information-gain addend (K,) tuple by tuple: one scalar Bayes
    update of the partner's belief per tuple, from its own partner trace
    against the traces its column predicts under each group action."""
    K = len(flat.tuples)
    m = K // len(SvAction)
    extra = np.zeros(K)
    for k in range(K):
        pid = flat.partner_ids[k]
        if pid is None:
            continue
        b = beliefs.get(pid, Belief.uniform())
        prior = (b.p_assert, b.p_yield)
        p, col = world.index_of(pid), k % m
        post = reference_update_belief(prior, flat.inputs[k, p, :, 0], flat.inputs[col, p, :, 0],
                                       flat.inputs[m + col, p, :, 0], cfg.beliefs.sigma_accel)
        post = prior if post is None else post
        extra[k] = cfg.weights.w_info * (reference_entropy(*post) - reference_entropy(*prior))
    return extra


# --- one planning cycle ------------------------------------------------------------

Cycle = namedtuple("Cycle", "rollout game row col kind fallback_used nash_cells se_ev se_sv")


def reference_plan_cycle(world, beliefs, cfg, root) -> Cycle:
    """The cycle plan_cycle(world, beliefs, cfg, root) plans, from the
    references alone: the enumeration oracle's sequences, their flat
    rollout under both group actions, the per-tuple game (with the
    information-gain addend when w_info is not 0) and the brute-force
    solvers. Cells are (row, col) pairs. cfg.planner selects:
    - "nash": the Nash cell of lowest social cost, ties to the lower
      (row, col); with no Nash cell, the group-leader Stackelberg cell,
      flagged as a fallback;
    - "stackelberg-ev": the ego-leader Stackelberg cell;
    - "lowest-cost": the column of the lowest ego cost expected under its
      partner's belief, ties to the lower column, and the row of the group
      action that belief finds likelier, assert on an even belief.
    """
    seqs = brute_sequences(root, cfg.prune.max_decision_changes, cfg.sim.horizon)
    flat = reference_simulate_batch(world, [(sv, s) for sv in SvAction for s in seqs], cfg.sim,
                                    cfg.model)
    info = None
    if cfg.weights.w_info != 0.0:
        info = reference_info_gain_extra(flat, world, beliefs, cfg)
    game = build_game(flat, world, beliefs, cfg.weights, info)
    sv, ev = game.sv_weighted, game.ev
    se_ev, se_sv = brute_stackelberg(sv, ev, "ev"), brute_stackelberg(sv, ev, "sv")
    fallback = False
    if cfg.planner == "nash":
        (row, col), fallback = brute_selection(sv, ev)
        kind = "stackelberg-sv-leader" if fallback else "nash"
    elif cfg.planner == "stackelberg-ev":
        (row, col), kind = se_ev, "stackelberg-ev-leader"
    else:
        b = partner_beliefs(flat, beliefs)
        expected = [b[c].p_assert * ev[0, c] + b[c].p_yield * ev[1, c] for c in range(len(b))]
        col = min(range(len(b)), key=lambda c: (expected[c], c))
        row, kind = (0 if b[col].p_assert >= 0.5 else 1), "lowest-cost"
    return Cycle(flat, game, row, col, kind, fallback, brute_nash(sv, ev), se_ev, se_sv)


# --- the truth step ------------------------------------------------------------------

State = namedtuple("State", "x y theta v")


@dataclass(frozen=True)
class IdmParams:
    """Modified-IDM parameters and actuation limit of one follower, as the
    scalar truth model takes them."""

    v0: float
    time_headway: float
    s0: float
    a_acc: float
    b_dec: float
    beta: float
    w_lane: float
    b_emergency: float
    a_max: float


def reference_idm_accel(follower, virtual_leader, params):
    v = follower.v
    free = 1.0 - (v / params.v0) ** 4
    if virtual_leader is None:
        a = params.a_acc * free
    else:
        kappa = 2.0 * math.log(params.beta) / params.w_lane
        dy = abs(virtual_leader.y - follower.y)
        d = abs(virtual_leader.x - follower.x) * math.exp(kappa * dy)
        dv = v - virtual_leader.v
        s_star = params.s0 + v * params.time_headway \
            + v * dv / (2.0 * math.sqrt(params.a_acc * params.b_dec))
        a = params.a_acc * (free - (s_star / d) ** 2) if d > 0.0 else -params.b_emergency
    # the IDM's own bounds, then the follower's actuation limit
    return float(np.clip(np.clip(a, -params.b_emergency, params.a_acc), -params.a_max,
                         params.a_max))


def reference_truth_sv_accel(sv, ego, mode, params, lane_center_y, leader,
                             polite_frac, selfish_frac):
    """One surrounding vehicle: car following, and braking for the ego's
    projection once the ego is level or ahead and within the mode's range."""
    frac = polite_frac if mode == "polite" else selfish_frac
    a = reference_idm_accel(sv, leader, params)
    if abs(ego.y - lane_center_y) <= frac * params.w_lane and ego.x >= sv.x:
        projected = State(ego.x, lane_center_y, 0.0, ego.v * math.cos(ego.theta))
        a = min(a, reference_idm_accel(sv, projected, params))
    return a


def reference_step(state, a, delta, dt, params: VehicleParams):
    """One vehicle, stepped with its command as recorded."""
    return np.array([float(c) for c in step_bicycle(
        np.float64(state.x), np.float64(state.y), np.float64(state.theta), np.float64(state.v),
        np.float64(a), np.float64(delta), np.float64(dt), np.float64(params.wheelbase))])


def reference_ego_hits_anyone(states, world):
    """One separating-axis test per other vehicle: the truth world's check before
    it tested all vehicles at once."""
    e, half_len, half_wid = world.ego_index, world.half_len, world.half_wid
    for i in range(world.n_vehicles):
        if i == e:
            continue
        if rects_penetrate(
            states[e, 0], states[e, 1], states[e, 2], half_len[e], half_wid[e],
            states[i, 0], states[i, 1], states[i, 2], half_len[i], half_wid[i],
        ):
            return True
    return False
