"""Multi-vehicle forward simulation of action tuples over the planning horizon.

All action tuples of one planning cycle are rolled out simultaneously on
stacked numpy arrays: the ego follows its decision sequence through the gap
reference / PD / pure-pursuit stack, surrounding vehicles follow the modified
IDM with zero heading and steering, and the tuple's group action sets the
interaction partner's willingness to yield.

The tuples form a search tree over the ego's decisions, and simulate_batch
walks it one decision period per depth. At depth d a column stands for every
tuple with the same key (group action, interaction partner, decisions 0..d):
those tuples have had the same inputs so far, so they are stepped once. The
partner is part of the key from the root on, because the partner is fixed
by the whole sequence and acts from t = 0 (yield discount, watching a probing
ego). At each depth boundary the columns split where the next decision
differs, each copying its parent's state.

Most vehicles move the same way in many columns, so the result is a table of
distinct vehicle trajectories, built during the walk: at the end of each
period a vehicle's row in a column is its row of the previous period plus
its inputs over this one, and columns with equal keys share the row. A
(K, V) index gives each tuple's row of each vehicle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .actions import DecisionSequence, LateralDecision, SvAction
from .control import (IdmSettings, PdGains, PurePursuitParams, gap_reference, idm_accel,
                      lateral_discount, pd_longitudinal, pure_pursuit, virtual_gap_distance)
from .dynamics import step_bicycle
from .world import WorldSnapshot, interaction_partner

__all__ = [
    "SimConfig",
    "PlannerModel",
    "BatchRollout",
    "simulate_batch",
]


@dataclass(frozen=True)
class SimConfig:
    """Horizon discretization: horizon decision slots of decision_period
    each, stepped every dt, so steps * dt of trajectory time."""

    dt: float = 0.2
    horizon: int = 5
    decision_period: float = 1.0

    def __post_init__(self):
        if self.horizon < 1 or self.dt <= 0.0 or self.decision_period <= 0.0:
            raise ValueError("SimConfig fields must be positive")
        ratio = self.decision_period / self.dt
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError("decision_period must be a positive integer multiple of dt")

    @property
    def substeps(self) -> int:
        return int(round(self.decision_period / self.dt))

    @property
    def steps(self) -> int:
        return self.horizon * self.substeps


@dataclass(frozen=True)
class PlannerModel:
    """Controller and car-following settings the planner assumes during rollouts."""

    gains: PdGains = field(default_factory=PdGains)
    pursuit: PurePursuitParams = field(default_factory=PurePursuitParams)
    idm: IdmSettings = field(default_factory=IdmSettings)
    d_safe: float = 6.0
    follow_distance: float = 12.0


# Time headroom (s) of the ego's keep-lane governor: it engages once the gap
# beyond the follow point is within this many seconds of ego travel
KEEP_ENGAGE_TIME = 0.8


@dataclass
class BatchRollout:
    """Rollouts of many action tuples, as a table of distinct vehicle trajectories.

    traj_states (R, T+1, 4) and traj_inputs (R, T, 2) hold each distinct
    trajectory of a vehicle once, grouped by vehicle: vehicle v owns rows
    block_start[v]:block_start[v + 1]. rows[k, v] is the row that vehicle v
    follows in tuple k. states (K, V, T+1, 4) and inputs (K, V, T, 2) build
    the per-tuple arrays on first use and keep them; no planner path reads them.
    """

    tuples: list[tuple[SvAction, DecisionSequence]]
    traj_states: np.ndarray   # (R, T+1, 4)
    traj_inputs: np.ndarray   # (R, T, 2)
    rows: np.ndarray          # (K, V) table row of each tuple's vehicle
    block_start: np.ndarray   # (V+1,) first row of each vehicle's block
    partner_ids: tuple[str | None, ...]
    dt: float

    @cached_property
    def states(self) -> np.ndarray:
        return self.traj_states[self.rows]

    @cached_property
    def inputs(self) -> np.ndarray:
        return self.traj_inputs[self.rows]

    def vehicle_inputs(self, k, v) -> np.ndarray:
        """(..., T, 2) inputs of vehicle(s) v in tuple(s) k, read from the table."""
        return self.traj_inputs[self.rows[k, v]]


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
    return np.clip(idm_accel(v, v_lead, d_lead, has_lead, v_des, idm), -a_max, a_max)


def _dense_rank(code, n_codes):
    """Distinct values of code (ints in [0, n_codes)), ranked in increasing order.

    Returns (member, rank): member[r] is the index of one element holding the
    r-th distinct value, and rank[i] the rank of code[i]. This is
    np.unique(code, return_index=True, return_inverse=True) up to which
    member stands for a value, found through a table of every possible value
    instead of by sorting, which is faster for the small ranges of the
    column keys.
    """
    present = np.zeros(n_codes, dtype=bool)
    present[code] = True
    member = np.empty(n_codes, dtype=np.intp)
    member[code] = np.arange(len(code))
    return member[present], (np.cumsum(present) - 1)[code]


_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)


def _key_hash(prev, values):
    """64-bit hash of each key (prev[i], values[0][i], values[1][i], ...), over
    the bits of the float values."""
    h = prev.astype(np.uint64)
    for v in values:
        h = (h ^ v.view(np.uint64)) * _HASH_MUL
        h ^= h >> np.uint64(31)
    return h


def _distinct_keys(prev, values):
    """Group the keys (prev[i], values[0][i], values[1][i], ...) by bit equality.

    prev (n,) holds ints and values (n,) float arrays. Returns (first, group):
    group[i] numbers key i's group, in order of first occurrence, and first[g]
    is the first key of group g. Keys are grouped by _key_hash, and every key
    is then checked against its group's first key; if a hash collision put
    unequal keys together, they are grouped by their bytes instead.
    """
    bits = [prev.astype(np.uint64)] + [v.view(np.uint64) for v in values]
    _, first, group = np.unique(_key_hash(prev, values), return_index=True,
                                return_inverse=True)
    if not all(np.array_equal(b[first][group], b) for b in bits):
        seen = {}
        group = np.array([seen.setdefault(key.tobytes(), len(seen))
                          for key in np.column_stack(bits)], dtype=np.intp)
        return np.unique(group, return_index=True)[1], group
    by_first = np.argsort(first)
    renumber = np.empty_like(by_first)
    renumber[by_first] = np.arange(len(first))
    return first[by_first], renumber[group]


def simulate_batch(world: WorldSnapshot, tuples, cfg: SimConfig,
                   model: PlannerModel) -> BatchRollout:
    """Roll out every action tuple from the shared initial world state.

    Deterministic: no randomness enters the rollouts, and identical inputs
    produce identical arrays. Collisions never abort a rollout: the safety
    cost of build_game_from_batch penalizes them. Returns the trajectory
    table of the tuples, indexed in their order.

    The rollouts are stepped as a tree, one decision period per depth. During
    period d the working arrays hold one column per distinct key (group
    action, interaction partner, decisions 0..d): tuples with equal keys have
    equal states up to the end of period d, so they share a column until
    their decisions part. The partner belongs in the key although it is taken
    from the last lane-change step of the whole sequence: from t = 0 on it
    gets the yield discount under the YIELD action and watches a probing ego
    as a virtual leader. At each depth boundary every column of period d
    starts from its parent column of period d-1. Every step is elementwise
    over the columns, so each tuple's values are those of stepping it alone.

    The table grows with the walk. At the end of period d, a vehicle's row
    in a column is its row of period d-1 plus its inputs (a, delta) over
    period d, and columns that agree on both, bit for bit, share the row:
    a step is elementwise, so equal inputs from an equal state give equal
    states. Only the rows of period d are gathered from the working arrays,
    and each leaf row's trajectory is assembled from its ancestors' segments.

    A surrounding vehicle outside the influence set (_influence_set) sees
    only kappa_assert and leaders that are themselves outside the set, from
    the same initial state in every rollout. Its trajectory is therefore the
    same in all K rollouts, so it is stepped on one column and has one row.
    """
    tuples = list(tuples)
    if not tuples:
        raise ValueError("need at least one action tuple")
    K, V, T, S = len(tuples), world.n_vehicles, cfg.steps, cfg.substeps
    e = world.ego_index

    # partner and decision codes once per sequence object: the planner pairs
    # each sequence with both group actions
    by_id = {id(seq): seq for _, seq in tuples}
    pos = {key: m for m, key in enumerate(by_id)}
    seq_of = np.array([pos[id(seq)] for _, seq in tuples])
    seqs = list(by_id.values())
    if any(len(seq) != cfg.horizon for seq in seqs):
        raise ValueError("decision sequence length must equal the decision horizon")

    leader_idx = world.leader_indices(include_ego=True)
    gaps_map = world.resolve_gaps(leader_idx)
    seq_partners = [interaction_partner(seq, gaps_map) for seq in seqs]
    partner_ids = tuple(seq_partners[m] for m in seq_of.tolist())
    partner_idx = np.array([world.index_of(p) if p is not None else -1
                            for p in seq_partners])[seq_of]
    # decision code 3 * gap + lateral per tuple and period, (K, H)
    dec = np.array([[3 * step.gap + step.lateral for step in seq] for seq in seqs])[seq_of]
    sv_code = np.array([int(sv) for sv, _ in tuples])
    sv_is_yield = sv_code == SvAction.YIELD

    wheelbase, _, _, a_max, delta_max = world.params_arrays()
    lanes = world.lanes
    w_lane = lanes.width
    idm = model.idm
    kappa_assert = lateral_discount(idm.beta_assert, w_lane)
    kappa_yield = lateral_discount(idm.beta_yield, w_lane)

    # working rows, one per vehicle: [ego | other influenced vehicles | shared
    # vehicles], so that each block is a slice; each row holds one entry per column
    influenced = _influence_set(leader_idx, e, partner_idx)
    order = np.concatenate(([e], np.flatnonzero(influenced & (np.arange(V) != e)),
                            np.flatnonzero(~influenced)))
    n_inf = int(influenced.sum())
    row_of = np.empty(V + 1, dtype=int)  # vehicle index -> working row; the extra -1 keeps "none"
    row_of[order] = np.arange(V)
    row_of[-1] = -1

    # gap bounds and leader chain resolved once per cycle; positions stay live
    front_by_gap = row_of[[world.index_of(gaps_map[g].front_id)
                           if gaps_map[g].front_id is not None else -1 for g in sorted(gaps_map)]]
    rear_by_gap = row_of[[world.index_of(gaps_map[g].rear_id)
                          if gaps_map[g].rear_id is not None else -1 for g in sorted(gaps_map)]]
    lead = row_of[leader_idx[order]]
    lead_cur = lead[0]
    wb, a_lim, v_des = wheelbase[order, None], a_max[order, None], world.v_des[order, None]

    ego_lane_center = lanes.nearest_center(float(world.states[e, 1]))
    # indexed by LateralDecision value: LANE_KEEP, LEFT_CHANGE, LEFT_PROBE
    line_by_lat = np.array([ego_lane_center, lanes.target_center, lanes.probe_line])

    sv_inf = slice(1, n_inf)
    sv_rows = np.arange(1, n_inf)[:, None]

    # each shared vehicle's one row, filled step by step
    inf_ids, shared_ids = order[:n_inf], order[n_inf:]
    shared_states = np.empty((V - n_inf, T + 1, 4))
    shared_inputs = np.zeros((V - n_inf, T, 2))
    # per period: each of its distinct influenced-vehicle rows' (states, inputs)
    # segment, and its row of the period before
    segments = []

    # before the first decision the key is (group action, partner); all such
    # columns start from the initial state
    inv = _dense_rank(sv_code * (V + 1) + partner_idx + 1, 2 * (V + 1))[1]
    X, Y, TH, VS = (np.repeat(world.states[order, c, None], inv.max() + 1, axis=1)
                    for c in range(4))
    # (n_inf, columns) row of each influenced vehicle; before period 0 a
    # vehicle's row is the vehicle itself
    group = np.repeat(np.arange(n_inf)[:, None], inv.max() + 1, axis=1)

    for d in range(cfg.horizon):
        rep, inv_d = _dense_rank(inv * 9 + dec[:, d], 9 * (inv.max() + 1))
        parent = inv[rep]
        inv = inv_d
        X, Y, TH, VS = (arr[:, parent] for arr in (X, Y, TH, VS))
        prev = group[:, parent].ravel()

        # the column's decision, partner and group action, from its representative tuple
        n_cols = len(rep)
        cols = np.arange(n_cols)
        gap_t, lat_t = np.divmod(dec[rep, d], 3)
        line = line_by_lat[lat_t]
        fi = front_by_gap[gap_t]
        ri = rear_by_gap[gap_t]
        has_f, has_r = fi >= 0, ri >= 0
        fi, ri = np.where(has_f, fi, 0), np.where(has_r, ri, 0)
        is_partner = sv_rows == row_of[partner_idx[rep]][None, :]   # (n_inf - 1, n_cols)
        kappa_inf = np.where(is_partner & sv_is_yield[rep][None, :], kappa_yield, kappa_assert)
        ego_probing = (lat_t == int(LateralDecision.LEFT_CHANGE)) | \
                      (lat_t == int(LateralDecision.LEFT_PROBE))
        ego_watch = is_partner & ego_probing[None, :]

        period_states, period_inputs = [], []
        for s in range(S):
            t = d * S + s
            period_states.append((X, Y, TH, VS))
            for k, arr in enumerate((X, Y, TH, VS)):
                shared_states[:, t, k] = arr[n_inf:, 0]

            # --- ego lateral: pure pursuit onto the decision's target line
            delta_e = pure_pursuit(Y[0], TH[0], VS[0], line, wheelbase[e],
                                   model.pursuit, delta_max[e])

            # --- ego longitudinal: PD on the rule-based gap reference
            x_tgt, v_tgt = gap_reference(X[fi, cols], VS[fi, cols], has_f, X[ri, cols], has_r,
                                         world.v_des[e], model.d_safe, model.follow_distance)
            a_e = pd_longitudinal(X[0], VS[0], x_tgt, v_tgt, has_f, model.gains, a_max[e])

            # until the ego has mostly crossed, its command may not drive it into
            # the leader of the lane it is still occupying; the governor engages
            # once that leader is within the follow point plus a time headroom
            if lead_cur >= 0:
                still_on_lane = np.abs(lanes.target_center - Y[0]) > 0.25 * w_lane
                slack = X[lead_cur] - X[0] - model.follow_distance
                engaged = still_on_lane & \
                    (slack <= KEEP_ENGAGE_TIME * np.maximum(VS[0], 1.0))
                a_keep = pd_longitudinal(X[0], VS[0], X[lead_cur] - model.follow_distance,
                                         np.minimum(VS[lead_cur], world.v_des[e]), True,
                                         model.gains, a_max[e])
                a_e = np.where(engaged, np.minimum(a_e, a_keep), a_e)

            # --- surrounding vehicles: modified IDM, partner beta set by the group
            # action; the shared block is evaluated on one column
            A = np.empty((n_inf, n_cols))
            A[0] = a_e
            A[sv_inf] = _idm_block(X, Y, TH, VS, sv_inf, lead[sv_inf], kappa_inf, ego_watch,
                                   v_des[sv_inf], a_lim[sv_inf], idm)
            a_shared = _idm_block(X[:, :1], Y[:, :1], TH[:, :1], VS[:, :1], slice(n_inf, V),
                                  lead[n_inf:], kappa_assert, False, v_des[n_inf:],
                                  a_lim[n_inf:], idm)
            D = np.zeros((n_inf, n_cols))
            D[0] = delta_e
            period_inputs.append((A, D))
            shared_inputs[:, t, 0] = a_shared[:, 0]

            stepped_inf = step_bicycle(X[:n_inf], Y[:n_inf], TH[:n_inf], VS[:n_inf],
                                       A, D, cfg.dt, wb[:n_inf])
            stepped_shared = step_bicycle(X[n_inf:, :1], Y[n_inf:, :1], TH[n_inf:, :1],
                                          VS[n_inf:, :1], a_shared, 0.0, cfg.dt, wb[n_inf:])
            X, Y, TH, VS = (np.empty((V, n_cols)) for _ in range(4))
            for arr, a_inf, a_sh in zip((X, Y, TH, VS), stepped_inf, stepped_shared):
                arr[:n_inf] = a_inf
                arr[n_inf:] = a_sh

        # the period's rows, keyed by (row of period d-1, inputs over period d);
        # only each row's first (vehicle, column) is gathered
        first, group = _distinct_keys(prev, [u.ravel() for step in period_inputs
                                             for u in step])
        j, c = np.divmod(first, n_cols)
        seg_states = np.empty((len(first), S, 4))
        seg_inputs = np.empty((len(first), S, 2))
        for s in range(S):
            for k, arr in enumerate(period_states[s]):
                seg_states[:, s, k] = arr[j, c]
            for k, arr in enumerate(period_inputs[s]):
                seg_inputs[:, s, k] = arr[j, c]
        segments.append((seg_states, seg_inputs, prev[first]))
        group = group.reshape(n_inf, n_cols)

    # the table: vehicle blocks in vehicle order, a shared vehicle's block one
    # row; the leaf rows come grouped by working row (first occurrence is j-major)
    rows_per_vehicle = np.ones(V, dtype=np.intp)
    rows_per_vehicle[inf_ids] = np.bincount(j, minlength=n_inf)
    block_start = np.concatenate(([0], np.cumsum(rows_per_vehicle)))
    leaf_start = np.concatenate(([0], np.cumsum(rows_per_vehicle[inf_ids])))
    at = block_start[inf_ids[j]] + np.arange(len(j)) - leaf_start[j]   # leaf row -> table row
    traj_states = np.empty((block_start[-1], T + 1, 4))
    traj_inputs = np.empty((block_start[-1], T, 2))
    for k, arr in enumerate((X, Y, TH, VS)):
        shared_states[:, T, k] = arr[n_inf:, 0]
        traj_states[at, T, k] = arr[j, c]
    traj_states[block_start[shared_ids]] = shared_states
    traj_inputs[block_start[shared_ids]] = shared_inputs
    row = np.arange(len(j))   # each leaf row's row of period d, walking back
    for d in reversed(range(cfg.horizon)):
        seg_states, seg_inputs, prev_row = segments[d]
        traj_states[at, d * S:(d + 1) * S] = seg_states[row]
        traj_inputs[at, d * S:(d + 1) * S] = seg_inputs[row]
        row = prev_row[row]

    rows = np.empty((K, V), dtype=np.intp)
    rows[:, shared_ids] = block_start[shared_ids]
    rows[:, inf_ids] = at[group[:, inv]].T
    return BatchRollout(tuples, traj_states, traj_inputs, rows, block_start, partner_ids,
                        cfg.dt)
