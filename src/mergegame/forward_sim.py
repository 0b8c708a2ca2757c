"""Multi-vehicle forward simulation of action tuples over the planning horizon.

All action tuples of one planning cycle are rolled out together on flat numpy
arrays: the ego follows its decision sequence through the gap reference / PD /
pure-pursuit stack, surrounding vehicles follow the modified IDM with zero
heading and steering, and the tuple's group action sets the interaction
partner's willingness to yield.

The tuples form a search tree over the ego's decisions, and simulate_batch
walks it one decision period per depth. At depth d a column stands for every
tuple with the same key (group action, interaction partner, decisions 0..d):
those tuples have had the same inputs so far. The partner is part of the key
from the root on, because the partner is fixed by the whole sequence and acts
from t = 0 (yield discount, watching a probing ego). At each depth boundary
the columns split where the next decision differs, each starting from its
parent's state.

Inside the columns, vehicle states are entities held in flat arrays, and a
(V, columns) index gives each column's entity of each vehicle. Each substep
steps the ego once per column, and a surrounding vehicle once per distinct
(own entity, leader entity, and the ego's entity and lateral discount where
they reach its input). Most surrounding vehicles move the same way in every
column and are stepped once.

The result is a table of distinct vehicle trajectories, built during the
walk: at the end of each period a vehicle's row in a column is its row of the
previous period plus its inputs over this one, and entities with equal keys
share the row. A (K, V) index gives each tuple's row of each vehicle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .actions import DecisionSequence, GapChoice, LateralDecision, SvAction
from .control import (IdmSettings, PdGains, PurePursuitParams, gap_reference, idm_accel,
                      lateral_discount, pd_longitudinal, pure_pursuit, virtual_gap_distance)
from .dynamics import step_bicycle
from .world import WorldSnapshot

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


# simulate_batch's bound on K * V, which bounds the vehicle states of one
# substep: it keeps the packed surrounding-vehicle keys (below 2 n^3 for n
# states) inside int64
_MAX_STATES = 2 ** 20

# Time headroom (s) of the ego's keep-lane governor: it engages once the gap
# beyond the follow point is within this many seconds of ego travel
KEEP_ENGAGE_TIME = 0.8


@dataclass
class BatchRollout:
    """Rollouts of many action tuples, as a table of distinct vehicle trajectories.

    traj_states (R, T+1, 4) and traj_inputs (R, T, 2) hold each distinct
    trajectory of a vehicle once, grouped by vehicle: vehicle v owns rows
    block_start[v]:block_start[v + 1]. rows[k, v] is the row that vehicle v
    follows in tuple k. period_rows[r, d] names the segment that row r passes
    through in decision period d, S = T / H steps long: rows with equal
    period_rows[:, d] hold bit-equal traj_states over steps d*S .. d*S + S - 1,
    and over step T too for the last period. No two vehicles share a segment,
    and segment names lie in [0, R). states (K, V, T+1, 4) and inputs
    (K, V, T, 2) build the per-tuple arrays on first use and keep them; no
    planner path reads them.
    """

    tuples: list[tuple[SvAction, DecisionSequence]]
    traj_states: np.ndarray   # (R, T+1, 4)
    traj_inputs: np.ndarray   # (R, T, 2)
    rows: np.ndarray          # (K, V) table row of each tuple's vehicle
    block_start: np.ndarray   # (V+1,) first row of each vehicle's block
    period_rows: np.ndarray   # (R, H) segment of each row in each decision period
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


def _sv_leads(X, Y, TH, VS, own, lead, ego, kappa, watch):
    """Leader inputs of the modified IDM for surrounding-vehicle entries.

    Entry i is the state own[i] (an index into X, Y, TH, VS) with its physical
    leader's state lead[i] (-1 for none), the ego's state ego[i] and the
    lateral discount kappa[i]. Where watch[i] holds and the ego is level or
    ahead, the ego is a second, virtual leader, and the nearer of the two
    governs. Returns (d_lead, v_lead, has_lead, use_ego) for control.idm_accel.
    """
    x, y = X[own], Y[own]
    has_phys = lead >= 0
    li = np.where(has_phys, lead, 0)
    d_phys = np.where(has_phys, virtual_gap_distance(X[li], Y[li], x, y, kappa), np.inf)
    v_phys = np.where(has_phys, VS[li], 0.0)
    d_ego = virtual_gap_distance(X[ego], Y[ego], x, y, kappa)
    use_ego = watch & (X[ego] >= x) & (d_ego < d_phys)
    d_lead = np.where(use_ego, d_ego, d_phys)
    v_lead = np.where(use_ego, VS[ego] * np.cos(TH[ego]), v_phys)
    return d_lead, v_lead, has_phys | use_ego, use_ego


def _group_codes(code):
    """Group equal ints: returns (first, group), with group[i] the rank of
    code[i] among the distinct values and first[g] the first index holding
    the g-th value."""
    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    starts = np.empty(len(code), dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_code[1:], sorted_code[:-1], out=starts[1:])
    group = np.empty(len(code), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


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
    first, group = _group_codes(_key_hash(prev, values))
    if not all(np.array_equal(b[first][group], b) for b in bits):
        seen = {}
        group = np.array([seen.setdefault(key.tobytes(), len(seen))
                          for key in np.column_stack(bits)], dtype=np.intp)
        return _group_codes(group)[0], group
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
    period d there is one column per distinct key (group action, interaction
    partner, decisions 0..d): tuples with equal keys have equal states up to
    the end of period d, so they share a column until their decisions part.
    The partner belongs in the key although it is taken from the last
    lane-change step of the whole sequence: from t = 0 on it gets the yield
    discount under the YIELD action and watches a probing ego as a virtual
    leader. At each depth boundary every column of period d starts from its
    parent column of period d-1.

    Vehicles are entities: flat state arrays hold the current vehicle
    states, each once per distinct key that produced it, and a (V, columns)
    index gives each column's entity of each vehicle. Each substep makes one entry per distinct input key,
    evaluates the ego's laws and the modified IDM once each over their
    entries, and steps all entries from their parent entities in one
    step_bicycle call:
    - the ego gets one entry per column;
    - a surrounding vehicle's input depends on its own entity, its physical
      leader's entity (the ego's, where the ego leads it), and, for the
      column's partner only, on the ego's entity and the lateral discount
      where the ego is its virtual leader, and on the discount where its
      physical leader is off its lane line. use_ego is evaluated at the
      partners' entries alone. A vehicle gets one entry per distinct key,
      and a single one when its own and its leader's entities are the same
      in every column and no partner term tells the columns apart.
    Every step is elementwise over the entries, so each tuple's values are
    those of stepping it alone.

    At the end of period d, a vehicle's table row in a column is its row of
    period d-1 plus its inputs (a, delta) over period d, and entities that
    agree on both, bit for bit, share the row: a step is elementwise, so
    equal inputs from an equal state give equal states. Period d+1 starts
    from these rows, and each leaf row's trajectory is assembled from its
    ancestors' segments; period_rows records which ones.
    """
    tuples = list(tuples)
    if not tuples:
        raise ValueError("need at least one action tuple")
    K, V, T, S, H = len(tuples), world.n_vehicles, cfg.steps, cfg.substeps, cfg.horizon
    if K * V >= _MAX_STATES:
        raise ValueError(f"{K} tuples of {V} vehicles exceed {_MAX_STATES} vehicle states")
    e = world.ego_index

    # decision codes (K, H) and partner gaps, cached on each sequence
    sv_actions, seqs = zip(*tuples)
    codes = [seq.codes for seq in seqs]
    if set(map(len, codes)) != {H}:
        raise ValueError("decision sequence length must equal the decision horizon")
    dec = np.fromiter(chain.from_iterable(codes), dtype=np.intp, count=K * H).reshape(K, H)
    sv_code = np.fromiter(sv_actions, dtype=np.intp, count=K)
    sv_is_yield = sv_code == SvAction.YIELD

    # gap bounds and leader chain resolved once per cycle; each tuple's
    # partner is its sequence's partner gap mapped to that gap's rear bound
    lead = world.leader_indices(include_ego=True)
    gaps_map = world.resolve_gaps(lead)

    def vehicle(vid):
        return world.index_of(vid) if vid is not None else -1

    partner_of = {g: gaps_map[g].partner_id for g in GapChoice}
    partner_of[None] = None
    partner_gap = [seq.partner_gap for seq in seqs]
    partner_ids = tuple(map(partner_of.__getitem__, partner_gap))
    partner_idx = np.fromiter(map({g: vehicle(p) for g, p in partner_of.items()}.__getitem__,
                                  partner_gap), dtype=np.intp, count=K)
    front_by_gap = np.array([vehicle(gaps_map[g].front_id) for g in GapChoice])
    rear_by_gap = np.array([vehicle(gaps_map[g].rear_id) for g in GapChoice])
    has_lead = lead >= 0
    lead_cur = lead[e]
    is_sv = np.arange(V) != e

    wheelbase, _, _, a_max, delta_max = world.params_arrays()
    v_des = world.v_des
    lanes = world.lanes
    w_lane = lanes.width
    idm = model.idm
    kappa_assert = lateral_discount(idm.beta_assert, w_lane)
    kappa_yield = lateral_discount(idm.beta_yield, w_lane)

    ego_lane_center = lanes.nearest_center(float(world.states[e, 1]))
    # indexed by LateralDecision value: LANE_KEEP, LEFT_CHANGE, LEFT_PROBE
    line_by_lat = np.array([ego_lane_center, lanes.target_center, lanes.probe_line])

    # per period: each of its rows' (states, inputs) segment, and its row of
    # the period before
    segments = []

    # before the first decision the key is (group action, partner); all such
    # columns start from the initial state, whose entities (and rows) are the
    # vehicles themselves
    inv = _group_codes(sv_code * (V + 1) + partner_idx + 1)[1]
    X, Y, TH, VS = world.states.T
    start_ent = np.repeat(np.arange(V)[:, None], inv.max() + 1, axis=1)

    for d in range(H):
        rep, inv_d = _group_codes(inv * 9 + dec[:, d])
        ent = start_ent[:, inv[rep]]
        inv = inv_d

        # the column's decision, partner and group action, from its representative tuple
        n_cols = len(rep)
        cols = np.arange(n_cols)
        gap_t, lat_t = np.divmod(dec[rep, d], 3)
        line = line_by_lat[lat_t]
        fi = front_by_gap[gap_t]
        ri = rear_by_gap[gap_t]
        has_f, has_r = fi >= 0, ri >= 0
        fi, ri = np.where(has_f, fi, 0), np.where(has_r, ri, 0)
        partner = partner_idx[rep]
        yields = sv_is_yield[rep]
        ego_probing = (lat_t == int(LateralDecision.LEFT_CHANGE)) | \
                      (lat_t == int(LateralDecision.LEFT_PROBE))
        # each column's partner, its leader and its discount
        pc = np.flatnonzero(partner >= 0)
        p_sv, p_yields = partner[pc], yields[pc]
        p_lead = lead[p_sv]
        p_kappa = np.where(p_yields, kappa_yield, kappa_assert)
        const = (ent == ent[:, :1]).all(axis=1)   # same entity in every column

        states, inputs, parents = [], [], []   # per substep
        for s in range(S):
            eg = ent[e]

            # --- ego lateral: pure pursuit onto the decision's target line
            delta_e = pure_pursuit(Y[eg], TH[eg], VS[eg], line, wheelbase[e],
                                   model.pursuit, delta_max[e])

            # --- ego longitudinal: PD on the rule-based gap reference
            ef, er = ent[fi, cols], ent[ri, cols]
            x_tgt, v_tgt = gap_reference(X[ef], VS[ef], has_f, X[er], has_r,
                                         v_des[e], model.d_safe, model.follow_distance)
            a_e = pd_longitudinal(X[eg], VS[eg], x_tgt, v_tgt, has_f, model.gains, a_max[e])

            # until the ego has mostly crossed, its command may not drive it into
            # the leader of the lane it is still occupying; the governor engages
            # once that leader is within the follow point plus a time headroom
            if lead_cur >= 0:
                el = ent[lead_cur]
                still_on_lane = np.abs(lanes.target_center - Y[eg]) > 0.25 * w_lane
                slack = X[el] - X[eg] - model.follow_distance
                engaged = still_on_lane & \
                    (slack <= KEEP_ENGAGE_TIME * np.maximum(VS[eg], 1.0))
                a_keep = pd_longitudinal(X[eg], VS[eg], X[el] - model.follow_distance,
                                         np.minimum(VS[el], v_des[e]), True,
                                         model.gains, a_max[e])
                a_e = np.where(engaged, np.minimum(a_e, a_keep), a_e)

            # --- surrounding vehicles: modified IDM, partner beta set by the
            # group action. Only the partner's input can tell columns with
            # equal entities apart: by the ego's entity and the discount where
            # the ego leads it, and by the discount where its physical leader
            # is off its lane line. extra codes both at each column's partner.
            p_own = ent[p_sv, pc]
            p_lead_ent = np.where(p_lead >= 0, ent[p_lead, pc], -1)
            use_ego = _sv_leads(X, Y, TH, VS, p_own, p_lead_ent, eg[pc], p_kappa,
                                ego_probing[pc])[3]
            off_line = (p_lead_ent >= 0) & (Y[p_lead_ent] != Y[p_own])
            extra = np.zeros(n_cols, dtype=np.intp)
            extra[pc] = np.where(use_ego, 2 + 2 * eg[pc] + p_yields, p_yields & off_line)
            told_apart = np.zeros(V, dtype=bool)
            told_apart[partner[extra != 0]] = True
            # one entry for a vehicle that every column sees alike; the others
            # get one per distinct key (own entity, leader entity, extra)
            alone = is_sv & const & (~has_lead | const[lead]) & ~told_apart
            single = np.flatnonzero(alone)
            keyed = np.flatnonzero(is_sv & ~alone)
            n_ent = len(X) + 1   # entity index + 1 < n_ent, extra < 2 * n_ent
            first, group = _group_codes(
                ((ent[keyed] * n_ent + np.where(has_lead[keyed, None], ent[lead[keyed]] + 1, 0))
                 * (2 * n_ent) + np.where(partner == keyed[:, None], extra, 0)).ravel())
            k_row, k_col = np.divmod(first, n_cols)

            sv = np.concatenate((single, keyed[k_row]))
            sc = np.concatenate((np.zeros(len(single), dtype=np.intp), k_col))
            own_e = ent[sv, sc]
            sv_partner = partner[sc] == sv
            d_lead, v_lead, has_l, _ = _sv_leads(
                X, Y, TH, VS, own_e, np.where(has_lead[sv], ent[lead[sv], sc], -1), eg[sc],
                np.where(sv_partner & yields[sc], kappa_yield, kappa_assert),
                sv_partner & ego_probing[sc])
            a_sv = np.clip(idm_accel(VS[own_e], v_lead, d_lead, has_l, v_des[sv], idm),
                           -a_max[sv], a_max[sv])

            # --- step every entry: [ego, one per column | surrounding vehicles]
            parent = np.concatenate((eg, own_e))
            A = np.concatenate((a_e, a_sv))
            D = np.concatenate((delta_e, np.zeros(len(sv))))
            states.append((X, Y, TH, VS))
            inputs.append((A, D))
            parents.append(parent)
            X, Y, TH, VS = step_bicycle(X[parent], Y[parent], TH[parent], VS[parent], A, D,
                                        cfg.dt, np.concatenate((np.full(n_cols, wheelbase[e]),
                                                                wheelbase[sv])))
            ent = np.empty_like(ent)
            ent[e] = cols
            ent[single] = n_cols + np.arange(len(single))[:, None]
            ent[keyed] = n_cols + len(single) + group.reshape(len(keyed), n_cols)
            const[single] = True
            const[keyed] = np.bincount(k_row, minlength=len(keyed)) == 1
            const[e] = n_cols == 1

        # the period's rows, keyed by (row of period d-1, inputs over period d);
        # each final entry's path of entries is walked back to its start row
        path = [None] * S
        j = np.arange(len(X))
        for s in reversed(range(S)):
            path[s] = j
            j = parents[s][j]
        first, group = _distinct_keys(j, [u[path[s]] for s in range(S) for u in inputs[s]])
        seg_states = np.empty((len(first), S, 4))
        seg_inputs = np.empty((len(first), S, 2))
        for s in range(S):
            at = path[s][first]
            for k, arr in enumerate(states[s]):
                seg_states[:, s, k] = arr[parents[s][at]]
            for k, arr in enumerate(inputs[s]):
                seg_inputs[:, s, k] = arr[at]
        segments.append((seg_states, seg_inputs, j[first]))
        X, Y, TH, VS = (arr[first] for arr in (X, Y, TH, VS))
        start_ent = group[ent]

    # the table: leaf rows sorted into vehicle blocks
    veh = np.empty(len(X), dtype=np.intp)   # each leaf row's vehicle
    veh[start_ent] = np.arange(V)[:, None]
    block_start = np.concatenate(([0], np.cumsum(np.bincount(veh, minlength=V))))
    at = np.empty(len(veh), dtype=np.intp)   # leaf row -> table row
    at[np.argsort(veh, kind="stable")] = np.arange(len(veh))
    traj_states = np.empty((len(veh), T + 1, 4))
    traj_inputs = np.empty((len(veh), T, 2))
    period_rows = np.empty((len(veh), H), dtype=np.intp)
    for k, arr in enumerate((X, Y, TH, VS)):
        traj_states[at, T, k] = arr
    row = np.arange(len(veh))   # each leaf row's row of period d, walking back
    for d in reversed(range(H)):
        seg_states, seg_inputs, prev_row = segments[d]
        traj_states[at, d * S:(d + 1) * S] = seg_states[row]
        traj_inputs[at, d * S:(d + 1) * S] = seg_inputs[row]
        period_rows[at, d] = row
        row = prev_row[row]

    rows = at[start_ent[:, inv]].T
    return BatchRollout(tuples, traj_states, traj_inputs, rows, block_start, period_rows,
                        partner_ids, cfg.dt)
