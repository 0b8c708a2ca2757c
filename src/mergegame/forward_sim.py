"""Multi-vehicle forward simulation of the planning game's action tuples.

The game's columns are the ego's M decision sequences, and each is rolled out
under both group actions: K = 2M tuples in the matrix's row-major order, all
together on flat numpy arrays. The ego follows its decision sequence through
the gap reference / PD / pure-pursuit stack, surrounding vehicles follow the
modified IDM with zero heading and steering, and the tuple's group action
sets the interaction partner's willingness to yield.

The tuples form a search tree over the ego's decisions, and simulate_batch
walks it one decision period per depth. At depth d a column stands for every
tuple with the same key (group action, interaction partner, decisions 0..d):
those tuples have had the same inputs so far. The partner is part of the key
from the root on, because the partner is fixed by the whole sequence and acts
from t = 0 (yield discount, watching a probing ego). At each depth boundary
the columns split where the next decision differs, each starting from its
parent's state.

Inside the columns, vehicle states are entities: the columns of one (4, n)
state matrix, and a (V, columns) index gives each column's entity of each
vehicle. Each substep steps the ego once per column, and a surrounding vehicle
once per distinct (own entity, leader entity, and the ego's entity and
lateral discount where they reach its input). Most surrounding vehicles move
the same way in every column and are stepped once. A substep makes a fixed
number of numpy calls, whatever the number of columns: each law is evaluated
once over all of its entries, and all entries are stepped in one call.

The result is a table of distinct vehicle trajectories, built during the
walk: at the end of each period a vehicle's row in a column is its row of the
previous period plus its inputs over this one, and entities with equal keys
share the row. Keys are grouped by their bytes, and each period numbers its
rows by key rank. A (K, V) index gives each tuple's row of each vehicle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .actions import DecisionSequence, GapChoice, LateralDecision, SvAction
from .control import (IdmSettings, PdGains, PurePursuitParams, gap_reference, idm_accel,
                      lateral_discount, leader_inputs, pd_longitudinal, pure_pursuit,
                      virtual_gap_distance)
from .bounds import check
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
        check("SimConfig", self, ">=", 1, "horizon")
        check("SimConfig", self, ">", 0, "dt", "decision_period")
        check("SimConfig", self, "<", np.inf, "decision_period")   # round(inf) overflows
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
    follow_distance: float = 12.0

    def __post_init__(self):
        check("PlannerModel", self, ">=", -np.inf, "follow_distance")


# simulate_batch's bound on K * V, which bounds the vehicle states of one
# substep: it keeps the packed surrounding-vehicle keys (below 2 n^3 for n
# states) inside int64
_MAX_STATES = 2 ** 20

# Time headroom (s) of the ego's keep-lane governor: it engages once the gap
# beyond the follow point is within this many seconds of ego travel
KEEP_ENGAGE_TIME = 0.8


@dataclass
class BatchRollout:
    """Rollouts of the game's action tuples, as a table of distinct vehicle trajectories.

    cols holds the M ego sequences; tuple k = tuple_index(row, col), of K = 2M,
    is (SvAction(row), cols[col]), and partner_ids[k] is its partner.
    traj_states (R, T+1, 4) and traj_inputs (R, T, 2) hold each distinct
    trajectory of a vehicle once, grouped by vehicle: vehicle v owns rows
    block_start[v]:block_start[v + 1]. rows[k, v] is the row that vehicle v
    follows in tuple k. period_rows[r, d] names the segment that row r passes
    through in decision period d, S = T / H steps long: rows with equal
    period_rows[:, d] hold bit-equal traj_states over steps d*S .. d*S + S - 1,
    and over step T too for the last period. No two vehicles share a segment,
    and segment names lie in [0, R). Inside a block, rows follow the rank of
    their last period's key bytes (see simulate_batch). states (K, V, T+1, 4)
    and inputs (K, V, T, 2) build the per-tuple arrays on first use and keep
    them; no planner path reads them.
    """

    cols: tuple[DecisionSequence, ...]
    traj_states: np.ndarray   # (R, T+1, 4)
    traj_inputs: np.ndarray   # (R, T, 2)
    rows: np.ndarray          # (K, V) table row of each tuple's vehicle
    block_start: np.ndarray   # (V+1,) first row of each vehicle's block
    period_rows: np.ndarray   # (R, H) segment of each row in each decision period
    partner_ids: tuple[str | None, ...]   # (K,)
    dt: float

    @cached_property
    def states(self) -> np.ndarray:
        return self.traj_states[self.rows]

    @cached_property
    def inputs(self) -> np.ndarray:
        return self.traj_inputs[self.rows]

    def tuple_index(self, row, col):
        """Index k of the tuple (SvAction(row), cols[col]); elementwise on arrays."""
        return row * len(self.cols) + col

    def vehicle_inputs(self, k, v) -> np.ndarray:
        """(..., T, 2) inputs of vehicle(s) v in tuple(s) k, read from the table."""
        return self.traj_inputs[self.rows[k, v]]


def _group_codes(code):
    """Group equal values of the 1-D array code (ints, or fixed-width byte
    records compared by their bytes): returns (first, group), with group[i]
    the rank of code[i] among the distinct values and first[g] the first
    index holding the g-th value."""
    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    starts = np.empty(len(code), dtype=bool)
    starts[:1] = True
    starts[1:] = sorted_code[1:] != sorted_code[:-1]
    group = np.empty(len(code), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


def simulate_batch(world: WorldSnapshot, seqs, cfg: SimConfig,
                   model: PlannerModel) -> BatchRollout:
    """Roll out the M ego sequences seqs (any order, repeats allowed) under
    both group actions from the shared initial world state: K = 2M tuples,
    tuple k being (SvAction(k // M), seqs[k % M]).

    Deterministic: no randomness enters the rollouts, and identical inputs
    produce identical arrays. Collisions never abort a rollout: the safety
    cost of build_game_from_batch penalizes them. Returns the trajectory
    table of the tuples, with seqs as its cols.

    The rollouts are stepped as a tree, one decision period per depth. During
    period d there is one column per distinct key (group action, interaction
    partner, decisions 0..d): tuples with equal keys have equal states up to
    the end of period d, so they share a column until their decisions part.
    The partner belongs in the key although it is taken from the last
    lane-change step of the whole sequence: from t = 0 on it gets the yield
    discount under the YIELD action and watches a probing ego as a virtual
    leader. At each depth boundary every column of period d starts from its
    parent column of period d-1.

    Vehicles are entities: the columns of a (4, n) state matrix (x, y,
    theta, v) hold the current vehicle states, each once per distinct key
    that produced it, and a (V + 1, columns) index gives each column's entity
    of each vehicle; its last row is -1, the entity of "no leader". Each
    substep runs in four passes, each one set of numpy calls over all of its
    entries:
    - ego: one entry per column. Its state is gathered once, and pure
      pursuit, the gap reference, the PD law and the keep-lane governor read
      it from there.
    - partner pass: one entry per column that has a partner. It computes the
      partner's leader inputs once: its physical leader under the group
      action's discount and, where it watches a probing ego that is level or
      ahead, the ego as a virtual leader, the nearer of the two governing.
      Whether the ego governs (use_ego) and whether the physical leader is
      off the partner's lane line are what can tell columns with equal
      entities apart.
    - keys: a surrounding vehicle's input depends on its own entity, its
      physical leader's entity (the ego's, where the ego leads it), and, at
      the column's partner only, on the partner-pass terms above. A vehicle
      gets one entry per distinct key, and a single one when its own and its
      leader's entities are the same in every column and no partner term
      tells the columns apart.
    - main pass: every surrounding-vehicle entry is evaluated against its
      physical leader under the assert discount, and the partner entries then
      take the partner pass's inputs of their column; the modified IDM runs
      once over all entries.
    All entries are then stepped from their parent entities in one
    step_bicycle call. Every step is elementwise over the entries, so each
    tuple's values are those of stepping it alone.

    At the end of period d, a vehicle's table row in a column is its row of
    period d-1 plus its inputs (a, delta) over period d, and entities that
    agree on both, bit for bit, share the row: a step is elementwise, so
    equal inputs from an equal state give equal states. Period d+1 starts
    from these rows, and each leaf row's trajectory is assembled from its
    ancestors' segments; period_rows records which ones. Each key is a row
    of one uint64 matrix (row of period d-1, then the bits of each substep's
    a and delta). _group_codes sorts the rows as byte records, so keys are
    grouped by their bytes, and the period's rows are numbered by key rank.
    """
    seqs = tuple(seqs)
    if not seqs:
        raise ValueError("need at least one decision sequence")
    M, V, T, S, H = len(seqs), world.n_vehicles, cfg.steps, cfg.substeps, cfg.horizon
    K = len(SvAction) * M
    if K * V >= _MAX_STATES:
        raise ValueError(f"{K} tuples of {V} vehicles exceed {_MAX_STATES} vehicle states")
    e = world.ego_index

    # tuple k is (SvAction(k // M), seqs[k % M]); decision codes (M, H) and
    # partner gaps, cached on each sequence, are read once per sequence
    sv_code, seq_index = np.divmod(np.arange(K), M)
    sv_is_yield = sv_code == SvAction.YIELD
    codes = [seq.codes for seq in seqs]
    if set(map(len, codes)) != {H}:
        raise ValueError("decision sequence length must equal the decision horizon")
    dec = np.fromiter(chain.from_iterable(codes), dtype=np.intp,
                      count=M * H).reshape(M, H)[seq_index]

    # gap bounds and leader chain resolved once per cycle; each tuple's
    # partner is its sequence's partner gap mapped to that gap's rear bound
    lead = world.leader_indices(include_ego=True)
    gaps_map = world.resolve_gaps(lead)

    def vehicle(vid):
        return world.index_of(vid) if vid is not None else -1

    partner_of = {g: gaps_map[g].partner_id for g in GapChoice}
    partner_of[None] = None
    partner_gap = [seq.partner_gap for seq in seqs]
    partner_ids = tuple(map(partner_of.__getitem__, partner_gap)) * len(SvAction)
    partner_idx = np.fromiter(map({g: vehicle(p) for g, p in partner_of.items()}.__getitem__,
                                  partner_gap), dtype=np.intp, count=M)[seq_index]
    front_by_gap = np.array([vehicle(gaps_map[g].front_id) for g in GapChoice])
    rear_by_gap = np.array([vehicle(gaps_map[g].rear_id) for g in GapChoice])
    lead_cur = lead[e]
    lead_row = np.where(lead >= 0, lead, V)   # each vehicle's leader's row of ent
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
    # vehicles themselves. P holds the entity states by column (rows x, y,
    # theta, v). ent[v, column] is vehicle v's entity, and its extra last
    # row V, -1 in every column, is the entity of "no leader"
    inv = _group_codes(sv_code * (V + 1) + partner_idx + 1)[1]
    P = np.array(world.states.T)
    start_ent = np.repeat(np.append(np.arange(V), -1)[:, None], inv.max() + 1, axis=1)

    for d in range(H):
        rep, inv_d = _group_codes(inv * 9 + dec[:, d])
        ent = start_ent[:, inv[rep]]
        inv = inv_d

        # the column's decision, partner and group action, from its representative
        # tuple. *_at are flat positions in ent: a vehicle's entity in a column
        n_cols = len(rep)
        cols = np.arange(n_cols)
        gap_t, lat_t = np.divmod(dec[rep, d], 3)
        line = line_by_lat[lat_t]
        fi = front_by_gap[gap_t]
        ri = rear_by_gap[gap_t]
        has_f, has_r = fi >= 0, ri >= 0
        f_at = np.where(has_f, fi, 0) * n_cols + cols
        r_at = np.where(has_r, ri, 0) * n_cols + cols
        partner = partner_idx[rep]
        yields = sv_is_yield[rep]
        ego_probing = (lat_t == int(LateralDecision.LEFT_CHANGE)) | \
                      (lat_t == int(LateralDecision.LEFT_PROBE))
        # each column's partner: its leader, its discount, whether it watches
        # a probing ego, and its position in the partner pass (p_pos, by column)
        pc = (partner >= 0).nonzero()[0]
        p_sv, p_yields, p_probing = partner[pc], yields[pc], ego_probing[pc]
        p_has_lead = lead[p_sv] >= 0
        p_kappa = np.where(p_yields, kappa_yield, kappa_assert)
        p_own_at = p_sv * n_cols + pc
        p_lead_at = lead_row[p_sv] * n_cols + pc
        p_pos = np.zeros(n_cols, dtype=np.intp)
        p_pos[pc] = np.arange(len(pc))
        const = (ent == ent[:, :1]).all(axis=1)   # same entity in every column

        states, inputs, parents = [], [], []   # per substep
        for s in range(S):
            X, Y, _, VS = P
            eg = ent[e]
            xe, ye, the, ve = P.take(eg, axis=1)

            # --- ego lateral: pure pursuit onto the decision's target line
            delta_e = pure_pursuit(ye, the, ve, line, wheelbase[e], model.pursuit, delta_max[e])

            # --- ego longitudinal: PD on the rule-based gap reference
            ef, er = ent.take(f_at), ent.take(r_at)
            x_tgt, v_tgt = gap_reference(X[ef], VS[ef], has_f, X[er], has_r,
                                         v_des[e], model.follow_distance)
            a_e = pd_longitudinal(xe, ve, x_tgt, v_tgt, has_f, model.gains, a_max[e])

            # until the ego has mostly crossed, its command may not drive it into
            # the leader of the lane it is still occupying; the governor engages
            # once that leader is within the follow point plus a time headroom
            if lead_cur >= 0:
                el = ent[lead_cur]
                x_l, v_l = X[el], VS[el]
                still_on_lane = np.abs(lanes.target_center - ye) > 0.25 * w_lane
                slack = x_l - xe - model.follow_distance
                engaged = still_on_lane & \
                    (slack <= KEEP_ENGAGE_TIME * np.maximum(ve, 1.0))
                a_keep = pd_longitudinal(xe, ve, x_l - model.follow_distance,
                                         np.minimum(v_l, v_des[e]), True,
                                         model.gains, a_max[e])
                a_e = np.where(engaged, np.minimum(a_e, a_keep), a_e)

            # --- partner pass, at each column's partner: the group action sets
            # its discount, and where it watches a probing ego that is level or
            # ahead, the ego is a second, virtual leader and the nearer governs
            p_own, p_lead = ent.take(p_own_at), ent.take(p_lead_at)
            x_p, y_p = X[p_own], Y[p_own]
            p_d, p_v, p_has = leader_inputs(P, x_p, y_p, p_lead, p_kappa)
            eg_p = eg[pc]
            xe_p, ye_p, the_p, ve_p = P.take(eg_p, axis=1)
            d_ego = virtual_gap_distance(xe_p, ye_p, x_p, y_p, p_kappa)
            use_ego = p_probing & (xe_p >= x_p) & (d_ego < p_d)
            p_d = np.where(use_ego, d_ego, p_d)
            p_v = np.where(use_ego, ve_p * np.cos(the_p), p_v)
            p_has |= use_ego

            # --- surrounding vehicles: modified IDM. Only the partner's input
            # can tell columns with equal entities apart: by the ego's entity
            # and the discount where the ego leads it, and by the discount
            # where its physical leader is off its lane line. extra codes both
            # at each column's partner.
            off_line = p_has_lead & (Y[p_lead] != y_p)
            extra = np.zeros(n_cols, dtype=np.intp)
            extra[pc] = np.where(use_ego, 2 + 2 * eg_p + p_yields, p_yields & off_line)
            # one entry for a vehicle that every column sees alike; the others
            # get one per distinct key (own entity, leader entity, extra)
            alone = is_sv & const[:V] & const[lead_row]
            alone[partner[extra != 0]] = False
            single = alone.nonzero()[0]
            keyed = (is_sv & ~alone).nonzero()[0]
            n_ent = P.shape[1] + 1   # entity index + 1 < n_ent, extra < 2 * n_ent
            first, group = _group_codes(
                ((ent.take(keyed, axis=0) * n_ent + ent.take(lead_row[keyed], axis=0) + 1)
                 * (2 * n_ent) + np.where(partner == keyed[:, None], extra, 0)).ravel())
            k_row, k_col = np.divmod(first, n_cols)

            # an entry's leader inputs: its physical leader under the assert
            # discount, or, at its column's partner, the partner pass
            sv = np.concatenate((single, keyed[k_row]))
            sc = np.concatenate((np.zeros(len(single), dtype=np.intp), k_col))
            own_e = ent.take(sv * n_cols + sc)
            x, y, _, v = P.take(own_e, axis=1)
            d_lead, v_lead, has_l = leader_inputs(P, x, y, ent.take(lead_row[sv] * n_cols + sc),
                                                  kappa_assert)
            mine = (partner[sc] == sv).nonzero()[0]
            p_i = p_pos[sc[mine]]
            d_lead[mine], v_lead[mine], has_l[mine] = p_d[p_i], p_v[p_i], p_has[p_i]
            lim = a_max[sv]
            a_sv = np.minimum(np.maximum(
                idm_accel(v, v_lead, d_lead, has_l, v_des[sv], idm), -lim), lim)

            # --- step every entry: [ego, one per column | surrounding vehicles].
            # Surrounding vehicles do not steer, so their yaw rate is zero under
            # any wheelbase, and the ego's serves every entry
            parent = np.concatenate((eg, own_e))
            A = np.concatenate((a_e, a_sv))
            D = np.concatenate((delta_e, np.zeros(len(sv))))
            states.append(P)
            inputs.append((A, D))
            parents.append(parent)
            P = np.array(step_bicycle(*P.take(parent, axis=1), A, D, cfg.dt, wheelbase[e]))
            ent = np.empty_like(ent)
            ent[e] = cols
            ent[single] = n_cols + np.arange(len(single))[:, None]
            ent[keyed] = n_cols + len(single) + group.reshape(len(keyed), n_cols)
            ent[V] = -1
            const[single] = True
            const[keyed] = np.bincount(k_row, minlength=len(keyed)) == 1
            const[e] = n_cols == 1

        # the period's rows, keyed by (row of period d-1, inputs over period d);
        # each final entry's path of entries is walked back to its start row
        path = [None] * S
        j = np.arange(P.shape[1])
        for s in reversed(range(S)):
            path[s] = j
            j = parents[s][j]
        keys = np.empty((len(j), 1 + 2 * S), dtype=np.uint64)
        keys[:, 0] = j
        for s, (A, D) in enumerate(inputs):
            keys[:, 1 + 2 * s] = A[path[s]].view(np.uint64)
            keys[:, 2 + 2 * s] = D[path[s]].view(np.uint64)
        first, group = _group_codes(keys.view(np.dtype((np.void, keys.shape[1] * 8))).ravel())
        seg_states = np.empty((len(first), S, 4))
        for s in range(S):
            seg_states[:, s] = states[s].take(parents[s][path[s][first]], axis=1).T
        seg_inputs = keys[first, 1:].view(np.float64).reshape(len(first), S, 2)
        segments.append((seg_states, seg_inputs, j[first]))
        P = P.take(first, axis=1)
        start_ent = group[ent]
        start_ent[V] = -1

    # the table: leaf rows sorted into vehicle blocks
    start_ent = start_ent[:V]
    veh = np.empty(P.shape[1], dtype=np.intp)   # each leaf row's vehicle
    veh[start_ent] = np.arange(V)[:, None]
    block_start = np.concatenate(([0], np.cumsum(np.bincount(veh, minlength=V))))
    at = np.empty(len(veh), dtype=np.intp)   # leaf row -> table row
    at[np.argsort(veh, kind="stable")] = np.arange(len(veh))
    traj_states = np.empty((len(veh), T + 1, 4))
    traj_inputs = np.empty((len(veh), T, 2))
    period_rows = np.empty((len(veh), H), dtype=np.intp)
    traj_states[at, T] = P.T
    row = np.arange(len(veh))   # each leaf row's row of period d, walking back
    for d in reversed(range(H)):
        seg_states, seg_inputs, prev_row = segments[d]
        traj_states[at, d * S:(d + 1) * S] = seg_states[row]
        traj_inputs[at, d * S:(d + 1) * S] = seg_inputs[row]
        period_rows[at, d] = row
        row = prev_row[row]

    rows = at[start_ent[:, inv]].T
    return BatchRollout(seqs, traj_states, traj_inputs, rows, block_start, period_rows,
                        partner_ids, cfg.dt)
