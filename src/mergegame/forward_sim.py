"""Multi-vehicle forward simulation of the planning game's action tuples.

The game's columns are the ego's M decision sequences, and each is rolled out
under both group actions: K = 2M tuples in the matrix's row-major order, all
together on flat numpy arrays. The ego follows its decision sequence through
the gap reference / PD / pure-pursuit stack, surrounding vehicles follow the
modified IDM with zero heading and steering, and the tuple's group action
sets the interaction partner's willingness to yield.

The tuples form a search tree over the ego's decisions, and simulate_batch
walks it one decision period per depth, with the duplicate-state check of a
graph search: decision prefixes that end a period in the same world state,
under the same group action and partner, share one column from there on. It
goes in named phases: _layout once; per period _columns, which builds the
column key, then per substep _ego_pass, _partner_pass, _sv_pass and _step,
then _period_end; and _table at the end. Vehicle states are entities, each
stepped once per distinct input rather than once per tuple, and the result
is a table of distinct vehicle trajectories in tree order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .actions import DecisionSequence, LateralDecision, SvAction
from .control import (IdmSettings, PdGains, PurePursuitParams, gap_reference, idm_accel,
                      lateral_discount, leader_inputs, pd_longitudinal, pure_pursuit,
                      virtual_gap_distance)
from .bounds import MAX_STATES, check, check_finite, check_integer
from .dynamics import step_bicycle
from .world import WorldSnapshot

__all__ = ["SimConfig", "PlannerModel", "BatchRollout", "simulate_batch"]


@dataclass(frozen=True)
class SimConfig:
    """Horizon discretization: horizon decision slots of decision_period
    each, stepped every dt, so horizon * substeps steps of trajectory."""

    dt: float = 0.2
    horizon: int = 5
    decision_period: float = 1.0

    def __post_init__(self):
        check("sim", self, ">=", 1, "horizon")
        check_integer("sim", horizon=self.horizon)
        check("sim", self, ">", 0, "dt", "decision_period")
        ratio = self.decision_period / self.dt
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError("sim decision_period must be a positive integer multiple of dt")

    @property
    def substeps(self) -> int:
        return int(round(self.decision_period / self.dt))


@dataclass(frozen=True)
class PlannerModel:
    """Controller and car-following settings the planner assumes during rollouts."""

    gains: PdGains = field(default_factory=PdGains)
    pursuit: PurePursuitParams = field(default_factory=PurePursuitParams)
    idm: IdmSettings = field(default_factory=IdmSettings)
    follow_distance: float = 12.0

    def __post_init__(self):
        check_finite("model", self, "follow_distance")


# Time headroom (s) of the ego's keep-lane governor: it engages once the gap
# beyond the follow point is within this many seconds of ego travel
KEEP_ENGAGE_TIME = 0.8


@dataclass
class BatchRollout:
    """Rollouts of the game's action tuples, as a table of distinct vehicle trajectories.

    cols holds the M ego sequences; tuple k = row * M + col, of K = 2M, is
    (SvAction(row), cols[col]). partners[col] is column col's partner, as a
    vehicle index (-1: none), and partner_ids[k] is tuple k's, as an id.
    traj_states (R, T+1, 4) and traj_inputs (R, T, 2) hold each distinct
    trajectory of a vehicle once, grouped by vehicle: vehicle v owns rows
    block_start[v]:block_start[v + 1]. rows[k, v] is the row that vehicle v
    follows in tuple k. period_rows[r, d] names the segment that row r passes
    through in decision period d, S = T / H steps long: rows with equal
    period_rows[:, d] hold bit-equal traj_states over steps d*S .. d*S + S - 1,
    and over step T too for the last period. No two vehicles share a segment,
    and segment names lie in [0, R). Rows are in tree order: every column of
    period_rows is non-decreasing, so rows sort by their segment of period 0,
    then of period 1, and so on, and the rows of one vehicle or one segment
    are contiguous. states (K, V, T+1, 4) and inputs (K, V, T, 2) build the
    per-tuple arrays on first use and keep them; no planner path reads them.
    """

    cols: tuple[DecisionSequence, ...]
    traj_states: np.ndarray   # (R, T+1, 4)
    traj_inputs: np.ndarray   # (R, T, 2)
    rows: np.ndarray          # (K, V) table row of each tuple's vehicle
    block_start: np.ndarray   # (V+1,) first row of each vehicle's block
    period_rows: np.ndarray   # (R, H) segment of each row in each decision period
    partners: np.ndarray      # (M,) partner of each column (-1: none)
    partner_ids: tuple[str | None, ...]   # (K,)
    dt: float

    @cached_property
    def states(self) -> np.ndarray:
        return self.traj_states[self.rows]

    @cached_property
    def inputs(self) -> np.ndarray:
        return self.traj_inputs[self.rows]

    def column_inputs(self, col, v) -> np.ndarray:
        """(2, ..., T, 2) inputs (a, delta) of vehicle(s) v in column(s) col
        under each group action, read from the table; col and v broadcast."""
        return self.traj_inputs[self.rows.reshape(2, len(self.cols), -1)[:, col, v]]


def _group_codes(code):
    """Group equal values of the 1-D array code (ints, or fixed-width byte
    records compared by their bytes): returns (first, group), with group[i]
    the rank of code[i] among the distinct values and first[g] the first
    index holding the g-th value. Ints rank by value; records rank by their
    bytes, first byte first, so a big-endian unsigned field ranks by value
    and a native little-endian one does not."""
    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    starts = np.ones(len(code), dtype=bool)
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
    """
    lay = _layout(world, tuple(seqs), cfg, model)
    # the root columns, each starting from the vehicles themselves
    key, V = lay.root, world.n_vehicles
    start_ent = np.repeat(np.append(np.arange(V), -1)[:, None], key.max() + 1, axis=1)
    P, segments = np.array(world.states.T), []
    for d in range(cfg.horizon):
        per, key, ent, const = _columns(lay, d, key, start_ent)
        steps = []
        for _ in range(cfg.substeps):
            a_e, delta_e = _ego_pass(lay, per, P, ent)
            p_inputs, extra = _partner_pass(lay, per, P, ent)
            parent, a_sv, ent = _sv_pass(lay, per, P, ent, const, p_inputs, extra)
            P, step = _step(lay, P, parent, a_e, delta_e, a_sv)
            steps.append(step)
        P, start_ent, segment = _period_end(steps, P, ent)
        segments.append(segment)
    return _table(lay, segments, P, start_ent, key)


@dataclass(frozen=True)
class _Layout:
    """What the walk reads and never changes. Per tuple (K,): its group
    action sv_code, its decision codes dec (K, H), its partner's vehicle
    index partner and id partner_ids, and its root column root, the rank of
    its (group action, partner). bounds (2, 3) is resolve_gaps' table
    transposed: row 0 the front and row 1 the rear bound of each gap choice,
    as vehicle indices. line (3,) is the ego's lane line of each lateral
    decision. Per vehicle (V,): lead_row, its leader's row of an entity
    index (V: none), and is_sv. kappa (2,) is the lateral discount of each
    group action. A missing vehicle index is -1.
    """

    world: WorldSnapshot
    seqs: tuple[DecisionSequence, ...]
    cfg: SimConfig
    model: PlannerModel
    sv_code: np.ndarray
    dec: np.ndarray
    partner: np.ndarray
    partner_ids: tuple[str | None, ...]
    root: np.ndarray
    bounds: np.ndarray
    line: np.ndarray
    lead_row: np.ndarray
    is_sv: np.ndarray
    kappa: np.ndarray


def _layout(world, seqs, cfg, model) -> _Layout:
    """The walk's _Layout, after checking the sequences against the horizon
    and the state bound."""
    if not seqs:
        raise ValueError("need at least one decision sequence")
    M, V, H, e = len(seqs), world.n_vehicles, cfg.horizon, world.ego_index
    K = len(SvAction) * M
    if K * V >= MAX_STATES:
        raise ValueError(f"{K} tuples of {V} vehicles exceed {MAX_STATES} vehicle states")
    codes = [seq.codes for seq in seqs]   # cached on each sequence
    if set(map(len, codes)) != {H}:
        raise ValueError("decision sequence length must equal the decision horizon")
    sv_code, seq_index = np.divmod(np.arange(K), M)
    dec = np.fromiter(chain.from_iterable(codes), np.intp, M * H).reshape(M, H)[seq_index]

    # gap bounds and leader chain resolved once per cycle; each sequence's
    # partner is the rear bound of its partner gap, and a sequence that never
    # leaves its lane reads gap -1, the appended -1 (none)
    lead = world.leader_indices(include_ego=True)
    bounds = world.resolve_gaps(lead).T
    gap = [-1 if seq.partner_gap is None else seq.partner_gap for seq in seqs]
    rear, ids = np.append(bounds[1], -1)[gap], (*world.ids, None)
    lanes, idm = world.lanes, model.idm
    kappa = [lateral_discount(beta, lanes.width) for beta in (idm.beta_assert, idm.beta_yield)]
    partner = rear[seq_index]
    return _Layout(
        world, seqs, cfg, model, sv_code, dec, partner,
        tuple(ids[p] for p in rear.tolist()) * len(SvAction),
        _group_codes(sv_code * (V + 1) + partner + 1)[1], bounds,
        # indexed by LateralDecision value: LANE_KEEP, LEFT_CHANGE, LEFT_PROBE
        np.array([lanes.nearest_center(float(world.states[e, 1])), lanes.target_center,
                  lanes.probe_line]),
        np.where(lead >= 0, lead, V), np.arange(V) != e,
        np.array(kappa))   # indexed by SvAction value: ASSERT, YIELD


@dataclass(frozen=True)
class _Period:
    """What stays fixed over one period, by column (n,): the lane line of
    the column's decision; has_bound (2, n), whether its gap has a front
    and a rear bound, and bound_at (2, n), where their entities sit in the
    entity index (vehicle v's entity in column c is ent.flat[v * n + c]);
    its partner (-1: none) and p_pos, its entry in the partner pass where
    it has one. By partner-pass entry (m,), one per column pc that has a
    partner, in column order: that column's group action (1 yields),
    whether the ego probes, and p_at (2, m), where the partner's and its
    leader's entities sit.
    """

    line: np.ndarray
    has_bound: np.ndarray
    bound_at: np.ndarray
    partner: np.ndarray
    p_pos: np.ndarray
    pc: np.ndarray
    p_action: np.ndarray
    p_probing: np.ndarray
    p_at: np.ndarray


def _columns(lay, d, key, start_ent):
    """Period d's columns: one per distinct key (group action, partner, the
    table rows its vehicles start period d in, its decision in period d).
    Tuples with equal keys step equal inputs from equal states over period
    d, so they share a column; prefixes that reach the same states merge
    there, and stay merged until their decisions part. The merge is exact:
    _period_end numbers rows by (row of period d-1, input bits), whatever
    the number of columns, so the table is the one a column per decision
    prefix would give, byte for byte. The partner is in the key from the
    root on, because it is fixed by the whole sequence and acts from t = 0:
    it gets the yield discount under the YIELD action and watches a probing
    ego as a virtual leader.

    key (K,) is each tuple's column of period d-1 (for d = 0, its root
    column lay.root) and start_ent (V + 1, .) the entity index those
    columns end with. The parents with equal root and start rows are
    grouped first, with one _group_codes call on a record per parent.
    Returns the period's _Period, key (K,) of period d, each column's
    start entity index (V + 1, n), whose last row is -1, the entity of "no
    leader", and const (V + 1,), whether a row has the same entity in every
    column.
    """
    V = lay.world.n_vehicles
    record = np.empty((start_ent.shape[1], V + 1), dtype=np.intp)
    record[key, 0] = lay.root   # the same for every tuple of a column
    record[:, 1:] = start_ent[:V].T
    first, merged = _group_codes(record.view(np.dtype((np.void, record.strides[0]))).ravel())
    key, start_ent = merged[key], start_ent.take(first, axis=1)
    rep, key_d = _group_codes(key * 9 + lay.dec[:, d])   # rep: a tuple of each column

    n = len(rep)
    gap, lat = np.divmod(lay.dec[rep, d], 3)
    bound, partner = lay.bounds.take(gap, axis=1), lay.partner[rep]
    pc = (partner >= 0).nonzero()[0]
    per = _Period(lay.line[lat], bound >= 0, np.where(bound >= 0, bound, 0) * n + np.arange(n),
                  partner, np.cumsum(partner >= 0) - 1, pc, lay.sv_code[rep[pc]],
                  lat[pc] != LateralDecision.LANE_KEEP,   # a change or a probe
                  np.array([partner[pc], lay.lead_row[partner[pc]]]) * n + pc)
    ent = start_ent.take(key[rep], axis=1)
    return per, key_d, ent, (ent == ent[:, :1]).all(axis=1)


def _ego_pass(lay, per, P, ent):
    """The ego's inputs (a, delta), one entry per column (n,): pure pursuit
    onto the decision's lane line, and PD on the rule-based gap reference
    under the keep-lane governor. Its state is gathered once."""
    world, model, e = lay.world, lay.model, lay.world.ego_index
    xe, ye, the, ve = P.take(ent[e], axis=1)
    delta_e = pure_pursuit(ye, the, ve, per.line, world.wheelbase[e], model.pursuit,
                           world.delta_max[e])
    has_f, has_r = per.has_bound
    x_b, _, _, v_b = P.take(ent.take(per.bound_at), axis=1)   # (2, n): front, rear
    x_tgt, v_tgt = gap_reference(x_b[0], v_b[0], has_f, x_b[1], has_r,
                                 world.v_des[e], model.follow_distance)
    a_e = pd_longitudinal(xe, ve, x_tgt, v_tgt, has_f, model.gains, world.a_max[e])

    # until the ego has mostly crossed, its command may not drive it into
    # the leader of the lane it is still occupying; the governor engages
    # once that leader is within the follow point plus a time headroom
    if lay.lead_row[e] < world.n_vehicles:
        x_l, _, _, v_l = P.take(ent[lay.lead_row[e]], axis=1)
        still_on_lane = np.abs(world.lanes.target_center - ye) > 0.25 * world.lanes.width
        slack = x_l - xe - model.follow_distance
        engaged = still_on_lane & (slack <= KEEP_ENGAGE_TIME * np.maximum(ve, 1.0))
        a_keep = pd_longitudinal(xe, ve, x_l - model.follow_distance,
                                 np.minimum(v_l, world.v_des[e]), True, model.gains,
                                 world.a_max[e])
        a_e = np.where(engaged, np.minimum(a_e, a_keep), a_e)
    return a_e, delta_e


def _partner_pass(lay, per, P, ent):
    """Each column's partner's leader inputs (d, v, has), one entry per
    column with a partner (m,): its physical leader under the group
    action's discount and, where it watches a probing ego that is level or
    ahead, the ego as a virtual leader, the nearer of the two governing.

    Also returns extra (n,), what can tell columns with equal entities apart
    at the partner: where the ego governs, the ego's entity and the group
    action; where its physical leader is off its lane line, the group action.
    """
    p_own, p_lead = ent.take(per.p_at)
    x_p, y_p, _, _ = P.take(p_own, axis=1)
    p_kappa = lay.kappa[per.p_action]
    p_d, p_v, p_has = leader_inputs(P, x_p, y_p, p_lead, p_kappa)
    off_line = p_has & (P[1][p_lead] != y_p)
    eg_p = ent[lay.world.ego_index][per.pc]
    xe_p, ye_p, the_p, ve_p = P.take(eg_p, axis=1)
    d_ego = virtual_gap_distance(xe_p, ye_p, x_p, y_p, p_kappa)
    use_ego = per.p_probing & (xe_p >= x_p) & (d_ego < p_d)
    extra = np.zeros(len(per.partner), dtype=np.intp)
    extra[per.pc] = np.where(use_ego, 2 + 2 * eg_p + per.p_action, per.p_action & off_line)
    return (np.where(use_ego, d_ego, p_d), np.where(use_ego, ve_p * np.cos(the_p), p_v),
            p_has | use_ego), extra


def _sv_pass(lay, per, P, ent, const, p_inputs, extra):
    """The surrounding vehicles' accelerations, by the modified IDM.

    Keys: a vehicle's input depends on its own entity, its physical leader's
    entity (the ego's, where the ego leads it) and, at its column's partner
    only, extra. A vehicle gets one entry per distinct key, and a single one
    when every column sees it alike (const (V + 1,): its own and its
    leader's entity are the same in every column) and no extra sets a
    column apart.

    Main pass: every entry is evaluated against its physical leader under
    the assert discount, and the partner entries then take their column's
    p_inputs; the modified IDM runs once over all entries.

    Returns the parent entity of each of the step's entries [ego, one per
    column | these entries], these entries' accelerations, and the entity
    index (V + 1, n) of the next substep, whose entities are the step's
    entries; const becomes the next substep's in place.
    """
    V, e, n = lay.world.n_vehicles, lay.world.ego_index, len(per.partner)
    alone = lay.is_sv & const[:V] & const[lay.lead_row]
    alone[per.partner[extra != 0]] = False
    single = alone.nonzero()[0]
    keyed = (lay.is_sv & ~alone).nonzero()[0]
    n_ent = P.shape[1] + 1   # entity index + 1 < n_ent, extra < 2 * n_ent
    first, group = _group_codes(
        ((ent.take(keyed, axis=0) * n_ent + ent.take(lay.lead_row[keyed], axis=0) + 1)
         * (2 * n_ent) + np.where(per.partner == keyed[:, None], extra, 0)).ravel())
    k_row, k_col = np.divmod(first, n)

    sv = np.concatenate((single, keyed[k_row]))
    sc = np.concatenate((np.zeros(len(single), dtype=np.intp), k_col))
    own_e = ent.take(sv * n + sc)
    x, y, _, v = P.take(own_e, axis=1)
    d_lead, v_lead, has_l = leader_inputs(P, x, y, ent.take(lay.lead_row[sv] * n + sc),
                                          lay.kappa[SvAction.ASSERT])
    mine = (per.partner[sc] == sv).nonzero()[0]
    p_i = per.p_pos[sc[mine]]
    d_lead[mine], v_lead[mine], has_l[mine] = (q[p_i] for q in p_inputs)
    a_sv = idm_accel(v, v_lead, d_lead, has_l, lay.world.v_des[sv], lay.model.idm,
                     lay.world.a_max[sv])

    nxt = np.empty_like(ent)
    nxt[e] = np.arange(n)
    nxt[single] = n + np.arange(len(single))[:, None]
    nxt[keyed] = n + len(single) + group.reshape(len(keyed), n)
    nxt[V] = -1
    const[single] = True
    const[keyed] = np.bincount(k_row, minlength=len(keyed)) == 1
    const[e] = n == 1
    return np.concatenate((ent[e], own_e)), a_sv, nxt


def _step(lay, P, parent, a_e, delta_e, a_sv):
    """Step every entry from its parent entity in one step_bicycle call:
    [ego, one per column (n,) | surrounding-vehicle entries]. Every step is
    elementwise over the entries, so each tuple's values are those of
    stepping it alone. Surrounding vehicles do not steer, so their yaw rate
    is zero under any wheelbase, and the ego's serves every entry. Returns
    the next entity states (4, entries) and the substep's record (P, a,
    delta, parent) for _period_end.
    """
    A = np.concatenate((a_e, a_sv))
    D = np.concatenate((delta_e, np.zeros(len(a_sv))))
    wheelbase = lay.world.wheelbase[lay.world.ego_index]
    return (np.array(step_bicycle(*P.take(parent, axis=1), A, D, lay.cfg.dt, wheelbase)),
            (P, A, D, parent))


def _period_end(steps, P, ent):
    """Keys to rows: at the end of period d, a vehicle's table row in a
    column is its row of period d-1 (the vehicle itself for d = 0) plus its
    inputs (a, delta) over period d, and entities that agree on both, bit
    for bit, share the row: a step is elementwise, so equal inputs from an
    equal state give equal states.

    Each final entity's key is one uint64 record (its row of period d-1,
    then the bits of each substep's a and delta), found by walking its path
    of entries back to its start row. _group_codes groups the records by
    their bytes and numbers the rows by rank. The row of period d-1 is
    stored big-endian, so the rows rank first by it, and the table stays in
    tree order. Returns the next period's start states (4, rows) and start
    entity index (V + 1, n), and the period's segment: states (rows, S, 4),
    inputs (rows, S, 2) and each row's row of period d-1 (rows,).
    """
    j, S = np.arange(P.shape[1]), len(steps)   # j: each final entity's entry, walking back
    keys, states = np.empty((len(j), 1 + 2 * S), dtype=np.uint64), np.empty((len(j), S, 4))
    for s in reversed(range(S)):
        Ps, A, D, parent = steps[s]
        keys[:, 1 + 2 * s] = A[j].view(np.uint64)
        keys[:, 2 + 2 * s] = D[j].view(np.uint64)
        j = parent[j]
        states[:, s] = Ps.take(j, axis=1).T
    keys[:, 0] = j.astype(">u8").view(np.uint64)   # big-endian: bytes rank it by value
    first, group = _group_codes(keys.view(np.dtype((np.void, keys.shape[1] * 8))).ravel())
    inputs = keys[first, 1:].view(np.float64).reshape(len(first), S, 2)
    return P.take(first, axis=1), np.append(group, -1)[ent], (states[first], inputs, j[first])


def _table(lay, segments, P, leaf_ent, key):
    """The BatchRollout of the walk, from the final states P (4, R), the
    last period's leaf entity index (V + 1, n) and each tuple's column key
    (K,): each leaf row's trajectory is its ancestors' segments, walking
    back. Rows are in tree order, so each vehicle's rows form one block, in
    vehicle order.
    """
    R, S, H = P.shape[1], lay.cfg.substeps, len(segments)
    traj_states, traj_inputs = np.empty((R, S * H + 1, 4)), np.empty((R, S * H, 2))
    period_rows = np.empty((R, H), dtype=np.intp)
    traj_states[:, -1] = P.T
    row = np.arange(R)   # each leaf row's row of period d, walking back
    for d in reversed(range(H)):
        seg_states, seg_inputs, prev_row = segments[d]
        traj_states[:, d * S:(d + 1) * S] = seg_states[row]
        traj_inputs[:, d * S:(d + 1) * S] = seg_inputs[row]
        period_rows[:, d] = row
        row = prev_row[row]
    rows = leaf_ent[:lay.world.n_vehicles, key].T
    return BatchRollout(lay.seqs, traj_states, traj_inputs, rows, np.append(rows.min(axis=0), R),
                        period_rows, lay.partner[:len(lay.seqs)], lay.partner_ids, lay.cfg.dt)
