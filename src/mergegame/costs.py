"""Trajectory scoring, belief tracking, and cost-matrix assembly.

Each trajectory is scored with four nonnegative terms (safety band penalties,
squared speed error, squared jerk, squared lateral offset). The surrounding
vehicles are aggregated into one player by summing their costs, and each row
of the resulting matrix is scaled by one minus the belief assigned to that
row's group action.

Scoring reads the rollout's trajectory table. Speed error, jerk and lateral
offset are computed once per table row. The pairwise safety band works from
the table's vehicle blocks: a vehicle pair's (row, row) combinations are the
other vehicle's block rows where one vehicle has a single row, and only pairs
of two multi-row vehicles group their combinations over the tuples. It is
computed once per decision period for each distinct pair of the two vehicles'
period segments, over all near vehicle pairs at once, and summed in the order
of a plain per-tuple loop, so the matrices do not depend on how the work is
shared.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .actions import SvAction
from .bounds import check, check_finite
from .dynamics import rect_distance_arrays
from .forward_sim import BatchRollout, _group_codes
from .world import WorldSnapshot

log = logging.getLogger(__name__)

__all__ = [
    "CostWeights",
    "Belief",
    "GameMatrix",
    "belief_entropy",
    "build_game_from_batch",
    "column_priors",
    "update_belief",
]


@dataclass(frozen=True)
class CostWeights:
    w_saf1: float = 1000.0  # near-collision penalty per step, d < d_lo
    w_saf2: float = 25.0    # close-distance penalty per step, d_lo <= d <= d_hi
    d_lo: float = 1.0
    d_hi: float = 3.0
    w_eff: float = 0.2
    w_com: float = 0.05
    w_nav: float = 0.5
    w_info: float = 0.0

    def __post_init__(self):
        check("weights", self, ">", 0, "w_saf2")
        check("weights", self, ">", self.w_saf2, "w_saf1")
        check("weights", self, ">=", 0, "d_lo", "w_eff", "w_com", "w_nav")
        check("weights", self, ">", self.d_lo, "d_hi")
        check_finite("weights", self, "w_info")


@dataclass(frozen=True)
class Belief:
    """Probability the interacting vehicle asserts vs yields; sums to one."""

    p_assert: float
    p_yield: float

    def __post_init__(self):
        if not (0.0 <= self.p_assert <= 1.0 and 0.0 <= self.p_yield <= 1.0):
            raise ValueError("belief entries must lie in [0, 1]")
        if abs(self.p_assert + self.p_yield - 1.0) > 1e-9:
            raise ValueError("belief entries must sum to 1")

    @classmethod
    def uniform(cls) -> "Belief":
        return cls(0.5, 0.5)


@dataclass
class GameMatrix:
    """Cost pairs (weighted group cost, ego cost) indexed by [SvAction(r), cols[j]]."""

    cols: tuple
    sv_weighted: np.ndarray  # (2, M)
    ev: np.ndarray           # (2, M)
    sv_raw: np.ndarray | None = None

    def __post_init__(self):
        self.sv_weighted = np.asarray(self.sv_weighted, dtype=float)
        self.ev = np.asarray(self.ev, dtype=float)
        shape = (len(SvAction), len(self.cols))
        if self.sv_weighted.shape != shape or self.ev.shape != shape:
            raise ValueError("matrix shape must be (group actions, columns)")
        if not (np.isfinite(self.sv_weighted).all() and np.isfinite(self.ev).all()):
            raise ValueError("matrix entries must be finite")

    @property
    def shape(self):
        return self.sv_weighted.shape

    @classmethod
    def from_arrays(cls, sv, ev) -> "GameMatrix":
        return cls(tuple(range(np.shape(sv)[1])), sv, ev)


# --- per-trajectory cost terms ----------------------------------------------

# Widens the reach of the bounding-box cull in _pair_band_penalties (m), so
# that no rounding in the box bound can cull a pair the exact per-entry test keeps.
CULL_MARGIN = 1.0


def _pair_band_penalties(traj_states, rows, block_start, period_rows, half_len, half_wid,
                         weights: CostWeights):
    """Per-vehicle safety penalty sums of a trajectory table.

    traj_states (R, T+1, 4) holds distinct vehicle trajectories, vehicle v's in
    rows block_start[v]:block_start[v + 1]; rows (K, V) picks each stacked
    rollout's row of each vehicle, and period_rows (R, H) each row's segment
    of each decision period, as BatchRollout documents them. Returns (K, V).
    For every vehicle pair i < j, only the (row, step) entries where the two
    centers lie within reach = d_hi plus the two circumradii get an exact
    rectangle distance. Every other entry adds exactly 0.0, since its
    rectangles are farther apart than d_hi. The same entries as an all-pairs,
    all-rollouts loop are scored, found with less work, in one pass over all
    pairs:

    - a pair whose per-step bounding boxes over the two vehicles' blocks lie
      farther apart than reach + CULL_MARGIN at every step is skipped outright;
    - each other pair gets its (row of i, row of j) combinations from the
      vehicle blocks. Where one side has a single row, they are the other
      side's block rows, and a rollout's combination is numbered by its row
      of that side. Only pairs with two multi-row sides group their K
      rollouts' combinations. A block row that no rollout picks only adds a
      combination that no rollout reads;
    - in each period, the combinations that agree on (segment of i, segment
      of j) are scored once: each period reach-tests its distinct segment
      pairs, and one rect_distance_arrays call covers the near entries of
      all periods.

    The sums keep the all-pairs loop's order, so they are bit-identical for
    any weights: each combination adds its steps in step order, and each
    vehicle adds its pairs' sums from 0.0 in the i < j pair order.
    """
    K, V = rows.shape
    n_steps = traj_states.shape[1]
    H = period_rows.shape[1]
    S = (n_steps - 1) // H
    radius = np.hypot(half_len, half_wid)
    lo = np.minimum.reduceat(traj_states, block_start[:-1], axis=0)[..., :3]   # (V, T+1, 3)
    hi = np.maximum.reduceat(traj_states, block_start[:-1], axis=0)[..., :3]
    iu, ju = np.triu_indices(V, 1)
    gx = np.maximum(np.maximum(lo[ju, :, 0] - hi[iu, :, 0], lo[iu, :, 0] - hi[ju, :, 0]), 0.0)
    gy = np.maximum(np.maximum(lo[ju, :, 1] - hi[iu, :, 1], lo[iu, :, 1] - hi[ju, :, 1]), 0.0)
    box_reach = weights.d_hi + radius[iu] + radius[ju] + CULL_MARGIN
    within = (gx * gx + gy * gy <= (box_reach * box_reach)[:, None]).any(axis=1)
    iu, ju = iu[within], ju[within]

    # (row of i, row of j) combinations; combo (P, K) numbers each rollout's
    # combination of pair p. Where one side of a pair has a single row, the
    # other side's block rows are its combinations, numbered from offset.
    R, P = len(traj_states), len(iu)
    n_rows = np.diff(block_start)
    single = (n_rows[iu] == 1) | (n_rows[ju] == 1)
    other = np.where(n_rows[iu] == 1, ju, iu)[single]
    count = n_rows[other]
    offset = np.cumsum(count) - count
    s_pair = np.repeat(np.flatnonzero(single), count)
    local = np.arange(len(s_pair)) - np.repeat(offset, count)
    si, sj = iu[s_pair], ju[s_pair]
    # only pairs with two multi-row sides group their combinations over the K rollouts
    multi = np.flatnonzero(~single)
    code = (rows.T[iu[multi]] * R + rows.T[ju[multi]]).ravel()
    first, group = _group_codes(code)
    m_ri, m_rj = np.divmod(code[first], R)
    combo = np.empty((P, K), dtype=np.intp)
    combo[single] = (offset - block_start[other])[:, None] + rows.T[other]
    combo[multi] = len(s_pair) + group.reshape(len(multi), K)
    pair = np.concatenate((s_pair, multi[first // K]))
    ci, cj = iu[pair], ju[pair]
    # a single-row side keeps its one row while the other side counts through its block
    ri = np.concatenate((block_start[si] + np.minimum(local, n_rows[si] - 1), m_ri))
    rj = np.concatenate((block_start[sj] + np.minimum(local, n_rows[sj] - 1), m_rj))
    reach = weights.d_hi + radius[ci] + radius[cj]

    # period d covers steps d*S .. d*S + S - 1 (the last one through step T);
    # units number the distinct (segment pair, step)s, and at (T+1,
    # combinations) gives each combination's unit at each step
    at = np.empty((n_steps, len(pair)), dtype=np.intp)
    near_unit, near_combo, a, b = [], [], [], []
    n_units = 0
    for d in range(H):
        t0, t1 = d * S, n_steps if d == H - 1 else (d + 1) * S
        rep, seg = _group_codes(period_rows[ri, d] * R + period_rows[rj, d])
        steps = np.arange(t1 - t0)
        at[t0:t1] = n_units + seg * len(steps) + steps[:, None]
        sa, sb = traj_states[ri[rep], t0:t1], traj_states[rj[rep], t0:t1]
        dx = sa[:, :, 0] - sb[:, :, 0]
        dy = sa[:, :, 1] - sb[:, :, 1]
        g, t = np.nonzero(dx * dx + dy * dy <= (reach[rep] * reach[rep])[:, None])
        unit = g * len(steps) + t
        near_unit.append(n_units + unit)
        near_combo.append(rep[g])
        a.append(sa.reshape(-1, 4).take(unit, axis=0))
        b.append(sb.reshape(-1, 4).take(unit, axis=0))
        n_units += len(rep) * len(steps)
    c = np.concatenate(near_combo)
    a, b = np.concatenate(a), np.concatenate(b)
    dist = rect_distance_arrays(a[:, 0], a[:, 1], a[:, 2], half_len[ci[c]], half_wid[ci[c]],
                                b[:, 0], b[:, 1], b[:, 2], half_len[cj[c]], half_wid[cj[c]])
    unit_pen = np.zeros(n_units)
    unit_pen[np.concatenate(near_unit)] = np.where(
        dist < weights.d_lo, weights.w_saf1, np.where(dist <= weights.d_hi, weights.w_saf2, 0.0))
    # each combination sums its steps in step order, zeros included (adding
    # 0.0 to a penalty sum is exact)
    per_combo = np.zeros(len(pair))
    for step_pen in unit_pen[at]:
        per_combo += step_pen

    # each vehicle adds its pairs' sums from 0.0 in i < j pair order
    per_pair = per_combo.take(combo)
    out = np.zeros((V, K))
    for p in range(P):
        out[iu[p]] += per_pair[p]
        out[ju[p]] += per_pair[p]
    return out.T.copy()


# --- matrix assembly ----------------------------------------------------------

def column_priors(partners: Sequence[str | None],
                  beliefs: Mapping[str, Belief]) -> np.ndarray:
    """(2, M) belief in each column's interaction partner, row r holding the
    probability of SvAction(r); uniform where a column has no partner or the
    partner has no tracked belief."""
    uniform = Belief.uniform()
    per_col = [beliefs.get(p, uniform) for p in partners]
    return np.array([[b.p_assert for b in per_col], [b.p_yield for b in per_col]])


def build_game_from_batch(rollout: BatchRollout, world: WorldSnapshot,
                          prior: np.ndarray, weights: CostWeights,
                          ev_extra: np.ndarray | None = None) -> GameMatrix:
    """Assemble the belief-weighted cost matrix from a rollout's trajectory table.

    The game's columns are the rollout's sequences, and entry (r, j) scores
    tuple rollout.tuple_index(r, j). It holds ((1 - b(SvAction(r))) * sum of
    surrounding-vehicle costs, ego cost), where b is the belief in column j's
    interaction partner: prior is column_priors of the rollout's column
    partners. ev_extra (K,), when given, is added to the ego entries
    (information-gain term).
    """
    e = world.ego_index
    safety = _pair_band_penalties(rollout.traj_states, rollout.rows, rollout.block_start,
                                  rollout.period_rows, world.half_len, world.half_wid, weights)
    # efficiency, comfort and navigation once per table row, gathered to the tuples
    table = rollout.traj_states
    vehicle = np.repeat(np.arange(world.n_vehicles), np.diff(rollout.block_start))
    v_err = table[:, :, 3] - world.v_des[vehicle, None]
    eff = (weights.w_eff * np.sum(v_err ** 2, axis=1))[rollout.rows]
    com = (weights.w_com * np.sum(np.diff(rollout.traj_inputs[:, :, 0], axis=1) ** 2,
                                  axis=1) / rollout.dt ** 2)[rollout.rows]
    y_des = world.lanes.nearest_center(world.states[:, 1])
    y_des[e] = world.lanes.target_center
    nav = (weights.w_nav * np.sum((table[:, :, 1] - y_des[vehicle, None]) ** 2,
                                  axis=1))[rollout.rows]

    total = safety + eff + com + nav
    sv_mask = np.ones(world.n_vehicles, dtype=bool)
    sv_mask[e] = False
    sv_agg = total[:, sv_mask].sum(axis=1)
    ev_flat = total[:, e]
    if ev_extra is not None:
        ev_flat = ev_flat + ev_extra

    shape = (len(SvAction), len(rollout.cols))
    sv_raw = sv_agg.reshape(shape)
    ev = ev_flat.reshape(shape)
    sv_weighted = (1.0 - prior) * sv_raw
    return GameMatrix(rollout.cols, sv_weighted, ev, sv_raw=sv_raw)


# --- belief update -------------------------------------------------------------

def update_belief(p_assert, p_yield, observed, pred_assert, pred_yield,
                  sigma_a: float) -> tuple[np.ndarray, np.ndarray]:
    """Bayes update of assert/yield beliefs from observed acceleration traces.

    The priors (...) and the traces (..., T) broadcast over their leading
    axes. The likelihood of each mode is a product of per-step Gaussians
    centred on the mode's predicted acceleration, with standard deviation
    sigma_a (BeliefSettings.sigma_accel), taken in log space. Returns
    the posterior (p_assert, p_yield) arrays. An entry whose log-posterior is
    not finite for any mode (its likelihoods vanished, so its mass cannot be
    normalised) keeps its prior, and one warning per call gives their count.
    A prior of exactly 0 or 1 is never moved.
    """
    observed = np.asarray(observed, dtype=float)
    pred_assert = np.asarray(pred_assert, dtype=float)
    pred_yield = np.asarray(pred_yield, dtype=float)
    if not observed.shape[-1:] == pred_assert.shape[-1:] == pred_yield.shape[-1:]:
        raise ValueError("observed and predicted traces must cover the same window")
    p_assert = np.asarray(p_assert, dtype=float)
    p_yield = np.asarray(p_yield, dtype=float)

    # a residual too large to square makes its mode's likelihood vanish
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ll_assert = -0.5 * np.sum(((observed - pred_assert) / sigma_a) ** 2, axis=-1)
        ll_yield = -0.5 * np.sum(((observed - pred_yield) / sigma_a) ** 2, axis=-1)
        lp_assert = ll_assert + np.log(p_assert)
        lp_yield = ll_yield + np.log(p_yield)
    fin_assert, fin_yield = np.isfinite(lp_assert), np.isfinite(lp_yield)
    ok = fin_assert | fin_yield
    lp_assert = np.where(fin_assert, lp_assert, -np.inf)
    lp_yield = np.where(fin_yield, lp_yield, -np.inf)
    # shifting by the larger finite log-posterior gives that mode weight
    # exactly 1, so the normaliser lies in [1, 2] wherever ok holds
    top = np.where(ok, np.maximum(lp_assert, lp_yield), 0.0)
    w_assert, w_yield = np.exp(lp_assert - top), np.exp(lp_yield - top)
    z = np.where(ok, w_assert + w_yield, 1.0)

    n_skipped = ok.size - np.count_nonzero(ok)
    if n_skipped:
        log.warning("belief update skipped for %d of %d entries: likelihoods vanished "
                    "for every mode", n_skipped, ok.size)
    return np.where(ok, w_assert / z, p_assert), np.where(ok, w_yield / z, p_yield)


def belief_entropy(p_assert, p_yield) -> np.ndarray:
    """Shannon entropy in nats of assert/yield beliefs, elementwise (0 log 0 = 0)."""
    h = 0.0
    for p in (np.asarray(p_assert, dtype=float), np.asarray(p_yield, dtype=float)):
        h = h - np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return h
