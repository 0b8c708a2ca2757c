"""Trajectory scoring, belief tracking, and cost-matrix assembly.

Each trajectory is scored with four nonnegative terms (safety band penalties,
squared speed error, squared jerk, squared lateral offset). The surrounding
vehicles are aggregated into one player by summing their costs, and each row
of the resulting matrix is scaled by one minus the belief assigned to that
row's group action.

Scoring reads the rollout's trajectory table. Speed error, jerk and lateral
offset are computed once per table row, and the pairwise safety band
(_pair_band_penalties) in named phases over the near vehicle pairs, summed in
the order of a plain per-tuple loop, so the matrices do not depend on how the
work is shared.
"""

from __future__ import annotations

import logging
from collections import namedtuple
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

    @classmethod
    def from_arrays(cls, sv, ev) -> "GameMatrix":
        return cls(tuple(range(np.shape(sv)[1])), sv, ev)


# --- pairwise safety band ----------------------------------------------------

# Widens the reach of the bounding-box cull in _near_pairs (m), so that no
# rounding in the box bound can cull a pair the exact per-entry test keeps.
CULL_MARGIN = 1.0


def _pair_band_penalties(traj_states, rows, block_start, period_rows, half_len, half_wid,
                         weights: CostWeights):
    """Per-vehicle safety penalty sums (K, V) of a trajectory table.

    traj_states (R, T+1, 4) holds distinct vehicle trajectories, vehicle v's in
    rows block_start[v]:block_start[v + 1]; rows (K, V) picks each stacked
    rollout's row of each vehicle, and period_rows (R, H) each row's segment
    of each decision period, as BatchRollout documents them. The sums are
    those of a loop over all vehicle pairs i < j of all rollouts, bit for bit
    and for any weights, found with less work in four phases: _near_pairs
    forms the vehicle pairs, _combinations their (row, row) combinations,
    _units the (segment pair, step) units that the combinations share and
    which of them need an exact rectangle distance, and _sums scores those
    and adds everything up in the loop's order.
    """
    pairs = _near_pairs(traj_states, block_start, half_len, half_wid, weights.d_hi)
    combos = _combinations(rows, block_start, pairs)
    units = _units(traj_states, period_rows, pairs, combos)
    return _sums(traj_states, half_len, half_wid, weights, pairs, combos, units)


_Pairs = namedtuple("_Pairs", "iu ju reach")


def _near_pairs(traj_states, block_start, half_len, half_wid, d_hi) -> _Pairs:
    """The one place that forms vehicle pairs: _Pairs of iu < ju (P,), in
    i < j order, with each pair's reach (P,), d_hi plus the two vehicles'
    circumradii. Where two centers lie farther apart than reach, the
    rectangles lie farther apart than d_hi. Every pair of the V vehicles is
    kept unless its per-step bounding boxes over the two vehicles' blocks
    lie farther apart than reach + CULL_MARGIN at every step, so a culled
    pair would add exactly 0.0 to every sum."""
    lo = np.minimum.reduceat(traj_states, block_start[:-1], axis=0)[..., :3]   # (V, T+1, 3)
    hi = np.maximum.reduceat(traj_states, block_start[:-1], axis=0)[..., :3]
    radius = np.hypot(half_len, half_wid)
    iu, ju = np.triu_indices(len(radius), 1)
    gx = np.maximum(np.maximum(lo[ju, :, 0] - hi[iu, :, 0], lo[iu, :, 0] - hi[ju, :, 0]), 0.0)
    gy = np.maximum(np.maximum(lo[ju, :, 1] - hi[iu, :, 1], lo[iu, :, 1] - hi[ju, :, 1]), 0.0)
    reach = d_hi + radius[iu] + radius[ju]
    box_reach = reach + CULL_MARGIN
    within = (gx * gx + gy * gy <= (box_reach * box_reach)[:, None]).any(axis=1)
    return _Pairs(iu[within], ju[within], reach[within])


_Combos = namedtuple("_Combos", "combo pair ri rj")


def _combinations(rows, block_start, pairs) -> _Combos:
    """The (row of i, row of j) combinations of the near pairs: _Combos of
    combo (P, K), each rollout's combination of each pair, and per
    combination (C,) its pair and its two table rows ri and rj.

    Where one side of a pair has a single row, its combinations are the
    other side's block rows in block order, and a rollout's combination is
    numbered by its row of that side; they come first. Only pairs with two
    multi-row sides group their K rollouts' combinations. A block row that
    no rollout picks only adds a combination that no rollout reads."""
    (K, _), R, iu, ju = rows.shape, block_start[-1], pairs.iu, pairs.ju
    n_rows = np.diff(block_start)
    single = (n_rows[iu] == 1) | (n_rows[ju] == 1)
    multi = np.flatnonzero(~single)
    code = (rows.T[iu[multi]] * R + rows.T[ju[multi]]).ravel()
    first, group = _group_codes(code)
    other = np.where(n_rows[iu] == 1, ju, iu)[single]
    count = n_rows[other]
    offset = np.cumsum(count) - count
    s_pair = np.repeat(np.flatnonzero(single), count)
    combo = np.empty((len(iu), K), dtype=np.intp)
    combo[single] = (offset - block_start[other])[:, None] + rows.T[other]
    combo[multi] = len(s_pair) + group.reshape(len(multi), K)
    # a single-row side keeps its one row while the other side counts through its block
    local = np.arange(len(s_pair)) - np.repeat(offset, count)
    si, sj = iu[s_pair], ju[s_pair]
    m_ri, m_rj = np.divmod(code[first], R)
    return _Combos(combo, np.concatenate((s_pair, multi[first // K])),
                   np.concatenate((block_start[si] + np.minimum(local, n_rows[si] - 1), m_ri)),
                   np.concatenate((block_start[sj] + np.minimum(local, n_rows[sj] - 1), m_rj)))


_Units = namedtuple("_Units", "at near")


def _units(traj_states, period_rows, pairs, combos) -> _Units:
    """The band's units, the distinct (segment pair, step)s: _Units of at
    (T+1, C), each combination's unit at each step, and near (N,), one
    entry of at for each unit whose two centers lie within the pair's
    reach, as a flat position: t * C + c is combination c at step t. Every
    other unit adds 0.0.

    Period d covers steps d*S .. d*S + S - 1, the last one through step T.
    In each period, the combinations that agree on (segment of i, segment of
    j) share their units: each distinct segment pair g is reach-tested once,
    through the first combination c that has it, and its unit at step t is
    t * C + g, so units lie in [0, (T+1) C)."""
    (R, n_steps, _), H = traj_states.shape, period_rows.shape[1]
    S, ri, rj = (n_steps - 1) // H, combos.ri, combos.rj
    reach = pairs.reach[combos.pair]
    at = np.empty((n_steps, len(ri)), dtype=np.intp)
    near = []
    for d in range(H):
        t0, t1 = d * S, n_steps if d == H - 1 else (d + 1) * S
        rep, seg = _group_codes(period_rows[ri, d] * R + period_rows[rj, d])
        at[t0:t1] = np.arange(t0, t1)[:, None] * len(ri) + seg
        sa, sb = traj_states[ri[rep], t0:t1], traj_states[rj[rep], t0:t1]
        dx = sa[:, :, 0] - sb[:, :, 0]
        dy = sa[:, :, 1] - sb[:, :, 1]
        g, t = np.nonzero(dx * dx + dy * dy <= (reach[rep] * reach[rep])[:, None])
        near.append((t0 + t) * len(ri) + rep[g])
    return _Units(at, np.concatenate(near))


def _sums(traj_states, half_len, half_wid, weights, pairs, combos, units):
    """(K, V) penalty sums. One rect_distance_arrays call scores the near
    entries, from their states (N, 4) gathered here. Each combination adds
    its units' penalties in step order, zeros included (adding 0.0 is
    exact), and each vehicle adds its pairs' sums from 0.0 in i < j pair
    order."""
    step, c = np.divmod(units.near, len(combos.pair))
    vi, vj = pairs.iu[combos.pair[c]], pairs.ju[combos.pair[c]]
    # step t of table row r is row r * (T+1) + t of the table's (R * (T+1), 4) view
    a, b = (traj_states.reshape(-1, 4).take(r[c] * traj_states.shape[1] + step, axis=0)
            for r in (combos.ri, combos.rj))
    dist = rect_distance_arrays(a[:, 0], a[:, 1], a[:, 2], half_len[vi], half_wid[vi],
                                b[:, 0], b[:, 1], b[:, 2], half_len[vj], half_wid[vj])
    unit_pen = np.zeros(units.at.size)
    unit_pen[units.at.take(units.near)] = np.where(
        dist < weights.d_lo, weights.w_saf1, np.where(dist <= weights.d_hi, weights.w_saf2, 0.0))
    per_combo = np.zeros(len(combos.pair))
    for step_pen in unit_pen[units.at]:
        per_combo += step_pen
    out = np.zeros((len(half_len), combos.combo.shape[1]))
    for i, j, pair_pen in zip(pairs.iu, pairs.ju, per_combo.take(combos.combo)):
        out[i] += pair_pen
        out[j] += pair_pen
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

    The game's columns are the rollout's M sequences, and entry (r, j) scores
    tuple k = r * M + j. It holds ((1 - b(SvAction(r))) * sum of
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
    # added from 0.0 in roster order, so the bits do not rest on the memory
    # layout numpy picks for a vectorized sum (pairwise on a C-ordered copy)
    sv_agg = np.zeros(len(total))
    for cost in np.delete(total, e, axis=1).T:
        sv_agg += cost
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
