"""Independent output checks for the benchmark.

Nothing here calls the solvers, the cost code or the geometry of `mergegame`:
the oracles are plain loops, the rectangle geometry is a separating-axis test
plus vertex-to-edge distances, and the game entries are rebuilt from a
rollout with this module's own cost sums and Bayes update. Each check returns
a list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9      # game entries: relative, with an absolute floor for entries below 1
LIMIT_TOL = 1e-12   # actuator limits: saturated inputs may sit exactly on the limit


# --- equilibrium oracles ------------------------------------------------------------

def brute_nash(sv, ev) -> list[tuple[int, int]]:
    """Every cell where the group's cost is a column minimum and the ego's a row minimum."""
    sv, ev = np.asarray(sv).tolist(), np.asarray(ev).tolist()
    n_rows, n_cols = len(sv), len(sv[0])
    col_min = [min(sv[r][c] for r in range(n_rows)) for c in range(n_cols)]
    row_min = [min(ev[r]) for r in range(n_rows)]
    return [(r, c) for r in range(n_rows) for c in range(n_cols)
            if sv[r][c] <= col_min[c] and ev[r][c] <= row_min[r]]


def brute_stackelberg(sv, ev, leader: str) -> tuple[int, int]:
    """Leader commits, follower best-responds; ties go to the follower response
    that is cheaper for the leader, then to the lower index."""
    sv, ev = np.asarray(sv).tolist(), np.asarray(ev).tolist()
    n_rows, n_cols = len(sv), len(sv[0])
    best_key, best_cell = None, None
    if leader == "ev":
        for c in range(n_cols):
            r_best = 0
            for r in range(1, n_rows):
                if (sv[r][c], ev[r][c]) < (sv[r_best][c], ev[r_best][c]):
                    r_best = r
            key = (ev[r_best][c], c)
            if best_key is None or key < best_key:
                best_key, best_cell = key, (r_best, c)
    elif leader == "sv":
        for r in range(n_rows):
            row_sv, row_ev = sv[r], ev[r]
            c_best = 0
            for c in range(1, n_cols):
                if (row_ev[c], row_sv[c]) < (row_ev[c_best], row_sv[c_best]):
                    c_best = c
            key = (row_sv[c_best], r)
            if best_key is None or key < best_key:
                best_key, best_cell = key, (r, c_best)
    else:
        raise ValueError(f"unknown leader {leader!r}")
    return best_cell


def brute_selection(sv, ev) -> tuple[tuple[int, int], bool]:
    """The Nash cell of lowest social cost (then lowest row, column); without one,
    the group-leader Stackelberg cell, flagged as a fallback."""
    cells = brute_nash(sv, ev)
    if cells:
        sv_l, ev_l = np.asarray(sv).tolist(), np.asarray(ev).tolist()
        best = min(cells, key=lambda rc: (sv_l[rc[0]][rc[1]] + ev_l[rc[0]][rc[1]], rc))
        return best, False
    return brute_stackelberg(sv, ev, "sv"), True


def check_game_selection(game, nash_cells, chosen, fallback) -> list[str]:
    """Compare a solved game against the oracles: Nash set, chosen cell, fallback flag."""
    errors = []
    if not (np.isfinite(game.sv_weighted).all() and np.isfinite(game.ev).all()):
        errors.append("game matrix has non-finite entries")
        return errors
    want_cells = brute_nash(game.sv_weighted, game.ev)
    if sorted(map(tuple, nash_cells)) != want_cells:
        errors.append(f"nash cells {sorted(map(tuple, nash_cells))[:4]} != oracle {want_cells[:4]}")
    want_cell, want_fallback = brute_selection(game.sv_weighted, game.ev)
    if tuple(chosen) != want_cell or bool(fallback) != want_fallback:
        errors.append(f"selection {tuple(chosen)}/fallback={fallback} != oracle "
                      f"{want_cell}/fallback={want_fallback}")
    return errors


# --- rectangle geometry ---------------------------------------------------------------

def corners(x, y, theta, half_length, half_width) -> np.ndarray:
    """Counter-clockwise corners, shape (..., 4, 2)."""
    x, y, theta = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float),
                                      np.asarray(theta, float))
    hl = np.broadcast_to(np.asarray(half_length, float), x.shape)
    hw = np.broadcast_to(np.asarray(half_width, float), x.shape)
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(x.shape + (4, 2))
    for k, (sl, sw) in enumerate(((1, 1), (-1, 1), (-1, -1), (1, -1))):
        lx, ly = sl * hl, sw * hw
        out[..., k, 0] = x + c * lx - s * ly
        out[..., k, 1] = y + s * lx + c * ly
    return out


def _extent(poly, nx, ny):
    """Min and max of the corners' projections onto the axis (nx, ny)."""
    p = [poly[..., k, 0] * nx + poly[..., k, 1] * ny for k in range(4)]
    return (np.minimum(np.minimum(p[0], p[1]), np.minimum(p[2], p[3])),
            np.maximum(np.maximum(p[0], p[1]), np.maximum(p[2], p[3])))


def _separated(ca, cb, strict: bool) -> np.ndarray:
    """True where some edge normal of either polygon separates the projections.

    strict=True treats touching as separated (only positive-area overlap counts)."""
    sep = np.zeros(np.broadcast_shapes(ca.shape[:-2], cb.shape[:-2]), dtype=bool)
    for poly in (ca, cb):
        for k in range(2):  # a rectangle has two distinct edge directions
            nx = poly[..., k, 1] - poly[..., k + 1, 1]
            ny = poly[..., k + 1, 0] - poly[..., k, 0]
            a_lo, a_hi = _extent(ca, nx, ny)
            b_lo, b_hi = _extent(cb, nx, ny)
            if strict:
                sep |= (a_hi <= b_lo) | (b_hi <= a_lo)
            else:
                sep |= (a_hi < b_lo) | (b_hi < a_lo)
    return sep


def overlap(ca, cb, strict: bool = True) -> np.ndarray:
    """Separating-axis intersection test on corner arrays (..., 4, 2)."""
    return ~_separated(ca, cb, strict)


def _point_rect_distance(px, py, x, y, theta, half_length, half_width):
    """Distance from points to a rectangle, 0 inside it, in the rectangle's own frame."""
    c, s = np.cos(theta), np.sin(theta)
    dx, dy = px - x, py - y
    ox = np.maximum(np.abs(c * dx + s * dy) - half_length, 0.0)
    oy = np.maximum(np.abs(c * dy - s * dx) - half_width, 0.0)
    return np.hypot(ox, oy)


def distance(ra, rb) -> np.ndarray:
    """Euclidean distance between rectangles (x, y, theta, half_length,
    half_width); 0 when they touch or intersect. Between disjoint convex
    polygons the nearest pair always includes a vertex of one of them, so the
    distances of each rectangle's corners to the other one suffice."""
    ca, cb = corners(*ra), corners(*rb)
    best = None
    for pts, rect in ((cb, ra), (ca, rb)):
        for k in range(4):
            d = _point_rect_distance(pts[..., k, 0], pts[..., k, 1], *rect)
            best = d if best is None else np.minimum(best, d)
    return np.where(overlap(ca, cb, strict=False), 0.0, best)


# --- reference game entries --------------------------------------------------------------

def _entropy(p) -> np.ndarray:
    p = np.asarray(p, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)


def info_gain(prior_assert, prior_yield, observed, pred_assert, pred_yield,
              sigma) -> np.ndarray:
    """Entropy change of a Bayes update of the assert/yield belief, per row of the inputs."""
    ll_a = -0.5 * np.sum(((observed - pred_assert) / sigma) ** 2, axis=-1)
    ll_y = -0.5 * np.sum(((observed - pred_yield) / sigma) ** 2, axis=-1)
    pa, py = np.asarray(prior_assert, float), np.asarray(prior_yield, float)
    with np.errstate(divide="ignore"):
        la = np.where(pa > 0.0, ll_a + np.log(np.where(pa > 0.0, pa, 1.0)), -np.inf)
        ly = np.where(py > 0.0, ll_y + np.log(np.where(py > 0.0, py, 1.0)), -np.inf)
    top = np.maximum(la, ly)
    wa, wy = np.exp(la - top), np.exp(ly - top)
    h_post = _entropy(wa / (wa + wy)) + _entropy(wy / (wa + wy))
    h_prior = _entropy(pa) + _entropy(py)
    return h_post - h_prior


def reference_game(rollout, world, beliefs, cfg):
    """Rebuild (sv_weighted, ev) of one cycle from its rollout.

    Cost per vehicle: banded safety penalty against every other vehicle at each
    of the T+1 states, squared speed error, squared jerk of the commanded
    acceleration, squared lateral offset from the vehicle's goal line. The
    group entry is the sum over surrounding vehicles scaled by one minus the
    column partner's belief in the row's action; the ego entry adds the
    information-gain term when its weight is nonzero.
    """
    w = cfg.weights
    states, inputs = rollout.states, rollout.inputs        # (K, V, T+1, 4), (K, V, T, 2)
    K, V = states.shape[0], states.shape[1]
    e = world.ego_index
    half_l = np.array([p.length for p in world.params]) / 2.0
    half_w = np.array([p.width for p in world.params]) / 2.0

    safety = np.zeros((K, V))
    for i in range(V):
        for j in range(i + 1, V):
            # cull pairs whose centers are farther apart than d_hi plus both half-diagonals
            reach = w.d_hi + math.hypot(half_l[i], half_w[i]) + math.hypot(half_l[j], half_w[j])
            dx = states[:, i, :, 0] - states[:, j, :, 0]
            dy = states[:, i, :, 1] - states[:, j, :, 1]
            ks, ts = np.nonzero(np.hypot(dx, dy) <= reach)
            if ks.size == 0:
                continue
            si, sj = states[ks, i, ts], states[ks, j, ts]
            d = distance((si[:, 0], si[:, 1], si[:, 2], half_l[i], half_w[i]),
                         (sj[:, 0], sj[:, 1], sj[:, 2], half_l[j], half_w[j]))
            pen = np.where(d < w.d_lo, w.w_saf1, np.where(d <= w.d_hi, w.w_saf2, 0.0))
            per_k = np.zeros(K)
            np.add.at(per_k, ks, pen)
            safety[:, i] += per_k
            safety[:, j] += per_k

    v_des = np.array(world.v_des, float)
    eff = w.w_eff * ((states[..., 3] - v_des[None, :, None]) ** 2).sum(axis=2)
    jerk = (inputs[:, :, 1:, 0] - inputs[:, :, :-1, 0]) / rollout.dt
    com = w.w_com * (jerk ** 2).sum(axis=2)
    lanes = world.lanes
    y_goal = np.array([lanes.current_center
                       if abs(y - lanes.current_center) <= abs(y - lanes.target_center)
                       else lanes.target_center for y in world.states[:, 1]])
    y_goal[e] = lanes.target_center
    nav = w.w_nav * ((states[..., 1] - y_goal[None, :, None]) ** 2).sum(axis=2)
    total = safety + eff + com + nav                        # (K, V)

    m = K // 2
    sv_raw = np.delete(total, e, axis=1).sum(axis=1)
    ev = total[:, e].copy()
    partners = rollout.partner_ids
    prior = [beliefs[p] if p is not None and p in beliefs else None for p in partners]
    p_assert = np.array([0.5 if b is None else b.p_assert for b in prior])
    p_yield = np.array([0.5 if b is None else b.p_yield for b in prior])
    if w.w_info != 0.0:
        has = np.array([p is not None for p in partners])
        if has.any():
            ks = np.flatnonzero(has)
            p_idx = np.array([world.index_of(partners[k]) for k in ks])
            cols = ks % m
            obs = inputs[ks, p_idx, :, 0]
            pred_a = inputs[cols, p_idx, :, 0]
            pred_y = inputs[m + cols, p_idx, :, 0]
            ev[ks] += w.w_info * info_gain(p_assert[ks], p_yield[ks], obs, pred_a, pred_y,
                                           cfg.beliefs.sigma_accel)
    # row 0 is the group asserting, row 1 yielding; the weight is 1 - b(row)
    weight = np.stack([1.0 - p_assert[:m], 1.0 - p_yield[:m]])
    return weight * sv_raw.reshape(2, m), ev.reshape(2, m)


def check_reference_game(result, world, beliefs, cfg) -> list[str]:
    sv_ref, ev_ref = reference_game(result.rollout, world, beliefs, cfg)
    errors = []
    for name, got, want in (("group", result.game.sv_weighted, sv_ref),
                            ("ego", result.game.ev, ev_ref)):
        if got.shape != want.shape:
            errors.append(f"{name} matrix shape {got.shape} != reference {want.shape}")
            continue
        err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
        if not (err <= REL_TOL).all():
            k = np.unravel_index(np.argmax(err), err.shape)
            errors.append(f"{name} entry {tuple(int(i) for i in k)}: {got[k]!r} vs reference "
                          f"{want[k]!r} (rel {err[k]:.2e})")
    return errors


# --- invariants ----------------------------------------------------------------------------

def check_rollout(rollout, world) -> list[str]:
    """Speeds stay >= 0, surrounding vehicles keep y and theta, ego inputs stay within limits."""
    errors = []
    states, inputs = rollout.states, rollout.inputs
    e = world.ego_index
    if not (np.isfinite(states).all() and np.isfinite(inputs).all()):
        errors.append("rollout has non-finite values")
    if (states[..., 3] < 0.0).any():
        errors.append(f"rollout speed below zero: {states[..., 3].min()!r}")
    sv = np.arange(world.n_vehicles) != e
    for col, label in ((1, "y"), (2, "theta")):
        drift = np.abs(states[:, sv][..., col] - world.states[sv, col][None, :, None]).max()
        if drift != 0.0:
            errors.append(f"surrounding vehicle {label} moved in a rollout by {drift:.3e}")
    p = world.params[e]
    if np.abs(inputs[:, e, :, 0]).max() > p.a_max + LIMIT_TOL:
        errors.append("ego acceleration beyond a_max in a rollout")
    if np.abs(inputs[:, e, :, 1]).max() > p.delta_max + LIMIT_TOL:
        errors.append("ego steering beyond delta_max in a rollout")
    return errors


def check_beliefs(beliefs: dict) -> list[str]:
    """Each (p_assert, p_yield) pair lies on the probability simplex."""
    errors = []
    for vid, (pa, py) in beliefs.items():
        if not (0.0 <= pa <= 1.0 and 0.0 <= py <= 1.0 and abs(pa + py - 1.0) <= 1e-9):
            errors.append(f"belief of {vid} off the simplex: ({pa!r}, {py!r})")
    return errors


def check_truth_steps(steps, cfg) -> list[str]:
    """Separating-axis overlap test of the ego against every vehicle at every
    recorded truth-world step, plus the truth-world invariants."""
    if not steps:
        return ["episode recorded no steps"]
    specs = {v.vehicle_id: v for v in cfg.vehicles}
    ids = [v.vehicle_id for v in cfg.vehicles]
    V = len(ids)
    if len(steps) % V:
        return [f"{len(steps)} step rows do not divide into {V} vehicles"]
    rows = np.array([r[3:] for r in steps], dtype=float).reshape(-1, V, 6)  # x y th v a delta
    if [r[2] for r in steps[:V]] != ids:
        return ["step rows are not in vehicle order"]
    errors = []
    e = ids.index(cfg.ego.vehicle_id)
    half = np.array([[specs[v].params.length / 2.0, specs[v].params.width / 2.0] for v in ids])
    others = [i for i in range(V) if i != e]
    ce = corners(rows[:, e, 0], rows[:, e, 1], rows[:, e, 2], half[e, 0], half[e, 1])
    co = corners(rows[:, others, 0], rows[:, others, 1], rows[:, others, 2],
                 half[others, 0], half[others, 1])
    hit = overlap(ce[:, None], co, strict=True)
    if hit.any():
        s, k = np.argwhere(hit)[0]
        errors.append(f"ego overlaps {ids[others[k]]} at recorded step {int(s)}")
    if (rows[:, :, 3] < 0.0).any():
        errors.append("truth-world speed below zero")
    sv_rows = rows[:, others]
    if (sv_rows[:, :, 1] != sv_rows[0, :, 1]).any() or (sv_rows[:, :, 2] != sv_rows[0, :, 2]).any():
        errors.append("surrounding vehicle left its y or theta in the truth world")
    p = specs[ids[e]].params
    if np.abs(rows[:, e, 4]).max() > p.a_max + LIMIT_TOL:
        errors.append("ego acceleration command beyond a_max")
    if np.abs(rows[:, e, 5]).max() > p.delta_max + LIMIT_TOL:
        errors.append("ego steering command beyond delta_max")
    return errors
