"""Brute-force oracles shared by the tests: the equilibrium oracles, the
Proposition 1 preconditions with their random instances, and a fine-step
RK4 integrator. Plain Python loops, independent of mergegame.game and
mergegame.dynamics."""

import numpy as np

from mergegame.costs import Belief


def brute_nash(sv, ev):
    """Every cell where neither player gains by deviating, in row-major order."""
    rows, cols = sv.shape
    return [(r, c) for r in range(rows) for c in range(cols)
            if all(sv[r, c] <= sv[r2, c] for r2 in range(rows))
            and all(ev[r, c] <= ev[r, c2] for c2 in range(cols))]


def brute_stackelberg(sv, ev, leader):
    """Leader "ev" (columns) or "sv" (rows); the follower breaks ties toward the
    lower leader cost, then the lower index; the leader toward the lower index."""
    rows, cols = sv.shape
    best = None
    if leader == "ev":
        for c in range(cols):
            r = min(range(rows), key=lambda r: (sv[r, c], ev[r, c], r))
            key = (ev[r, c], c)
            best = (key, (r, c)) if best is None or key < best[0] else best
    else:
        for r in range(rows):
            c = min(range(cols), key=lambda c: (ev[r, c], sv[r, c], c))
            key = (sv[r, c], r)
            best = (key, (r, c)) if best is None or key < best[0] else best
    return best[1]


def brute_selection(sv, ev):
    """(chosen cell, fallback flag): the Nash cell of lowest social cost, ties
    to the lower (row, col); with no Nash cell, the group-leader Stackelberg cell."""
    cells = brute_nash(sv, ev)
    if cells:
        return min(cells, key=lambda rc: (sv[rc] + ev[rc], rc)), False
    return brute_stackelberg(sv, ev, "sv"), True


def check_prop1_assumptions(sv_costs, ev_costs, belief, feasible_cols=None) -> bool:
    """Monotonicity preconditions for the assert-row equilibrium guarantee.

    Over every feasible column of a 2-row game (row 0 assert, row 1 yield):
    0 <= sv[0, m] <= sv[1, m] (politeness costs the group more) and
    ev[0, m] >= ev[1, m] >= 0 (the ego benefits from politeness), together with
    an assert belief of at least one half.
    """
    sv = np.asarray(sv_costs, dtype=float)
    ev = np.asarray(ev_costs, dtype=float)
    if sv.shape[0] != 2 or ev.shape != sv.shape:
        raise ValueError("expected matching 2-row cost arrays")
    if feasible_cols is None:
        mask = np.ones(sv.shape[1], dtype=bool)
    else:
        mask = np.asarray(feasible_cols, dtype=bool)
    if belief.p_assert < 0.5:
        return False
    if not mask.any():
        return True
    sv, ev = sv[:, mask], ev[:, mask]
    sv_ok = np.all(0.0 <= sv[0]) and np.all(sv[0] <= sv[1])
    ev_ok = np.all(ev[1] >= 0.0) and np.all(ev[0] >= ev[1])
    return bool(sv_ok and ev_ok)


def monotone_instance(rng, belief_low=0.5):
    """Random raw costs (sv_raw, ev) of a 2-row game that meet the
    Proposition 1 monotonicity, with a belief drawn from [belief_low, 1)."""
    cols = int(rng.integers(1, 51))
    sv0 = rng.uniform(0, 100, cols)
    sv1 = sv0 + rng.uniform(0, 100, cols)
    ev1 = rng.uniform(0, 100, cols)
    ev0 = ev1 + rng.uniform(0, 100, cols)
    b = float(rng.uniform(belief_low, 1.0))
    return np.stack([sv0, sv1]), np.stack([ev0, ev1]), Belief(b, 1.0 - b)


def weighted(sv_raw, belief):
    """The group costs weighted by the belief: the assert row by p_yield, the
    yield row by p_assert."""
    return np.stack([sv_raw[0] * (1.0 - belief.p_assert), sv_raw[1] * belief.p_assert])


def rk4_reference(state, a, delta, dt, substeps, wheelbase):
    """The bicycle model (x, y, theta, v) under constant (a, delta), integrated
    over dt by classic RK4 in substeps steps."""

    def rhs(s):
        x, y, th, v = s
        vf = max(v, 0.0)
        return np.array([vf * np.cos(th), vf * np.sin(th), vf * np.tan(delta) / wheelbase, a])

    s = np.array(state, dtype=float)
    h = dt / substeps
    for _ in range(substeps):
        k1 = rhs(s)
        k2 = rhs(s + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h * k2)
        k4 = rhs(s + h * k3)
        s = s + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return s
