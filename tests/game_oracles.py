"""Brute-force equilibrium oracles and the Proposition 1 preconditions, shared
by the game tests. Plain Python loops over cells, independent of mergegame.game."""

import numpy as np


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
