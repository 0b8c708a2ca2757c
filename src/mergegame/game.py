"""Pure-strategy equilibrium search and the action-selection policy.

The group of surrounding vehicles picks the row minimizing its belief-weighted
cost, the ego picks the column minimizing its own cost. Both players minimize;
a cell is a pure Nash equilibrium when neither side can improve unilaterally.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .costs import GameMatrix

__all__ = [
    "Player",
    "Equilibrium",
    "Selection",
    "find_pure_nash",
    "stackelberg",
    "select_action",
]


class Player(Enum):
    SV = "sv"
    EV = "ev"


@dataclass(frozen=True)
class Equilibrium:
    """A cell of the game, of kind "nash", "stackelberg-ev-leader" or
    "stackelberg-sv-leader"."""

    row: int
    col: int
    kind: str
    social_cost: float

    def cell(self) -> tuple[int, int]:
        return (self.row, self.col)


@dataclass(frozen=True)
class Selection:
    chosen: Equilibrium
    fallback_used: bool


def find_pure_nash(game: GameMatrix) -> list[Equilibrium]:
    """All cells where both players already play a best response, in row-major order."""
    sv, ev = game.sv_weighted, game.ev
    row_best = sv <= sv.min(axis=0, keepdims=True)
    col_best = ev <= ev.min(axis=1, keepdims=True)
    cells = np.argwhere(row_best & col_best)
    return [
        Equilibrium(int(r), int(c), "nash", float(sv[r, c] + ev[r, c]))
        for r, c in cells
    ]


def stackelberg(game: GameMatrix, leader: Player) -> Equilibrium:
    """Leader commits first, follower best-responds; the leader minimizes its own
    cost over its actions given the follower's response map.

    The follower's response to each leader action is its lowest own cost, ties
    going to the lower leader cost, then to the lower index; the leader's ties
    go to the lower index. Entries are finite (GameMatrix checks), so the
    infinite mask never wins over a best response.
    """
    sv, ev = game.sv_weighted, game.ev
    # leader's cost and follower's cost, one leader action per row
    lead, follow = (ev.T, sv.T) if leader == Player.EV else (sv, ev)
    replies = np.where(follow == follow.min(axis=1, keepdims=True), lead, np.inf).argmin(axis=1)
    mine = int(np.argmin(lead[np.arange(len(replies)), replies]))
    reply = int(replies[mine])
    if leader == Player.EV:
        row, col, kind = reply, mine, "stackelberg-ev-leader"
    else:
        row, col, kind = mine, reply, "stackelberg-sv-leader"
    return Equilibrium(row, col, kind, float(sv[row, col] + ev[row, col]))


def select_action(game: GameMatrix, *, nash_cells: list[Equilibrium] | None = None,
                  se_sv: Equilibrium | None = None) -> Selection:
    """Lowest-social-cost Nash equilibrium when one exists; otherwise the
    Stackelberg equilibrium with the ego as the follower, flagged as fallback.

    nash_cells and se_sv are find_pure_nash(game) and stackelberg(game,
    Player.SV); a caller that has solved the game already passes them in, and
    whichever is missing is solved here.
    """
    if nash_cells is None:
        nash_cells = find_pure_nash(game)
    if nash_cells:
        best = min(nash_cells, key=lambda e: (e.social_cost, e.row, e.col))
        return Selection(best, fallback_used=False)
    if se_sv is None:
        se_sv = stackelberg(game, Player.SV)
    return Selection(se_sv, fallback_used=True)
