"""One receding-horizon planning cycle: enumerate, simulate, score, solve, pick."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .actions import DecisionSequence, EgoDecision, enumerate_ego_sequences
from .costs import (
    Belief,
    GameMatrix,
    belief_entropy,
    build_game_from_batch,
    column_priors,
    update_belief,
)
from .forward_sim import BatchRollout, simulate_batch
from .game import Equilibrium, Player, find_pure_nash, select_action, stackelberg
from .scenario import ScenarioConfig
from .world import WorldSnapshot

__all__ = ["CycleResult", "plan_cycle"]


@dataclass
class CycleResult:
    """Everything one planning cycle produced."""

    game: GameMatrix
    rollout: BatchRollout
    row: int
    col: int
    kind: str
    fallback_used: bool
    nash_cells: list[Equilibrium]
    se_ev: Equilibrium
    se_sv: Equilibrium

    @property
    def chosen_sequence(self) -> DecisionSequence:
        return self.game.cols[self.col]

    @property
    def partner_id(self) -> str | None:
        return self.rollout.partner_ids[self.col]


def _info_gain_extra(rollout: BatchRollout, prior: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Ego cost addend rewarding rollouts expected to sharpen the belief.

    Tuple (r, j) observes its partner's acceleration trace over the whole
    horizon, T = horizon * substeps steps, and updates the column prior
    against the traces predicted by (assert, j) and (yield, j); the addend
    is w_info times the change in entropy. prior is column_priors of the
    rollout's column partners. The closed loop's update observes one
    decision period only, so this anticipates more evidence than the next
    update gets.
    """
    cols = np.flatnonzero(rollout.partners >= 0)
    pred = rollout.column_inputs(cols, rollout.partners[cols])[..., 0]   # (2, n, T)
    pa, py = prior[:, cols]
    # row r of pred is what tuple (r, j) observes; *pred are the two modes' traces
    post_a, post_y = update_belief(pa, py, pred, *pred, cfg.beliefs.sigma_accel)
    extra = np.zeros_like(prior)
    extra[:, cols] = cfg.weights.w_info * (belief_entropy(post_a, post_y)
                                           - belief_entropy(pa, py))
    return extra.ravel()


def plan_cycle(world: WorldSnapshot, beliefs: Mapping[str, Belief],
               cfg: ScenarioConfig, root: EgoDecision) -> CycleResult:
    """Run the full pipeline for one cycle and select an action tuple.

    cfg.planner picks the cell (row, col):
    - "nash": the Nash cell of lowest social cost, ties to the lower
      (row, col); with no Nash cell, the group-leader Stackelberg cell,
      flagged as the fallback;
    - "stackelberg-ev": the ego-leader Stackelberg cell;
    - "lowest-cost": the column of the lowest ego cost expected under its
      partner's belief, ties to the lower column, and the assert row when
      that belief in assert is at least 0.5, so an even prior plays assert.
    """
    seqs = enumerate_ego_sequences(root, cfg.prune.max_decision_changes, cfg.sim.horizon)
    rollout = simulate_batch(world, seqs, cfg.sim, cfg.model)
    prior = column_priors(rollout.partner_ids[:len(seqs)], beliefs)

    extra = None
    if cfg.weights.w_info != 0.0:
        extra = _info_gain_extra(rollout, prior, cfg)
    game = build_game_from_batch(rollout, world, prior, cfg.weights, ev_extra=extra)

    nash_cells = find_pure_nash(game)
    se_ev = stackelberg(game, Player.EV)
    se_sv = stackelberg(game, Player.SV)

    if cfg.planner == "nash":
        sel = select_action(game, nash_cells=nash_cells, se_sv=se_sv)
        row, col = sel.chosen.row, sel.chosen.col
        kind = sel.chosen.kind
        fallback = sel.fallback_used
    elif cfg.planner == "stackelberg-ev":
        row, col, kind = se_ev.row, se_ev.col, se_ev.kind
        fallback = False
    else:   # "lowest-cost"; ScenarioConfig rejects any kind outside PLANNER_KINDS
        expected = (prior * game.ev).sum(axis=0)
        col = int(np.argmin(expected))
        row = 0 if prior[0, col] >= 0.5 else 1
        kind = "lowest-cost"
        fallback = False

    return CycleResult(game=game, rollout=rollout, row=row, col=col, kind=kind,
                       fallback_used=fallback, nash_cells=nash_cells,
                       se_ev=se_ev, se_sv=se_sv)
