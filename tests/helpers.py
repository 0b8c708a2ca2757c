"""Helpers that several test modules share: the planner's first rollout, a
world part way through a closed-loop episode, and the bits of a float."""

from dataclasses import replace

import numpy as np

from mergegame.actions import EgoDecision, GapChoice, LateralDecision
from mergegame.closed_loop import run_episode
from mergegame.costs import Belief
from mergegame.planner import plan_cycle
from mergegame.world import WorldSnapshot


def planner_rollout(cfg, world=None):
    """The rollout of a planning cycle on world (default: cfg's initial
    world) from the root 0LK, with uniform beliefs: every tuple the planner
    scores there."""
    beliefs = {vid: Belief.uniform() for vid in cfg.sv_ids}
    world = cfg.initial_world() if world is None else world
    root = EgoDecision(GapChoice.GAP_0, LateralDecision.LANE_KEEP)
    return plan_cycle(world, beliefs, cfg, root).rollout


def mid_episode_world(cfg, cycles):
    """The world as the closed loop leaves it after `cycles` planning cycles."""
    cfg = replace(cfg, episode=replace(cfg.episode, max_cycles=cycles))
    trace = run_episode(cfg, record_steps=False)
    base = cfg.initial_world()
    states = np.array([trace.end_states[vid] for vid in base.ids])
    return WorldSnapshot(base.ids, states, base.params, base.v_des, base.lanes, base.ego_index)


def bits(value):
    """The IEEE 754 bits of value, an array of floats, as uint64."""
    return np.asarray(value, dtype=float).view(np.uint64)
