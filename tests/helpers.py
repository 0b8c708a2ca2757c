"""Helpers that several test modules share: the planner's first rollout, a
world part way through a closed-loop episode or at its end, and the bits of
a float."""

import numpy as np

from mergegame.actions import EgoDecision, GapChoice, LateralDecision
from mergegame.closed_loop import _episode, run_episode
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
    """The world that cycle `cycles` of cfg's closed loop plans from, after
    `cycles` planning cycles; ValueError if the episode ends before it."""
    job = _episode(cfg)
    try:
        args = next(job)
        for _ in range(cycles):
            args = job.send(plan_cycle(*args))
    except StopIteration:
        raise ValueError(f"the episode ended before cycle {cycles}") from None
    return args[0]


def end_world(cfg):
    """The world as cfg's closed loop leaves it: every vehicle's state after
    the substep that ended the episode."""
    trace = run_episode(cfg, record_steps=False)
    base = cfg.initial_world()
    states = np.array([trace.end_states[vid] for vid in base.ids])
    return WorldSnapshot(base.ids, states, base.params, base.v_des, base.lanes, base.ego_index)


def bits(value):
    """The IEEE 754 bits of value, an array of floats, as uint64."""
    return np.asarray(value, dtype=float).view(np.uint64)
