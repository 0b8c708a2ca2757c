"""Helpers that several test modules share: the planner's first rollout and
its per-tuple arrays, the canonical and hand-made worlds, a world part way
through a closed-loop episode or at its end, a world's gap table by vehicle
id, generated rosters, and the bits of a float."""

from dataclasses import replace
from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

from mergegame.actions import ROOT, GapChoice
from mergegame.closed_loop import _episode, run_episode
from mergegame.costs import Belief, CostWeights
from mergegame.dynamics import VehicleParams
from mergegame.forward_sim import SimConfig
from mergegame.planner import plan_cycle
from mergegame.scenario import (MODES, PLANNER_KINDS, BeliefSettings, PruneSettings,
                                ScenarioConfig, VehicleSpec, default_merge_scenario,
                                empty_lane_scenario, packed_lane_scenario)
from mergegame.world import LaneGeometry, WorldSnapshot


def planner_rollout(cfg, world=None):
    """The rollout of a planning cycle on world (default: cfg's initial
    world) from the root 0LK, with uniform beliefs: every tuple the planner
    scores there."""
    beliefs = {vid: Belief.uniform() for vid in cfg.sv_ids}
    world = cfg.initial_world() if world is None else world
    return plan_cycle(world, beliefs, cfg, ROOT).rollout


def tuple_arrays(rollout):
    """A BatchRollout's per-tuple arrays, states (K, V, T+1, 4) and inputs
    (K, V, T, 2), gathered from its trajectory table."""
    return rollout.traj_states[rollout.rows], rollout.traj_inputs[rollout.rows]


def mid_episode(cfg, cycles):
    """The (world, beliefs, cfg, root) that cfg's closed loop plans from
    after `cycles` planning cycles, or after its last one if the episode
    ends before, and the number of cycles planned before it."""
    job = _episode(cfg)
    args, planned = next(job), 0
    try:
        while planned < cycles:
            args = job.send(plan_cycle(*args))
            planned += 1
    except StopIteration:
        pass
    world, beliefs, cfg, root = args
    return (world, dict(beliefs), cfg, root), planned


def mid_episode_world(cfg, cycles):
    """The world that cycle `cycles` of cfg's closed loop plans from, after
    `cycles` planning cycles; ValueError if the episode ends before it."""
    args, planned = mid_episode(cfg, cycles)
    if planned < cycles:
        raise ValueError(f"the episode ended before cycle {cycles}")
    return args[0]


def end_world(cfg):
    """The world as cfg's closed loop leaves it: every vehicle's state after
    the substep that ended the episode."""
    trace = run_episode(cfg, record_steps=False)
    base = cfg.initial_world()
    states = np.array([trace.end_states[vid] for vid in base.ids])
    return replace(base, states=states)


SCENARIOS = {
    "merge5": lambda: default_merge_scenario(5.0),
    "merge10": lambda: default_merge_scenario(10.0),
    "empty": lambda: empty_lane_scenario(8.0),
    "packed": lambda: packed_lane_scenario(6.0),
}

# A later world of each scenario: merge 10 and packed plan cycle 6, while the
# ego of empty (cycle 3) and merge 5 (cycle 5) merges before it, so their
# end states, post-merge worlds, stand in
LATER = {"merge5": "end", "merge10": "after6", "empty": "end", "packed": "after6"}


@lru_cache(maxsize=None)
def scenario_world(scenario, when):
    """The scenario's initial world ("start"), the world its cycle 6 plans
    from ("after6"), or the world its episode ends in ("end")."""
    cfg = SCENARIOS[scenario]()
    if when == "start":
        return cfg.initial_world()
    return end_world(cfg) if when == "end" else mid_episode_world(cfg, 6)


def scenario_times(*scenarios):
    """(scenario, when) for each scenario at its start and its later world."""
    return [(s, when) for s in scenarios for when in ("start", LATER[s])]


def world_from_rows(rows, wheelbases=None):
    """A world from (id, x, y, v, v_des) rows, the ego first, and optionally
    each vehicle's wheelbase."""
    wheelbases = wheelbases or [VehicleParams().wheelbase] * len(rows)
    return WorldSnapshot(ids=tuple(r[0] for r in rows),
                         states=np.array([[x, y, 0.0, v] for _, x, y, v, _ in rows]),
                         params=tuple(VehicleParams(wheelbase=w) for w in wheelbases),
                         v_des=np.array([r[4] for r in rows]), lanes=LaneGeometry(), ego_index=0)


def gap_ids(world):
    """{GapChoice: (front id, rear id)} of world.resolve_gaps on the
    planner's leader chain, None where a bound is missing; the rear id is the
    gap's interaction partner."""
    table = world.resolve_gaps(world.leader_indices())
    return {g: tuple(world.ids[v] if v >= 0 else None for v in table[g].tolist())
            for g in GapChoice}


# Worlds that reach the corners of the rollout's surrounding-vehicle key
HAND_WORLDS = {
    # "tail" follows the ego on the current lane: its leader differs per column
    "ego-leads": world_from_rows([("ego", 0.0, 0.0, 7.0, 10.0), ("tail", -14.0, 0.0, 8.0, 10.0),
                                  ("truck", 30.0, 0.0, 5.0, 5.0), ("t0", 25.0, 3.5, 6.0, 8.0),
                                  ("t1", 4.0, 3.5, 6.0, 8.0), ("t2", -20.0, 3.5, 6.0, 8.0)]),
    # the gap-2 partner "p" follows "t0", 0.3 m off its lane center, so the
    # partner's lateral discount reaches its physical leader
    "off-line-leader": world_from_rows([("ego", 0.0, 0.0, 7.0, 10.0),
                                        ("truck", 30.0, 0.0, 5.0, 5.0),
                                        ("t0", 20.0, 3.8, 6.0, 8.0), ("p", -8.0, 3.5, 7.0, 8.0),
                                        ("t2", -30.0, 3.5, 6.0, 8.0)]),
    # the gap-2 partner "p" is level with a faster ego: the probing ego is its
    # virtual leader under the yield discount and not under the assert one
    "partner-led-by-ego": world_from_rows([("ego", 0.0, 0.0, 8.0, 10.0),
                                           ("truck", 30.0, 0.0, 5.0, 5.0),
                                           ("t0", 30.0, 3.5, 6.0, 8.0), ("p", -1.0, 3.5, 6.0, 8.0),
                                           ("t2", -25.0, 3.5, 6.0, 8.0)]),
    # every vehicle has its own wheelbase: the rollout steps all entries with
    # the ego's, which the surrounding vehicles' zero steering makes exact
    "own-wheelbases": world_from_rows([("ego", 0.0, 0.0, 7.0, 10.0),
                                       ("truck", 30.0, 0.0, 5.0, 5.0),
                                       ("t0", 20.0, 3.5, 6.0, 8.0), ("p", -3.0, 3.5, 7.0, 8.0),
                                       ("t2", -30.0, 3.5, 0.0, 8.0)],
                                      wheelbases=[2.7, 5.5, 1.9, 3.3, 0.8]),
}


@st.composite
def rosters(draw):
    """Valid scenarios within these bounds: the ego and 0-2 more vehicles on
    the current lane and 0-5 on the target lane, which lies on either side,
    with at least one vehicle besides the ego; each vehicle 4.5 or 7 m
    long, at x in [-36, 37] m, 9 m slots apart on its lane, so that no two
    footprints touch; speeds 0-14 m/s, desired speeds 1-14 m/s, either
    truth mode; dt 0.1-0.5 s, horizons 1-5, change budgets 0-2, every
    planner kind, w_info 0 or 20 and an initial assert belief of 0.3, 0.5
    or 0.8."""
    vehicles, current = [], draw(st.integers(1, 3))
    for lane, n in (("current", current), ("target", draw(st.integers(int(current == 1), 5)))):
        for k, slot in enumerate(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n,
                                               unique=True))):
            ego = lane == "current" and k == 0
            vehicles.append(VehicleSpec(
                "ego" if ego else f"{lane}{k}", role="ego" if ego else "traffic", lane=lane,
                x=9.0 * slot + draw(st.floats(0.0, 1.0)), v=draw(st.floats(0.0, 14.0)),
                v_des=draw(st.floats(1.0, 14.0)),
                mode="selfish" if ego else draw(st.sampled_from(MODES)),
                params=VehicleParams(length=draw(st.sampled_from([4.5, 7.0])))))
    sim = SimConfig(dt=draw(st.sampled_from([0.1, 0.2, 0.25, 0.5])),
                    horizon=draw(st.sampled_from([5, 4, 3, 2, 1])))
    return ScenarioConfig(
        lanes=LaneGeometry(target_center=draw(st.sampled_from([3.5, -3.5]))),
        vehicles=vehicles, sim=sim, weights=CostWeights(w_info=draw(st.sampled_from([0.0, 20.0]))),
        beliefs=BeliefSettings(initial_assert=draw(st.sampled_from([0.3, 0.5, 0.8]))),
        prune=PruneSettings(max_decision_changes=draw(st.sampled_from([2, 1, 0]))),
        planner=draw(st.sampled_from(PLANNER_KINDS)), seed=draw(st.integers(0, 1000)))


def bits(value):
    """The IEEE 754 bits of value, an array of floats, as uint64."""
    return np.asarray(value, dtype=float).view(np.uint64)
