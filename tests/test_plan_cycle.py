"""plan_cycle checked whole against reference_plan_cycle, which chains the
plain references of tests/reference.py: on the canonical and hand-made
worlds under every planner kind, with the information-gain term, on
generated mid-episode worlds, and on the worlds of the open-loop protocol.

Everything matches bit for bit: the chosen cell, its kind and fallback
flag, the Nash cells, both Stackelberg cells, the column partners, every
tuple's rollout and the three matrices; only the ego's costs with the
information-gain term on match within INFO_RTOL, the term's own bound.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import game_oracles
import reference
from mergegame.actions import ROOT
from mergegame.closed_loop import _mc_instance
from mergegame.costs import Belief
from mergegame.planner import plan_cycle
from mergegame.scenario import PLANNER_KINDS, default_merge_scenario

from helpers import (HAND_WORLDS, LATER, SCENARIOS, bits, mid_episode, rosters, scenario_world,
                     tuple_arrays)
from reference import INFO_RTOL, reference_plan_cycle


def assert_cycle_matches_reference(world, beliefs, cfg, root):
    res = plan_cycle(world, beliefs, cfg, root)
    ref = reference_plan_cycle(world, beliefs, cfg, root)
    assert (res.row, res.col, res.kind, res.fallback_used) == \
        (ref.row, ref.col, ref.kind, ref.fallback_used)
    assert [eq.cell() for eq in res.nash_cells] == ref.nash_cells
    assert (res.se_ev.cell(), res.se_sv.cell()) == (ref.se_ev, ref.se_sv)
    assert res.game.cols == ref.game.cols
    assert res.rollout.partner_ids == ref.rollout.partner_ids
    for got, want in zip(tuple_arrays(res.rollout), (ref.rollout.states, ref.rollout.inputs)):
        assert np.array_equal(bits(got), bits(want))
    for name in ("sv_weighted", "ev", "sv_raw"):
        got, want = getattr(res.game, name), getattr(ref.game, name)
        if name == "ev" and cfg.weights.w_info != 0.0:
            np.testing.assert_allclose(got, want, rtol=INFO_RTOL, atol=0.0)
        else:
            assert np.array_equal(bits(got), bits(want)), name


def with_info(cfg):
    return replace(cfg, weights=replace(cfg.weights, w_info=20.0))


def skewed(cfg, p=0.8):
    """Beliefs skewed toward assert and toward yield in turn, so that a
    column given another partner's belief shows."""
    return {vid: Belief(p, 1.0 - p) if i % 2 else Belief(1.0 - p, p)
            for i, vid in enumerate(cfg.sv_ids)}


CASES = ([f"{s}-{when}" for s in ("merge5", "merge10") for when in ("start", LATER[s])]
         + ["packed-start", "empty-start", "empty-end", "merge5-start-info",
            "merge10-after6-info", "packed-start-info"]
         + [f"hand-{name}" for name in HAND_WORLDS])


def case_args(case):
    """(world, beliefs, cfg, root) of a case: a scenario at its start, at
    its end or after 6 cycles with the episode's beliefs and root, or a
    hand-made world under the default merge's settings. merge5-start holds
    two skewed beliefs; "-info" turns the information-gain term on, with
    skewed beliefs."""
    if case.startswith("hand-"):
        return HAND_WORLDS[case[5:]], {}, default_merge_scenario(5.0), ROOT
    scenario, when = case.split("-")[:2]
    cfg = SCENARIOS[scenario]()
    if when == "after6":
        (world, beliefs, _, root), _ = mid_episode(cfg, 6)
    else:
        world, beliefs, root = scenario_world(scenario, when), cfg.initial_beliefs(), ROOT
    if case == "merge5-start":
        beliefs.update(sv2=Belief(0.7, 0.3), sv1=Belief(0.4, 0.6))
    if case.endswith("-info"):
        cfg, beliefs = with_info(cfg), skewed(cfg)
    return world, beliefs, cfg, root


@pytest.mark.parametrize("case", CASES)
def test_plan_cycle_matches_reference(case):
    world, beliefs, cfg, root = case_args(case)
    for planner in PLANNER_KINDS:
        assert_cycle_matches_reference(world, beliefs, replace(cfg, planner=planner), root)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=rosters(), cycles=st.integers(1, 3))
def test_plan_cycle_matches_reference_on_generated_worlds(cfg, cycles):
    assert_cycle_matches_reference(*mid_episode(cfg, cycles)[0])


def test_open_loop_instances_match_reference():
    # the open-loop workload's config: each instance's record is what the
    # reference plans on the world the instance yielded
    cfg = with_info(default_merge_scenario(5.0))
    for seed in range(20):
        job = _mc_instance(replace(cfg, seed=seed))
        args = next(job)
        with pytest.raises(StopIteration) as stop:
            job.send(plan_cycle(*args))
        rec, ref = stop.value.value, reference_plan_cycle(*args)
        assert (rec["has_nash"], rec["selected"], rec["se_ev"], rec["se_sv"]) == \
            (bool(ref.nash_cells), (ref.row, ref.col), ref.se_ev, ref.se_sv), seed


# The production code that the references stand in for
CHECKED = {"enumerate_ego_sequences", "simulate_batch", "build_game_from_batch",
           "_pair_band_penalties", "update_belief", "belief_entropy", "_info_gain_extra",
           "find_pure_nash", "stackelberg", "select_action", "plan_cycle", "truth_sv_accel",
           "_ego_hits_anyone"}


@pytest.mark.parametrize("module", [reference, game_oracles], ids=["reference", "game_oracles"])
def test_references_name_none_of_the_code_they_check(module):
    tree = ast.parse(Path(module.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    assert not names & CHECKED
