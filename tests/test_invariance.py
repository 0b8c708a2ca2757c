"""Closed-loop results do not depend on the roster order or on where the scene sits.

Both are properties of the method: a vehicle's index only names it, and every
law reads relative positions. They guard the refactors that reindex, pair or
stack vehicles. Speed jitter is 0, because run_episode draws it in roster
order, and the episodes are cut at 8 cycles, those of generated rosters at 3,
to keep the tests short.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergegame.closed_loop import run_episode
from mergegame.scenario import default_merge_scenario, packed_lane_scenario

from helpers import rosters

# The per-vehicle penalty sums follow the roster order, so a permuted roster
# may round differently: at most 7.3e-16 of the largest entry over these cases
MATRIX_RTOL = 1e-12


def _short(cfg, max_cycles=8):
    return replace(cfg, episode=replace(cfg.episode, max_cycles=max_cycles, speed_jitter=0.0))


def _fractional(cfg):
    # unlike the integer defaults, these weights round differently in another order
    return replace(cfg, weights=replace(cfg.weights, w_saf1=1000.3, w_saf2=0.7))


CASES = {
    "merge5": lambda: default_merge_scenario(5.0, seed=1),
    "merge10": lambda: default_merge_scenario(10.0, seed=2),
    "packed": lambda: packed_lane_scenario(seed=0),
    "packed-fractional": lambda: _fractional(packed_lane_scenario(seed=0)),
}


def _decisions(trace):
    """What each cycle chose and why, and how the episode ended."""
    cycles = [(c.row, c.col, c.kind, c.fallback_used, c.sequence, c.partner_id)
              for c in trace.cycles]
    return cycles, trace.outcome, trace.time_to_merge


def assert_roster_order_does_not_change_results(cfg, order):
    permuted = replace(cfg, vehicles=[cfg.vehicles[i] for i in order])
    base, other = (run_episode(c, record_games=True) for c in (cfg, permuted))

    assert _decisions(other) == _decisions(base)
    assert [c.nash_cells for c in other.cycles] == [c.nash_cells for c in base.cycles]
    for got, want in zip(other.cycles, base.cycles):
        for name in ("sv_weighted", "ev", "sv_raw"):
            a, b = getattr(got.game, name), getattr(want.game, name)
            assert np.abs(a - b).max() <= MATRIX_RTOL * np.abs(b).max(), name


@pytest.mark.parametrize("case", CASES)
def test_roster_order_does_not_change_results(case):
    cfg = _short(CASES[case]())
    order = np.random.default_rng(3).permutation(len(cfg.vehicles))
    assert order[0] != 0 and cfg.vehicles[0].role == "ego"   # the ego moves too
    assert_roster_order_does_not_change_results(cfg, order)


@settings(max_examples=5, deadline=None)
@given(cfg=rosters(), data=st.data())
def test_roster_order_does_not_change_results_on_generated_rosters(cfg, data):
    order = data.draw(st.permutations(range(len(cfg.vehicles))))
    assert_roster_order_does_not_change_results(_short(cfg, max_cycles=3), order)


def assert_translation_does_not_change_results(cfg):
    shift = 1000.0
    moved = replace(cfg, lanes=replace(cfg.lanes, merge_end=cfg.lanes.merge_end + shift),
                    vehicles=[replace(v, x=v.x + shift) for v in cfg.vehicles])
    assert _decisions(run_episode(moved)) == _decisions(run_episode(cfg))


@pytest.mark.parametrize("case", ["merge5", "merge10", "packed"])
def test_translation_does_not_change_results(case):
    assert_translation_does_not_change_results(_short(CASES[case]()))


@settings(max_examples=5, deadline=None)
@given(cfg=rosters())
def test_translation_does_not_change_results_on_generated_rosters(cfg):
    assert_translation_does_not_change_results(_short(cfg, max_cycles=3))
