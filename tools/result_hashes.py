"""SHA-256 of the planner's results over fixed scenario sets.

Two checkouts that print the same hashes planned the same games, chose the
same cells and drove the same episodes, bit for bit. A set's hash covers, for
every planning cycle in order, the cost matrices (sv_weighted, ev, sv_raw),
the Nash cells with their social costs, both Stackelberg cells, the selection
(row, col, kind, fallback flag) and the column partners; and, for every
episode, each cycle record's start time, beliefs, partner, sequence and
social cost, its recorded steps and its outcome. The Monte Carlo set also
covers the returned statistics. The rollouts set covers only the planner's
trajectory tables, which the rollout must build byte for byte alike.

The sets:
  merge       20 closed-loop episodes of default_merge_scenario, at 5 and
              10 m/s, seeds 1-10
  packed      closed-loop episodes of packed_lane_scenario, seeds 0 and 5
  packed-fractional
              the packed set with w_saf1 = 1000.3 and w_saf2 = 0.7: unlike
              the integer defaults, these safety sums change bits when
              their terms are added in another order
  montecarlo  run_monte_carlo(n=200, seed=101) on default_merge_scenario(5.0)
              with weights.w_info = 20, in one process
  rollouts    every cycle's trajectory table (traj_states, traj_inputs,
              rows, block_start, period_rows, partner_ids) over the merge
              and packed episodes

Run from a checkout, with its sources on the path:

    PYTHONPATH=src python3 tools/result_hashes.py                 # every set
    PYTHONPATH=src python3 tools/result_hashes.py merge packed    # some sets

and compare the printed lines with another checkout's (PYTHONPATH=<other>/src).
"""

from __future__ import annotations

import argparse
import hashlib
from dataclasses import replace

import numpy as np

import mergegame
from mergegame import closed_loop
from mergegame.scenario import ScenarioConfig, default_merge_scenario, packed_lane_scenario


def _feed(h, value) -> None:
    """Add value to the hash by its exact bits, whatever its Python type."""
    if isinstance(value, np.ndarray):
        h.update(f"<{value.dtype.str}{value.shape}>".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, np.floating)):
        h.update(float(value).hex().encode())
    elif isinstance(value, (bool, np.bool_)):
        h.update(b"T" if value else b"F")
    elif isinstance(value, (int, np.integer)):
        h.update(str(int(value)).encode())
    elif isinstance(value, (tuple, list)):
        h.update(b"(")
        for item in value:
            _feed(h, item)
        h.update(b")")
    elif isinstance(value, dict):
        _feed(h, sorted(value.items()))
    else:
        h.update(repr(value).encode())
    h.update(b";")


def _feed_cycle(h, res) -> None:
    game = res.game
    _feed(h, [game.sv_weighted, game.ev, game.sv_raw, res.rollout.partner_ids[:len(game.cols)]])
    _feed(h, [(c.row, c.col, c.kind, c.social_cost) for c in res.nash_cells])
    for se in (res.se_ev, res.se_sv):
        _feed(h, (se.row, se.col, se.kind, se.social_cost))
    _feed(h, (res.row, res.col, res.kind, res.fallback_used))


def _feed_table(h, res) -> None:
    r = res.rollout
    _feed(h, [r.traj_states, r.traj_inputs, r.rows, r.block_start, r.period_rows,
              r.partner_ids])


class _Recorder:
    """Feeds every plan_cycle result into h, by feed, while installed as
    closed_loop.plan_cycle."""

    def __init__(self, h, feed=_feed_cycle):
        self.h, self.feed, self.cycles = h, feed, 0

    def __enter__(self):
        self.plan_cycle = closed_loop.plan_cycle

        def recording(*args, **kwargs):
            res = self.plan_cycle(*args, **kwargs)
            self.feed(self.h, res)
            self.cycles += 1
            return res

        closed_loop.plan_cycle = recording
        return self

    def __exit__(self, *exc):
        closed_loop.plan_cycle = self.plan_cycle


def episodes_hash(cfgs: list[ScenarioConfig]) -> tuple[str, int]:
    """(hex digest, cycles planned) over closed-loop episodes of cfgs, in order."""
    h = hashlib.sha256()
    with _Recorder(h) as rec:
        for cfg in cfgs:
            trace = closed_loop.run_episode(cfg)
            _feed(h, [(c.t0, c.beliefs, c.partner_id, c.sequence, c.social_cost)
                      for c in trace.cycles])
            _feed(h, (trace.outcome.value, trace.time_to_merge, trace.steps))
    return h.hexdigest(), rec.cycles


def rollouts_hash(cfgs: list[ScenarioConfig]) -> tuple[str, int]:
    """(hex digest, cycles planned) over the trajectory table of every cycle
    of closed-loop episodes of cfgs, in order."""
    h = hashlib.sha256()
    with _Recorder(h, _feed_table) as rec:
        for cfg in cfgs:
            closed_loop.run_episode(cfg)
    return h.hexdigest(), rec.cycles


def monte_carlo_hash(cfg: ScenarioConfig, n: int, seed: int) -> tuple[str, int]:
    """(hex digest, cycles planned) over run_monte_carlo's instances and statistics."""
    h = hashlib.sha256()
    with _Recorder(h) as rec:
        stats = closed_loop.run_monte_carlo(cfg, n=n, seed=seed, workers=0)
    _feed(h, stats.to_dict())
    return h.hexdigest(), rec.cycles


def _open_loop_config() -> ScenarioConfig:
    cfg = default_merge_scenario(5.0)
    return replace(cfg, weights=replace(cfg.weights, w_info=20.0))


def _fractional(cfg: ScenarioConfig) -> ScenarioConfig:
    return replace(cfg, weights=replace(cfg.weights, w_saf1=1000.3, w_saf2=0.7))


def _merge_configs() -> list[ScenarioConfig]:
    return [default_merge_scenario(speed, seed=seed)
            for speed in (5.0, 10.0) for seed in range(1, 11)]


def _packed_configs() -> list[ScenarioConfig]:
    return [packed_lane_scenario(seed=seed) for seed in (0, 5)]


SETS = {
    "merge": lambda: episodes_hash(_merge_configs()),
    "packed": lambda: episodes_hash(_packed_configs()),
    "packed-fractional": lambda: episodes_hash([_fractional(cfg) for cfg in _packed_configs()]),
    "montecarlo": lambda: monte_carlo_hash(_open_loop_config(), n=200, seed=101),
    "rollouts": lambda: rollouts_hash(_merge_configs() + _packed_configs()),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="*", metavar="SET",
                        help=f"sets to hash (default: all of {', '.join(SETS)})")
    args = parser.parse_args(argv)
    unknown = [name for name in args.sets if name not in SETS]
    if unknown:
        parser.error(f"unknown set(s): {', '.join(unknown)}")
    print(f"# mergegame from {mergegame.__path__[0]}")
    for name in args.sets or SETS:
        digest, cycles = SETS[name]()
        print(f"{name:<17} {digest}  ({cycles} cycles)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
