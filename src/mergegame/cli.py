"""Command-line front end: single-cycle planning, closed-loop episodes, Monte Carlo."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np
import yaml

from .actions import ROOT, SvAction
from .closed_loop import (
    aggregate_episodes,
    run_episode,
    run_episode_batch,
    run_monte_carlo,
    write_trace_jsonl,
)
from .planner import plan_cycle
from .scenario import PLANNER_KINDS, ScenarioConfig, default_merge_scenario, load_scenario

__all__ = ["main"]


def _load(args) -> ScenarioConfig:
    if args.config is not None:
        try:
            cfg = load_scenario(args.config)
        except (ValueError, TypeError) as exc:   # a bad value, an unknown key
            sys.exit(f"mergegame: error: {args.config}: {exc}")
    else:
        cfg = default_merge_scenario()
    overrides = {"seed": args.seed, "planner": args.planner}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _dump(data: dict, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)


def cmd_plan(args) -> int:
    cfg = _load(args)
    world = cfg.initial_world()
    beliefs = cfg.initial_beliefs()
    res = plan_cycle(world, beliefs, cfg, ROOT)
    g = res.game

    print(f"planner={cfg.planner} seed={cfg.seed} "
          f"columns={len(g.cols)} nash_cells={len(res.nash_cells)}")
    print(f"selected: row={res.row} ({SvAction(res.row).name}) col={res.col} "
          f"seq={g.cols[res.col]} kind={res.kind} fallback={res.fallback_used}")
    print(f"stackelberg: ev-leader cell={res.se_ev.cell()} sv-leader cell={res.se_sv.cell()}")
    order = np.argsort(g.ev.min(axis=0))[:12]
    nash_set = {eq.cell() for eq in res.nash_cells}
    print("lowest-ego-cost columns (grp = belief-weighted group cost, * = nash cell):")
    for j in order:
        marks = "".join("*" if (r, int(j)) in nash_set else " " for r in range(len(SvAction)))
        print(f"  [{int(j):4d}] {str(g.cols[j]):32s} "
              f"grp=({g.sv_weighted[0, j]:9.1f},{g.sv_weighted[1, j]:9.1f}) "
              f"ego=({g.ev[0, j]:9.1f},{g.ev[1, j]:9.1f}) {marks}")
    if args.out:
        _dump({
            "planner": cfg.planner,
            "seed": cfg.seed,
            "selection": {
                "row": res.row, "col": res.col, "action": SvAction(res.row).name,
                "sequence": str(g.cols[res.col]), "kind": res.kind,
                "fallback_used": res.fallback_used,
            },
            "nash_cells": [list(eq.cell()) for eq in res.nash_cells],
            "stackelberg": {"ev_leader": list(res.se_ev.cell()),
                            "sv_leader": list(res.se_sv.cell())},
            "beliefs": {vid: [b.p_assert, b.p_yield] for vid, b in beliefs.items()},
            "columns": [str(c) for c in g.cols],
            "sv_weighted": g.sv_weighted.tolist(),
            "ev": g.ev.tolist(),
        }, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    trace = run_episode(cfg)
    out = args.out or "episode_trace.jsonl"
    write_trace_jsonl(trace, out)
    ttm = f"{trace.time_to_merge:.2f}s" if trace.time_to_merge is not None else "-"
    print(f"outcome={trace.outcome.value} time_to_merge={ttm} "
          f"cycles={len(trace.cycles)} planner={trace.planner} seed={trace.seed}")
    print(f"wrote {out}")
    return 0


def cmd_montecarlo(args) -> int:
    cfg = _load(args)
    n = args.n if args.n is not None else cfg.montecarlo.n
    out = args.out or "montecarlo_stats.yaml"
    if cfg.montecarlo.mode == "closed-loop":
        agg = aggregate_episodes(run_episode_batch(cfg, n, workers=args.workers))
        data = {"mode": "closed-loop", "seed": cfg.seed, "n": n,
                "planner": cfg.planner, **agg}
    else:
        stats = run_monte_carlo(cfg, n=n, seed=cfg.seed, workers=args.workers)
        data = {"mode": "open-loop", **stats.to_dict()}
    _dump(data, out)
    print(yaml.safe_dump(data, sort_keys=False).rstrip())
    print(f"wrote {out}")
    return 0


def _at_least(minimum: int):
    """argparse type: an int no smaller than minimum."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return count


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mergegame",
                                description="Game-theoretic lane-merge planner and simulator")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="scenario YAML (default: built-in merge scenario)")
    common.add_argument("--seed", type=_at_least(0), help="override the scenario seed")
    common.add_argument("--planner", choices=PLANNER_KINDS, default=None,
                        help="override the scenario planner")
    common.add_argument("--out", type=str, default=None, help="output file path")

    sp = sub.add_parser("plan", parents=[common],
                        help="run one planning cycle and print the game matrix and selection")
    sp.set_defaults(func=cmd_plan)

    ss = sub.add_parser("simulate", parents=[common],
                        help="run one closed-loop episode and write its trace as JSON lines")
    ss.set_defaults(func=cmd_simulate)

    sm = sub.add_parser("montecarlo", parents=[common],
                        help="run a Monte Carlo batch and write the statistics file")
    sm.add_argument("--n", type=_at_least(1), default=None,
                    help="number of instances/episodes")
    sm.add_argument("--workers", type=_at_least(0), default=0,
                    help="parallel worker processes (0 or 1 runs serially)")
    sm.set_defaults(func=cmd_montecarlo)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
