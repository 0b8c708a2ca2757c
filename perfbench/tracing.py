"""Spans around calls into the program's layers, recorded from outside `src/`.

A `Tracer` replaces a module or class attribute with a wrapper that records
(name, start, end, parent span, count) and hands the call through unchanged.
The untraced run patches one attribute only: the planner entry point that the
closed loop and the Monte Carlo protocol call, so that every planning cycle is
timed. The traced run patches every layer listed in `layer_patches`.
"""

from __future__ import annotations

import gzip
import statistics
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (name, t0, t1, parent index or -1, count)
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def patch(self, owner, attr: str, name: str, count=None, on_return=None) -> None:
        """Record a span around every call of owner.attr.

        count(result, args) gives the work done by one call; on_return(result,
        args, kwargs) lets the caller keep what the call produced."""
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx, parent = len(spans), (stack[-1] if stack else -1)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, None)
            if count is not None:
                spans[idx] = (name, t0, t1, parent, count(out, args))
            if on_return is not None:
                on_return(out, args, kwargs)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr without a span (for calls made thousands of times)."""
        orig = getattr(owner, attr)
        calls = self.calls
        calls.setdefault(name, 0)

        def counted(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write_csv(self, path) -> None:
        """Gzipped CSV, one line per span: index, parent, name, start and end in ns, count."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,parent,name,t0_ns,t1_ns,count\n")
            for k, (name, t0, t1, parent, count) in enumerate(self.spans):
                fh.write(f"{k},{parent},{name},{int(t0 * 1e9)},{int(t1 * 1e9)},"
                         f"{'' if count is None else count}\n")


def layer_patches(tracer: Tracer) -> None:
    """Patch every layer boundary the planner crosses, at the names its callers use."""
    from mergegame import closed_loop, planner
    from mergegame.world import WorldSnapshot

    tracer.patch(planner, "enumerate_ego_sequences", "actions.enumerate_ego_sequences",
                 count=lambda out, args: len(out))
    tracer.patch(planner, "simulate_batch", "forward_sim.simulate_batch",
                 count=lambda out, args: out.inputs.shape[0] * out.inputs.shape[1]
                 * out.inputs.shape[2])

    def pair_steps(out, args):
        k, v, s = args[0].states.shape[:3]
        return k * v * (v - 1) // 2 * s

    tracer.patch(planner, "build_game_from_batch", "costs.build_game_from_batch",
                 count=pair_steps)
    tracer.patch(planner, "update_belief", "planner.update_belief")
    tracer.patch(planner, "find_pure_nash", "game.find_pure_nash",
                 count=lambda out, args: len(out))
    tracer.patch(planner, "stackelberg", "game.stackelberg")
    tracer.patch(planner, "select_action", "game.select_action",
                 count=lambda out, args: int(out.fallback_used))
    tracer.patch(WorldSnapshot, "resolve_gaps", "world.resolve_gaps")
    tracer.patch(WorldSnapshot, "leader_indices", "world.leader_indices")
    tracer.count_calls(closed_loop, "truth_sv_accel", "closed_loop.truth_sv_accel")
    tracer.count_calls(closed_loop, "step_bicycle", "closed_loop.step_bicycle")
    tracer.count_calls(closed_loop, "update_belief", "closed_loop.update_belief")


def wrapper_cost_s(n: int = 20000) -> float:
    """Measured cost of one traced call over a bare one, in seconds."""
    class Target:
        @staticmethod
        def f(x):
            return x

    bare = Target.f
    t0 = perf_counter()
    for i in range(n):
        bare(i)
    t_bare = perf_counter() - t0
    tracer = Tracer()
    tracer.patch(Target, "f", "calibration", count=lambda out, args: 1)
    traced = Target.f
    t0 = perf_counter()
    for i in range(n):
        traced(i)
    t_traced = perf_counter() - t0
    tracer.restore()
    return max(t_traced - t_bare, 0.0) / n


GAME_SOLVERS = ("game.find_pure_nash", "game.stackelberg", "game.select_action")


def layer_metrics(spans, calls: dict, n_cycles: int, extra_ms: dict,
                  wrapper_s: float) -> dict:
    """Per-cycle means of every layer, from the spans of a traced run.

    extra_ms holds per-run totals the workload measured around whole
    operations (truth stepping, instance overhead) plus per-run counts."""
    cycles = max(n_cycles, 1)
    inside = [False] * len(spans)   # span lies within a planning cycle
    child = [0.0] * len(spans)      # time covered by direct children
    total: dict[str, float] = {}
    count: dict[str, float] = {}
    n_spans = 0
    plan_samples, plan_self = [], 0.0
    for k, (name, t0, t1, parent, cnt) in enumerate(spans):
        if parent >= 0:
            inside[k] = inside[parent] or spans[parent][0] == "planner.plan_cycle"
            child[parent] += t1 - t0
    for k, (name, t0, t1, parent, cnt) in enumerate(spans):
        if name == "planner.plan_cycle":
            plan_samples.append(t1 - t0)
            plan_self += t1 - t0 - child[k]
            continue
        if not inside[k]:
            continue
        n_spans += 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        count[name] = count.get(name, 0) + (cnt or 0)
        count[name + ".calls"] = count.get(name + ".calls", 0) + 1

    def ms(name):
        return 1e3 * total.get(name, 0.0) / cycles

    def per_cycle(name):
        return count.get(name, 0) / cycles

    def ns_per(name):
        work = count.get(name, 0)
        return 1e9 * total.get(name, 0.0) / work if work else 0.0

    def ms_unit(v):
        return {"value": v, "unit": "ms"}

    def count_unit(v):
        return {"value": v, "unit": "count"}

    return {
        "actions.enumerate_ego_sequences.ms": ms_unit(ms("actions.enumerate_ego_sequences")),
        "actions.sequences": count_unit(per_cycle("actions.enumerate_ego_sequences")),
        "forward_sim.simulate_batch.ms": ms_unit(ms("forward_sim.simulate_batch")),
        "forward_sim.vehicle_steps": count_unit(per_cycle("forward_sim.simulate_batch")),
        "forward_sim.ns_per_vehicle_step": {"value": ns_per("forward_sim.simulate_batch"),
                                            "unit": "ns"},
        "costs.build_game_from_batch.ms": ms_unit(ms("costs.build_game_from_batch")),
        "costs.pair_steps": count_unit(per_cycle("costs.build_game_from_batch")),
        "costs.ns_per_pair_step": {"value": ns_per("costs.build_game_from_batch"),
                                   "unit": "ns"},
        "planner.update_belief.calls": count_unit(per_cycle("planner.update_belief.calls")),
        "planner.update_belief.ms": ms_unit(ms("planner.update_belief")),
        "game.solve.ms": ms_unit(sum(ms(n) for n in GAME_SOLVERS)),
        "game.nash_cells": count_unit(per_cycle("game.find_pure_nash")),
        "game.fallback_cycles": count_unit(count.get("game.select_action", 0)),
        "world.resolve_gaps.ms": ms_unit(ms("world.resolve_gaps")),
        "world.leader_indices.ms": ms_unit(ms("world.leader_indices")),
        "planner.plan_cycle.self_ms": ms_unit(1e3 * plan_self / cycles),
        "closed_loop.truth.ms": ms_unit(1e3 * extra_ms["truth_s"] / cycles),
        "closed_loop.truth_sv_accel.calls":
            count_unit(calls.get("closed_loop.truth_sv_accel", 0) / cycles),
        "closed_loop.step_bicycle.calls":
            count_unit(calls.get("closed_loop.step_bicycle", 0) / cycles),
        "closed_loop.update_belief.calls":
            count_unit(calls.get("closed_loop.update_belief", 0) / cycles),
        "closed_loop.instance_overhead.ms": ms_unit(1e3 * extra_ms["overhead_s"] / cycles),
        "closed_loop.resampled": count_unit(extra_ms["resampled"]),
        "trace.plan_cycle_p50_ms": ms_unit(1e3 * statistics.median(plan_samples)
                                           if plan_samples else 0.0),
        "trace.overhead_ms": ms_unit(1e3 * wrapper_s * (n_spans + len(plan_samples)) / cycles),
        "trace.cycles": count_unit(len(plan_samples)),
    }
