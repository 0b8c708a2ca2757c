"""The benchmark's workloads: closed loops of one caller over the planner.

Each workload turns the run's seed into a deterministic stream of operations
(an episode, or one open-loop instance), runs them one after another, times
every planning cycle, and checks every output with `checks`. Only the
operations themselves are inside the throughput clock; checks run between them.
An untraced run also samples the host's speed around every cycle
(`hostspeed`) and reports each time both raw and scaled to the reference speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import checks
import hostspeed
from tracing import Tracer

from mergegame import closed_loop, planner
from mergegame.actions import EgoDecision, GapChoice, LateralDecision
from mergegame.closed_loop import Outcome, run_episode, run_monte_carlo
from mergegame.costs import Belief
from mergegame.scenario import default_merge_scenario, packed_lane_scenario

MERGE_SPEEDS = (5.0, 10.0)
MERGE_SUCCESS_FLOOR = 0.9   # acceptance criterion 6 at 5 m/s
OPEN_LOOP_SPEED = 5.0
OPEN_LOOP_W_INFO = 20.0
OPEN_LOOP_REFERENCE_EVERY = 4   # instances per reference recomputation of the game
ROOT = EgoDecision(GapChoice.GAP_0, LateralDecision.LANE_KEEP)


def op_seed(seed: int, index: int) -> int:
    """Episode or instance seed of operation `index` in the run seeded by `seed`."""
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1)[0] % 2**31)


@dataclass
class RunStats:
    plan_s: list = field(default_factory=list)     # every planning cycle
    op_wall_s: float = 0.0                         # wall time inside operations
    timings: list = field(default_factory=list)    # per operation, for hostspeed.scale
    truth_s: float = 0.0                           # closed loops: outside planning and start-up
    overhead_s: float = 0.0                        # per-instance set-up outside planning
    resampled: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)   # "speed:outcome" -> count
    run_errors: list = field(default_factory=list)


class Workload:
    name = ""
    ops_per_round = 1
    min_cycles = 100   # so that ten samples lie beyond the 90th percentile
    host_kernel = "calls"   # see hostspeed.KERNELS

    def __init__(self, seed: int, max_cycles: int | None = None, scale: bool = False):
        self.seed = seed
        self.max_cycles = max_cycles
        self.scale = scale         # sample the host's speed around every cycle
        self._last = None          # (world, beliefs, cfg, root, result) of the latest cycle
        self._samples = []         # host-speed samples of the current operation

    def config(self, index: int):
        raise NotImplementedError

    def warmup(self) -> None:
        """One untimed planning cycle on the first operation's initial world."""
        cfg = self.config(0)
        world = cfg.initial_world()
        beliefs = {vid: Belief(cfg.beliefs.initial_assert, 1.0 - cfg.beliefs.initial_assert)
                   for vid in cfg.sv_ids}
        planner.plan_cycle(world, beliefs, cfg, ROOT)

    def install(self, tracer: Tracer) -> None:
        """Time every planning cycle at the name the closed loop calls."""
        def keep(result, args, kwargs):
            world, beliefs, cfg, root = args[:4]
            self._last = (world, dict(beliefs), cfg, root, result)
            if self.scale:
                self._sample()

        tracer.patch(closed_loop, "plan_cycle", "planner.plan_cycle", on_return=keep)

    def _sample(self) -> None:
        t0 = perf_counter()
        k = hostspeed.sample(self.host_kernel)
        self._samples.append((t0, perf_counter(), k))

    def _begin(self, tracer: Tracer) -> tuple[int, float]:
        """Sample the host's speed if scaling, then start the operation's clock."""
        self._last = None
        self._samples = []
        if self.scale:
            self._sample()
        return len(tracer.spans), perf_counter()

    def _timed(self, tracer: Tracer, first: int, t0: float, stats: RunStats):
        """Add an operation's cycle and wall times to stats; return its wall
        time (host-speed samples excluded) and its planning spans."""
        t_end = perf_counter()
        plans = _plan_spans(tracer, first)
        wall = t_end - t0 - sum(ke - ks for ks, ke, _ in self._samples[1:])
        stats.plan_s.extend(t1 - ts for _, ts, t1, _, _ in plans)
        stats.op_wall_s += wall
        if self.scale:
            if len(self._samples) != len(plans) + 1:
                raise RuntimeError(f"{len(self._samples)} host-speed samples "
                                   f"for {len(plans)} planning cycles")
            stats.timings.append((t0, t_end, [(ts, t1) for _, ts, t1, _, _ in plans],
                                  self._samples))
        return wall, plans

    def run_op(self, index: int, tracer: Tracer, stats: RunStats) -> list[str]:
        """Run operation `index`, add its timings to stats, return check errors."""
        raise NotImplementedError

    def finish(self, stats: RunStats) -> None:
        """Checks over the whole run."""


def _plan_spans(tracer: Tracer, first: int):
    return [s for s in tracer.spans[first:] if s[0] == "planner.plan_cycle"]


class ClosedLoop(Workload):
    def _scenario(self, index: int):
        raise NotImplementedError

    def config(self, index: int):
        cfg = self._scenario(index)
        if self.max_cycles is not None:
            cfg = replace(cfg, episode=replace(cfg.episode, max_cycles=self.max_cycles))
        return cfg

    def run_op(self, index, tracer, stats):
        cfg = self.config(index)
        first, t0 = self._begin(tracer)
        trace = run_episode(cfg, planner="nash", record_steps=True, record_games=True)
        wall, plans = self._timed(tracer, first, t0, stats)
        plan_total = sum(t1 - ts for _, ts, t1, _, _ in plans)
        start_up = plans[0][1] - t0 if plans else wall
        stats.overhead_s += start_up
        stats.truth_s += wall - plan_total - start_up
        key = f"{cfg.ego.v:g}:{trace.outcome.value}"
        stats.outcomes[key] = stats.outcomes.get(key, 0) + 1

        errors = []
        if len(plans) != len(trace.cycles):
            errors.append(f"{len(plans)} planning calls for {len(trace.cycles)} cycles")
        for rec in trace.cycles:
            errors += checks.check_beliefs(rec.beliefs)
            errors += checks.check_game_selection(rec.game, rec.nash_cells,
                                                  (rec.row, rec.col), rec.fallback_used)
        errors += checks.check_truth_steps(trace.steps, cfg)
        if self._last is None:
            return errors + ["episode planned no cycle"]
        world, beliefs, cfg_used, root, result = self._last
        self._last = None
        errors += checks.check_reference_game(result, world, beliefs, cfg_used)
        errors += checks.check_rollout(result.rollout, world)
        errors += self.check_outcome(trace)
        return errors

    def check_outcome(self, trace) -> list[str]:
        return []


class Merge(ClosedLoop):
    """Default merge scenario at 5 and 10 m/s; one round is one episode at each speed."""

    name = "merge"
    ops_per_round = len(MERGE_SPEEDS)

    def _scenario(self, index):
        speed = MERGE_SPEEDS[index % len(MERGE_SPEEDS)]
        return default_merge_scenario(speed, planner="nash", seed=op_seed(self.seed, index))

    def finish(self, stats):
        low = {k: n for k, n in stats.outcomes.items() if k.startswith(f"{MERGE_SPEEDS[0]:g}:")}
        n = sum(low.values())
        ok = low.get(f"{MERGE_SPEEDS[0]:g}:{Outcome.SUCCESS.value}", 0)
        if self.max_cycles is None and n and ok / n < MERGE_SUCCESS_FLOOR:
            stats.run_errors.append(f"5 m/s success share {ok}/{n} below {MERGE_SUCCESS_FLOOR}")


class Dense(ClosedLoop):
    """The 37-vehicle packed target lane; one round is one episode."""

    name = "dense"
    # A packed-lane episode is 28 cycles of 0.7-1.1 s each on a 2-core x86_64
    # VM, so 100 cycles would take four episodes, longer than a run may last.
    # Two episodes keep the p90 off the three slowest cycles of one episode
    # (see README.md).
    min_cycles = 56
    host_kernel = "arrays"

    def _scenario(self, index):
        return packed_lane_scenario(seed=op_seed(self.seed, index))

    def check_outcome(self, trace):
        if trace.outcome == Outcome.COLLISION:
            return ["dense episode ended in ego contact"]
        return []


class OpenLoop(Workload):
    """Open-loop Monte Carlo at 5 m/s with the information-gain term on; one
    instance per operation."""

    name = "open-loop"

    def config(self, index):
        cfg = default_merge_scenario(OPEN_LOOP_SPEED, planner="nash")
        return replace(cfg, weights=replace(cfg.weights, w_info=OPEN_LOOP_W_INFO))

    def run_op(self, index, tracer, stats):
        cfg = self.config(index)
        first, t0 = self._begin(tracer)
        mc = run_monte_carlo(cfg, n=1, seed=op_seed(self.seed, index), workers=0)
        wall, plans = self._timed(tracer, first, t0, stats)
        stats.overhead_s += wall - sum(t1 - ts for _, ts, t1, _, _ in plans)
        stats.resampled += mc.resampled
        if len(plans) != 1:
            return [f"{len(plans)} planning calls in one instance"]
        world, beliefs, cfg_used, root, res = self._last
        self._last = None

        errors = []
        if root != ROOT:
            errors.append(f"instance planned from root {root}, not {ROOT}")
        nash = [eq.cell() for eq in res.nash_cells]
        errors += checks.check_game_selection(res.game, nash, (res.row, res.col),
                                              res.fallback_used)
        sv, ev = res.game.sv_weighted, res.game.ev
        for leader, eq in (("ev", res.se_ev), ("sv", res.se_sv)):
            want = checks.brute_stackelberg(sv, ev, leader)
            if eq.cell() != want:
                errors.append(f"{leader}-leader Stackelberg {eq.cell()} != oracle {want}")
        if mc.nash_fraction != (1.0 if nash else 0.0):
            errors.append("Monte Carlo Nash fraction disagrees with the instance's game")
        if nash and mc.selected_matches_se_ev != float((res.row, res.col) == res.se_ev.cell()):
            errors.append("Monte Carlo selection statistics disagree with the instance")
        errors += checks.check_beliefs({k: (b.p_assert, b.p_yield) for k, b in beliefs.items()})
        if index % OPEN_LOOP_REFERENCE_EVERY == 0:
            errors += checks.check_reference_game(res, world, beliefs, cfg_used)
        errors += checks.check_rollout(res.rollout, world)
        e = world.ego_index
        half = [(p.length / 2.0, p.width / 2.0) for p in world.params]
        ce = checks.corners(*world.states[e, :3], *half[e])
        for i in range(world.n_vehicles):
            if i != e and checks.overlap(ce, checks.corners(*world.states[i, :3], *half[i])):
                errors.append(f"instance starts with the ego overlapping {world.ids[i]}")
        return errors


WORKLOADS = {w.name: w for w in (Merge, Dense, OpenLoop)}


def measure(workload: Workload, seconds: float, tracer: Tracer,
            max_ops: int | None = None) -> RunStats:
    """Run whole rounds of operations until `seconds` have passed and the
    workload's minimum of cycles was planned (or max_ops operations, for smoke runs)."""
    stats = RunStats()
    t_start = perf_counter()
    index = 0
    while True:
        for _ in range(workload.ops_per_round):
            stats.attempted += 1
            try:
                errors = workload.run_op(index, tracer, stats)
            except Exception as exc:  # an operation that raises is a failed operation
                errors = [f"raised {type(exc).__name__}: {exc}"]
            if errors:
                stats.failed += 1
                stats.errors.append((index, errors[:3]))
            index += 1
        if max_ops is not None:
            if index >= max_ops:
                break
        elif perf_counter() - t_start >= seconds and len(stats.plan_s) >= workload.min_cycles:
            break
    workload.finish(stats)
    return stats
