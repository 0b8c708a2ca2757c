"""Planner benchmark: cycle latency and closed-loop throughput, with per-layer timings.

One workload per process:

    python3 perfbench/run.py --workload merge --seed 1 --seconds 20 --trace 0

prints a table and, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1). The end-to-end times are
scaled to the reference host speed (see hostspeed.py); the table also prints
them raw. Every workload, untraced and traced, with the tracing overhead:

    python3 perfbench/run.py --all --seconds 20

Results and span files go to perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One caller on a 2-core machine: keep BLAS/OpenMP from starting thread pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("merge", "dense", "open-loop")
SETUP_PROBES = 5


def _import_program():
    """Put the checkout's own sources first on the path; fail without them."""
    if not (SRC / "mergegame" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'mergegame'}; "
                 "run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mergegame
    if Path(mergegame.__file__).resolve().parent != (SRC / "mergegame").resolve():
        sys.exit(f"perfbench: imported mergegame from {mergegame.__file__}, not the checkout")


def machine_facts() -> dict:
    import numpy
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def time_setups(workload: str, seed: int, probes: int) -> tuple[list[float], list[float]]:
    """Process start to ready (imports, scenario build, one warm-up cycle), in
    fresh processes: raw, and scaled by the host's speed sampled around each probe."""
    import hostspeed
    from workloads import WORKLOADS

    kernel = WORKLOADS[workload].host_kernel
    reference_s = hostspeed.KERNELS[kernel][1]
    raw, scaled = [], []
    for _ in range(probes):
        before = hostspeed.sample(kernel)
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                                 "--workload", workload, "--seed", str(seed)],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline().strip()
        elapsed = perf_counter() - t0
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line != "ready":
            raise RuntimeError(f"set-up probe failed ({line!r})")
        after = hostspeed.sample(kernel)
        raw.append(elapsed)
        scaled.append(elapsed * reference_s * (1.0 / before + 1.0 / after) / 2.0)
    return raw, scaled


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 max_ops: int | None = None, max_cycles: int | None = None,
                 probes: int = SETUP_PROBES) -> dict:
    """Measure one workload; returns the result object and the run's details."""
    raw_setups, setups = ([], []) if trace else time_setups(name, seed, probes)
    t0 = perf_counter()
    import hostspeed
    import tracing
    from workloads import WORKLOADS, measure

    workload = WORKLOADS[name](seed, max_cycles=max_cycles, scale=not trace)
    reference_s = hostspeed.KERNELS[workload.host_kernel][1]
    workload.warmup()
    own_setup = perf_counter() - t0

    tracer = tracing.Tracer()
    wrapper_s = tracing.wrapper_cost_s() if trace else 0.0
    workload.install(tracer)
    if trace:
        tracing.layer_patches(tracer)
    try:
        stats = measure(workload, seconds, tracer, max_ops=max_ops)
    finally:
        tracer.restore()

    raw_ms = [1e3 * s for s in stats.plan_s]
    if trace:
        metrics = tracing.layer_metrics(
            tracer.spans, tracer.calls, len(raw_ms),
            {"truth_s": stats.truth_s, "overhead_s": stats.overhead_s,
             "resampled": stats.resampled}, wrapper_s)
    else:
        plan_s, op_wall_s = hostspeed.scale(stats.timings, reference_s)
        plan_ms = [1e3 * s for s in plan_s]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "plan_cycle_p50_ms": {"value": statistics.median(plan_ms), "unit": "ms"},
            "plan_cycle_p90_ms": {"value": _p90(plan_ms), "unit": "ms"},
            "cycles_per_s": {"value": len(plan_ms) / op_wall_s, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    kernels = [k for *_, samples in stats.timings for _, _, k in samples]
    result = {"correct": stats.failed == 0 and not stats.run_errors,
              "attempted": stats.attempted, "failed": stats.failed, "metrics": metrics}
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_facts(),
        "cycles": len(raw_ms), "operations": stats.attempted,
        "outcomes": stats.outcomes, "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups, "own_setup_s": own_setup,
        "raw": {"plan_cycle_p50_ms": statistics.median(raw_ms),
                "plan_cycle_p90_ms": _p90(raw_ms),
                "cycles_per_s": len(raw_ms) / stats.op_wall_s},
        "host_speed": {"kernel": workload.host_kernel, "reference_ms": 1e3 * reference_s,
                       "samples": len(kernels),
                       "kernel_ms_quartiles": [1e3 * q for q in statistics.quantiles(
                           kernels, n=4)] if len(kernels) > 1 else []},
        "errors": stats.errors[:20], "run_errors": stats.run_errors,
        "result": result,
    }
    return {"result": result, "details": details, "tracer": tracer}


def _p90(samples: list) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


def _print_table(metrics: dict) -> None:
    for key, m in metrics.items():
        print(f"  {key:<38} {m['value']:>14.4f} {m['unit']}")


def _report(seconds: int, seed: int) -> int:
    """Every workload untraced and traced, one process each, with the tracing overhead."""
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        runs = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                return proc.returncode
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        plain, traced = runs
        summary[name] = {"end_to_end": plain, "per_layer": traced}
        print(f"\n== {name}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        _print_table(plain["metrics"])
        print("  -- per layer (traced run), mean per cycle unless a count per run")
        _print_table(traced["metrics"])
        with open(RESULTS / f"{name}-seed{seed}-trace0.json") as fh:
            raw_p50 = json.load(fh)["raw"]["plan_cycle_p50_ms"]
        overhead = traced["metrics"]["trace.plan_cycle_p50_ms"]["value"] - raw_p50
        print(f"  tracing overhead on plan_cycle_p50_ms: {overhead:+.3f} ms")
        summary[name]["trace_overhead_ms"] = overhead
        if not (plain["correct"] and traced["correct"]):
            status = 1
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "report.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_program()
    if args.all:
        return _report(args.seconds, args.seed)
    if args.workload is None:
        ap.error("--workload or --all is required")
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        from workloads import WORKLOADS
        WORKLOADS[args.workload](args.seed).warmup()
        print("ready", flush=True)
        return 0

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    details, result = out["details"], out["result"]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    if args.trace:
        out["tracer"].write_csv(RESULTS / f"{stem}.spans.csv.gz")

    print(f"# machine: {json.dumps(details['machine'])}")
    print(f"# {args.workload} seed={args.seed}: {details['operations']} operations, "
          f"{details['cycles']} cycles, outcomes {details['outcomes']}")
    for index, errors in details["errors"]:
        print(f"# FAILED operation {index}: {'; '.join(errors)}")
    for err in details["run_errors"]:
        print(f"# FAILED run check: {err}")
    _print_table(result["metrics"])
    if not args.trace:
        host = details["host_speed"]
        print(f"  as measured, host kernel {' / '.join(f'{q:.2f}' for q in host['kernel_ms_quartiles'])}"
              f" ms (quartiles; reference {host['reference_ms']:g} ms):")
        _print_table({k: {"value": v, "unit": result["metrics"][k]["unit"]}
                      for k, v in details["raw"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
