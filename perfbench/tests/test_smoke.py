"""Each workload end to end at a tiny size, and the refusal without program sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_tiny(name, trace):
    out = run.run_workload(name, seed=3, seconds=0, trace=bool(trace),
                           max_ops=WORKLOADS[name].ops_per_round, max_cycles=2, probes=1)
    result = out["result"]
    assert out["details"]["errors"] == [] and out["details"]["run_errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == WORKLOADS[name].ops_per_round
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in want)
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float | int)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_inputs_follow_the_seed():
    a, b = WORKLOADS["merge"](1), WORKLOADS["merge"](1)
    assert [a.config(i).seed for i in range(4)] == [b.config(i).seed for i in range(4)]
    assert a.config(0).seed != WORKLOADS["merge"](2).config(0).seed


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "merge",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
