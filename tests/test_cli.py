import json
import re
from dataclasses import replace

import pytest
import yaml

from mergegame.cli import main
from mergegame.scenario import default_merge_scenario, save_scenario


def write_cfg(tmp_path, **kwargs):
    path = tmp_path / "scenario.yaml"
    save_scenario(default_merge_scenario(5.0, **kwargs), path)
    return str(path)


def test_plan_prints_matrix_and_selection(tmp_path, capsys):
    cfg = write_cfg(tmp_path, seed=4)
    out = tmp_path / "plan.yaml"
    assert main(["plan", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "selected:" in printed and "nash_cells" in printed
    data = yaml.safe_load(out.read_text())
    assert set(data) >= {"selection", "columns", "sv_weighted", "ev", "beliefs"}
    assert len(data["sv_weighted"]) == 2
    assert len(data["sv_weighted"][0]) == len(data["columns"])


def test_simulate_writes_trace(tmp_path, capsys):
    cfg = write_cfg(tmp_path, seed=4)
    out = tmp_path / "trace.jsonl"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[0]["record"] == "cycle" and "sv2" in records[0]["beliefs"]
    assert {"row", "col", "kind", "sequence"} <= set(records[0])
    assert any(r["record"] == "step" and r["vehicle_id"] == "sv2" for r in records)
    assert records[-1]["record"] == "end"
    assert f"outcome={records[-1]['outcome']}" in capsys.readouterr().out


def test_montecarlo_open_loop_stats(tmp_path):
    cfg = write_cfg(tmp_path, seed=4)
    out = tmp_path / "stats.yaml"
    assert main(["montecarlo", "--config", cfg, "--n", "10", "--out", str(out)]) == 0
    data = yaml.safe_load(out.read_text())
    assert data["mode"] == "open-loop"
    assert data["n"] == 10
    assert 0.0 <= data["nash_fraction"] <= 1.0
    assert set(data["yield_fraction"]) == {"ne", "se_ev", "se_sv"}


def test_montecarlo_closed_loop_stats(tmp_path):
    cfg_obj = default_merge_scenario(5.0, seed=4)
    cfg_obj = replace(cfg_obj, montecarlo=replace(cfg_obj.montecarlo, mode="closed-loop"))
    path = tmp_path / "scenario.yaml"
    save_scenario(cfg_obj, path)
    out = tmp_path / "stats.yaml"
    assert main(["montecarlo", "--config", str(path), "--n", "4",
                 "--planner", "lowest-cost", "--out", str(out)]) == 0
    data = yaml.safe_load(out.read_text())
    assert data["mode"] == "closed-loop"
    assert data["planner"] == "lowest-cost"
    assert data["episodes"] == 4
    total = data["success_rate"] + data["collision_rate"] + data["timeout_rate"]
    assert abs(total - 1.0) < 1e-9


def test_seed_and_planner_overrides(tmp_path):
    cfg = write_cfg(tmp_path, seed=4)
    o1, o2 = tmp_path / "a.yaml", tmp_path / "b.yaml"
    main(["plan", "--config", cfg, "--seed", "9", "--planner", "stackelberg-ev",
          "--out", str(o1)])
    d1 = yaml.safe_load(o1.read_text())
    assert d1["seed"] == 9 and d1["planner"] == "stackelberg-ev"
    main(["plan", "--config", cfg, "--out", str(o2)])
    assert yaml.safe_load(o2.read_text())["seed"] == 4


def test_default_config_fallback(tmp_path, capsys):
    assert main(["plan", "--seed", "2"]) == 0
    assert "selected:" in capsys.readouterr().out


@pytest.mark.parametrize("flags, message", [
    (["--n", "0"], "argument --n: must be >= 1, got 0"),
    (["--workers", "-1"], "argument --workers: must be >= 0, got -1"),
])
def test_montecarlo_rejects_bad_sizes_with_a_message(tmp_path, capsys, flags, message):
    # --n 0 used to end in a ZeroDivisionError, and --workers -1 ran serially
    out = tmp_path / "stats.yaml"
    with pytest.raises(SystemExit) as exit_info:
        main(["montecarlo", "--config", write_cfg(tmp_path), *flags, "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_montecarlo_rejects_yaml_without_instances(tmp_path):
    path = tmp_path / "scenario.yaml"
    save_scenario(default_merge_scenario(5.0), path)
    path.write_text(path.read_text().replace("n: 500", "n: 0"))
    out = tmp_path / "stats.yaml"
    with pytest.raises(SystemExit, match="montecarlo n must be >= 1"):
        main(["montecarlo", "--config", str(path), "--out", str(out)])
    assert not out.exists()


def plan_edited_config(tmp_path, edit):
    """Run plan on the default scenario file after edit(data), which must
    fail without writing the output; return the file and the exit message."""
    path = tmp_path / "scenario.yaml"
    save_scenario(default_merge_scenario(5.0), path)
    data = yaml.safe_load(path.read_text())
    edit(data)
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    out = tmp_path / "plan.yaml"
    with pytest.raises(SystemExit) as exit_info:
        main(["plan", "--config", str(path), "--out", str(out)])
    assert not out.exists()
    return path, str(exit_info.value.code)


@pytest.mark.parametrize("edit, key", [
    (lambda data: data.update(plannr=data.pop("planner")), "plannr"),
    # the layout before the model section, whose fields sat at the top level
    (lambda data: data.update(data.pop("model")), "gains"),
    (lambda data: data["prune"].update(use_default_forbidden=True), "use_default_forbidden"),
    # the gap target is the gap's midpoint, in which d_safe cancelled
    (lambda data: data["model"].update(d_safe=6.0), "d_safe"),
], ids=["misspelt", "pre-model-section", "removed-prune-key", "removed-model-key"])
def test_unknown_key_is_an_error_message(tmp_path, capsys, edit, key):
    # an unknown key used to end in a TypeError traceback
    path, message = plan_edited_config(tmp_path, edit)
    assert re.match(f"^mergegame: error: {re.escape(str(path))}: .*'{key}'", message)


@pytest.mark.parametrize("edit, text", [
    (lambda data: data.update(model=5), "model must be a mapping, got 5"),
    (lambda data: data.update(vehicles=5), "vehicles must be a list, got 5"),
    (lambda data: data["vehicles"][1].update(params=[1]),
     "vehicles[1] params must be a mapping, got [1]"),
    (lambda data: data.update(sim=[1]), "sim must be a mapping, got [1]"),
    (lambda data: data.update(seed=-1), "scenario seed must be >= 0, got -1"),
], ids=["model", "vehicles", "vehicle-params", "sim", "negative-seed"])
def test_bad_section_is_an_error_message(tmp_path, edit, text):
    # a section of the wrong type used to end in "'int' object is not
    # iterable", naming no section; a negative seed failed mid-run in numpy
    path, message = plan_edited_config(tmp_path, edit)
    assert message == f"mergegame: error: {path}: {text}"


@pytest.mark.parametrize("command", ["plan", "simulate", "montecarlo"])
def test_negative_seed_flag_is_rejected(tmp_path, capsys, command):
    # --seed -1 used to end in a numpy traceback once the first draw was made
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--seed", "-1", "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be >= 0, got -1" in err and "Traceback" not in err
    assert not out.exists()
