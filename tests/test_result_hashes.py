"""tools/result_hashes.py, the bit-identity gate between two checkouts, on one
merge episode."""

import importlib.util
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from mergegame import closed_loop
from mergegame.scenario import default_merge_scenario

_spec = importlib.util.spec_from_file_location(
    "result_hashes", Path(__file__).resolve().parents[1] / "tools" / "result_hashes.py")
result_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(result_hashes)


def one_episode():
    return [default_merge_scenario(10.0, seed=1)]


def test_one_merge_episode_hashes_reproducibly():
    plan_cycle = closed_loop.plan_cycle
    digest, cycles = result_hashes.episodes_hash(one_episode())
    assert re.fullmatch("[0-9a-f]{64}", digest) and cycles > 0
    assert closed_loop.plan_cycle is plan_cycle
    assert result_hashes.episodes_hash(one_episode()) == (digest, cycles)
    assert result_hashes.episodes_hash([default_merge_scenario(10.0, seed=2)])[0] != digest


def test_one_ulp_in_one_matrix_entry_changes_the_hash(monkeypatch):
    digest, _ = result_hashes.episodes_hash(one_episode())
    plan_cycle, nudged = closed_loop.plan_cycle, []

    def nudging(*args, **kwargs):
        res = plan_cycle(*args, **kwargs)
        if not nudged:
            res.game.sv_raw[0, 0] = np.nextafter(res.game.sv_raw[0, 0], np.inf)
            nudged.append(True)
        return res

    monkeypatch.setattr(closed_loop, "plan_cycle", nudging)
    assert result_hashes.episodes_hash(one_episode())[0] != digest


def test_packed_fractional_set_is_packed_with_fractional_safety_weights(monkeypatch):
    monkeypatch.setattr(result_hashes, "episodes_hash", lambda cfgs: cfgs)
    packed, fractional = result_hashes.SETS["packed"](), result_hashes.SETS["packed-fractional"]()
    assert [cfg.seed for cfg in fractional] == [cfg.seed for cfg in packed] == [0, 5]
    for plain, cfg in zip(packed, fractional):
        assert (cfg.weights.w_saf1, cfg.weights.w_saf2) == (1000.3, 0.7)
        assert replace(cfg, weights=plain.weights) == plain


def test_one_ulp_in_one_table_state_changes_the_rollouts_hash(monkeypatch):
    digest, cycles = result_hashes.rollouts_hash(one_episode())
    assert re.fullmatch("[0-9a-f]{64}", digest) and cycles > 0
    plan_cycle, nudged = closed_loop.plan_cycle, []

    def nudging(*args, **kwargs):
        res = plan_cycle(*args, **kwargs)
        if not nudged:
            states = res.rollout.traj_states
            states[-1, -1, 0] = np.nextafter(states[-1, -1, 0], np.inf)
            nudged.append(True)
        return res

    monkeypatch.setattr(closed_loop, "plan_cycle", nudging)
    assert result_hashes.rollouts_hash(one_episode())[0] != digest
