import json
import os
import signal
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from mergegame.actions import DecisionSequence, EgoDecision, GapChoice, LateralDecision, SvAction
from mergegame import closed_loop
from mergegame.closed_loop import (
    STEP_FIELDS,
    Outcome,
    _ego_hits_anyone,
    aggregate_episodes,
    run_episode,
    run_episode_batch,
    run_monte_carlo,
    truth_sv_accel,
    write_trace_jsonl,
)
from mergegame.control import IdmSettings, idm_accel
from mergegame.costs import update_belief
from mergegame.dynamics import VehicleParams, rects_penetrate, step_bicycle
from mergegame.forward_sim import SimConfig, simulate_batch
from mergegame.planner import plan_cycle
from mergegame.scenario import (
    EpisodeSettings,
    MonteCarloSettings,
    ScenarioConfig,
    VehicleSpec,
    default_merge_scenario,
    empty_lane_scenario,
    packed_lane_scenario,
)
from mergegame.world import WorldSnapshot

from helpers import bits, tuple_arrays
from reference import (IdmParams, State, reference_ego_hits_anyone, reference_step,
                       reference_truth_sv_accel)

IDM = IdmSettings()
A_MAX = VehicleParams().a_max
POLITE_REACH, SELFISH_REACH = 0.75 * 3.5, 0.25 * 3.5


def truth_of_sv(ego, sv, reach, leader=None):
    """truth_sv_accel of one surrounding vehicle in the world [ego, sv, leader]."""
    rows = [ego, sv] + ([leader] if leader is not None else [])
    leader_idx = np.array([-1, 2 if leader is not None else -1, -1][:len(rows)])
    return truth_sv_accel(np.array(rows, dtype=float), np.array([1]), leader_idx, 0,
                          np.array([10.0]), np.array([3.5]), np.array([reach]), IDM,
                          np.array([A_MAX]))[0]


def plain_idm(sv, leader=None):
    """Car following alone: no leader, or a same-lane physical leader."""
    if leader is None:
        return idm_accel(sv[3], 0.0, np.inf, False, 10.0, IDM, A_MAX)
    return idm_accel(sv[3], leader[3], abs(leader[0] - sv[0]), True, 10.0, IDM, A_MAX)


def test_truth_sv_ignores_distant_ego():
    sv = (0, 3.5, 0, 8)
    leader = (30, 3.5, 0, 8)
    far_ego = (10, -3.5, 0, 8)  # two lanes away
    assert truth_of_sv(far_ego, sv, SELFISH_REACH, leader) == plain_idm(sv, leader)
    assert truth_of_sv(far_ego, sv, POLITE_REACH, leader) == plain_idm(sv, leader)


def test_truth_mode_thresholds_at_boundary():
    sv = (0, 3.5, 0, 8)
    ego = (12, 1.75, 0, 5)  # straddling: half a lane from the sv lane center
    polite = truth_of_sv(ego, sv, POLITE_REACH)
    selfish = truth_of_sv(ego, sv, SELFISH_REACH)
    assert polite < 0.0
    assert selfish == plain_idm(sv)


def test_truth_modes_identical_for_on_lane_ego():
    sv = (0, 3.5, 0, 8)
    ego = (12, 3.5, 0, 5)
    polite = truth_of_sv(ego, sv, POLITE_REACH)
    selfish = truth_of_sv(ego, sv, SELFISH_REACH)
    assert polite == selfish
    assert polite == min(plain_idm(sv), plain_idm(sv, ego))


def test_truth_sv_never_rams_its_leader():
    sv = (0, 3.5, 0, 10)
    leader = (8, 3.5, 0, 2)
    ego = (40, 3.5, 0, 12)  # ahead but irrelevant
    assert truth_of_sv(ego, sv, SELFISH_REACH, leader) <= plain_idm(sv, leader)


# --- the array truth step against the per-vehicle scalar truth model -------------------

def assert_close(got, want, what):
    err = np.abs(np.asarray(got) - want) / np.maximum(np.abs(want), 1.0)
    assert np.all(err <= 1e-12), f"{what}: {got} vs reference {want}"


def assert_trace_matches_reference(cfg, trace):
    """Every recorded truth command, and every recorded step from one state to
    the next, the last one to the end states, equals the scalar truth model
    within 1e-12 relative."""
    base = cfg.initial_world()
    V, e = base.n_vehicles, base.ego_index
    rows = np.array([r[3:] for r in trace.steps], dtype=float).reshape(-1, V, 6)
    after = np.concatenate([rows[1:, :, :4], [list(trace.end_states.values())]])
    cycle_of = [r[0] for r in trace.steps[::V]]
    idm = cfg.model.idm
    params = {v.vehicle_id: IdmParams(v.v_des, idm.time_headway, idm.s0, idm.a_acc,
                                      idm.b_dec, 1.0, cfg.lanes.width, idm.b_emergency,
                                      v.params.a_max)
              for v in cfg.vehicles if v.role != "ego"}
    for n in range(len(rows)):
        states = rows[n, :, :4]
        if n == 0 or cycle_of[n] != cycle_of[n - 1]:
            # the truth world resolves the leaders once per cycle
            leader_idx = WorldSnapshot(base.ids, states.copy(), base.params, base.v_des,
                                       base.lanes, e).leader_indices(include_ego=False)
        ego = State(*states[e])
        for i, spec in enumerate(cfg.vehicles):
            if i == e:
                continue
            leader = State(*states[leader_idx[i]]) if leader_idx[i] >= 0 else None
            want = reference_truth_sv_accel(
                State(*states[i]), ego, spec.mode, params[spec.vehicle_id],
                cfg.lane_center(spec.lane), leader,
                cfg.episode.polite_lateral_frac, cfg.episode.selfish_lateral_frac)
            assert_close(rows[n, i, 4], want, f"step {n} {spec.vehicle_id} command")
        for i in range(V):
            want = reference_step(State(*states[i]), rows[n, i, 4], rows[n, i, 5],
                                  cfg.sim.dt, base.params[i])
            assert_close(after[n, i], want, f"step {n} {base.ids[i]} state")
    return rows


@pytest.mark.parametrize("case", ["merge5-seed4", "merge10-seed1", "packed"])
def test_truth_step_matches_scalar_reference_on_episodes(case):
    if case == "packed":
        cfg = packed_lane_scenario(seed=0)
        cfg = replace(cfg, episode=replace(cfg.episode, max_cycles=4))
    else:
        speed, seed = (5.0, 4) if case == "merge5-seed4" else (10.0, 1)
        cfg = default_merge_scenario(speed, seed=seed)
    rows = assert_trace_matches_reference(cfg, run_episode(cfg))
    assert len(rows) > 10
    if case == "packed":
        # bumper-to-bumper followers brake as hard as they can: the IDM's
        # b_emergency, saturated to their a_max
        assert rows[0, :, 4].min() == -A_MAX > -IDM.b_emergency


def hand_scenario(ego_x, ego_y, svs):
    """The ego on the merge lane plus surrounding vehicles (id, lane, x, v, mode)."""
    vehicles = [VehicleSpec("ego", role="ego", x=ego_x, y=ego_y, v=5.0, v_des=7.0)]
    vehicles += [VehicleSpec(vid, lane=lane, x=x, v=v, v_des=10.0, mode=mode)
                 for vid, lane, x, v, mode in svs]
    return ScenarioConfig(vehicles=vehicles, seed=0,
                          episode=EpisodeSettings(speed_jitter=0.0, max_cycles=1))


TRUTH_CASES = {
    # no leader, the ego far behind: free road only
    "no-leader": (hand_scenario(-40.0, 0.0, [("a", "target", 0.0, 8.0, "selfish")]),
                  {"a": "plain"}),
    # ego half a lane from the target lane: the polite vehicle reacts, the selfish one not
    "polite-reacts": (hand_scenario(12.0, 1.75, [("a", "target", 0.0, 8.0, "polite"),
                                                ("b", "target", -25.0, 8.0, "selfish")]),
                      {"a": "brakes", "b": "plain"}),
    # ego nearly on the target lane: the selfish vehicle reacts too
    "selfish-reacts": (hand_scenario(12.0, 2.8, [("a", "target", 0.0, 8.0, "selfish"),
                                                ("b", "target", 30.0, 8.0, "polite")]),
                       {"a": "brakes", "b": "plain"}),
    # ego exactly at the selfish reaction range (0.875 m from the lane center): it reacts
    "selfish-boundary": (hand_scenario(12.0, 2.625, [("a", "target", 0.0, 8.0, "selfish")]),
                         {"a": "brakes"}),
    # ego exactly level with a polite vehicle in range: zero gap, emergency braking
    "ego-level": (hand_scenario(0.0, 1.2, [("a", "target", 0.0, 8.0, "polite"),
                                          ("b", "target", -20.0, 8.0, "selfish")]),
                  {"a": "emergency", "b": "plain"}),
}


@pytest.mark.parametrize("case", sorted(TRUTH_CASES))
def test_truth_step_matches_scalar_reference_cases(case):
    cfg, expect = TRUTH_CASES[case]
    rows = assert_trace_matches_reference(cfg, run_episode(cfg))
    assert len(rows) >= 2
    world = cfg.initial_world()
    for vid, kind in expect.items():
        i = world.index_of(vid)
        leader = world.leader_indices(include_ego=False)[i]
        plain = plain_idm(world.states[i], world.states[leader] if leader >= 0 else None)
        a = rows[0, i, 4]
        if kind == "plain":
            assert a == plain
        elif kind == "brakes":
            assert a < plain
        else:
            a_max = world.params[i].a_max
            assert a == -a_max > -IDM.b_emergency
            # the step executed the recorded -a_max: the speed fell by a_max * dt
            assert rows[1, i, 3] == pytest.approx(rows[0, i, 3] - a_max * cfg.sim.dt, abs=1e-12)


# --- episodes ---------------------------------------------------------------------

def test_closed_loop_looks_up_the_patched_names_at_call_time(monkeypatch):
    # the traced benchmark counts and times these by patching closed_loop's
    # globals, so the episode and the Monte Carlo instance must call them there
    calls = dict.fromkeys(["plan_cycle", "truth_sv_accel", "step_bicycle", "update_belief"], 0)
    for name in calls:
        def counting(*args, _name=name, _f=getattr(closed_loop, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(closed_loop, name, counting)
    trace = run_episode(default_merge_scenario(5.0, seed=3))
    run_monte_carlo(default_merge_scenario(5.0), n=2, workers=0)
    substeps = len({(cycle, t) for cycle, t, *_ in trace.steps})
    assert calls["plan_cycle"] == len(trace.cycles) + 2
    assert calls["truth_sv_accel"] == calls["step_bicycle"] == substeps
    assert calls["update_belief"] >= 1


def assert_traces_equal(got, want):
    """Field for field, each cycle's game by its arrays."""
    for field in vars(want):
        if field != "cycles":
            assert getattr(got, field) == getattr(want, field), field
    assert len(got.cycles) == len(want.cycles)
    for rec, ref in zip(got.cycles, want.cycles):
        assert {**vars(rec), "game": None} == {**vars(ref), "game": None}
        assert rec.game.cols == ref.game.cols
        for m in ("sv_weighted", "ev", "sv_raw"):
            assert np.array_equal(getattr(rec.game, m), getattr(ref.game, m)), m


def test_jobs_driven_round_robin_give_what_each_gives_alone():
    # the contract a driver over many jobs rests on: planning one world of
    # each live job per turn, interleaved, changes no job's result
    packed = packed_lane_scenario(seed=0)
    packed = replace(packed, episode=replace(packed.episode, max_cycles=4))
    episodes = [default_merge_scenario(5.0, seed=3), default_merge_scenario(10.0, seed=234448712),
                packed, TRUTH_CASES["polite-reacts"][0]]
    instances = [default_merge_scenario(5.0, seed=11), default_merge_scenario(10.0, seed=12)]
    jobs = ([closed_loop._episode(cfg, True, True) for cfg in episodes]
            + [closed_loop._mc_instance(cfg) for cfg in instances])
    sent, results = [None] * len(jobs), [None] * len(jobs)
    live, turns = list(range(len(jobs))), 0
    while live:
        turns += 1
        for i in list(live):
            try:
                sent[i] = plan_cycle(*jobs[i].send(sent[i]))
            except StopIteration as stop:
                results[i] = stop.value
                live.remove(i)
    assert turns > 4
    for cfg, got in zip(episodes, results):
        assert_traces_equal(got, run_episode(cfg, record_games=True))
    for cfg, got in zip(instances, results[len(episodes):]):
        assert got == closed_loop._drive(closed_loop._mc_instance, cfg)


def unobstructed_change_time(cfg):
    """Kinematic oracle: force a constant lane-change policy and time the settle."""
    world = cfg.initial_world()
    sim = SimConfig(dt=0.2, horizon=12, decision_period=1.0)
    seq = DecisionSequence((EgoDecision(GapChoice.GAP_1, LateralDecision.LEFT_CHANGE),) * 12)
    states = tuple_arrays(simulate_batch(world, [seq], sim, cfg.model))[0][SvAction.ASSERT]
    e = world.ego_index
    ok = (np.abs(states[e, :, 1] - cfg.lanes.target_center) <= cfg.episode.success_lateral_tol) \
        & (np.abs(states[e, :, 2]) <= cfg.episode.success_heading_tol)
    settle = int(np.argmax(ok))
    assert ok[settle]
    return settle * sim.dt


def test_empty_lane_merges_quickly():
    cfg = empty_lane_scenario(speed=8.0)
    cfg = replace(cfg, episode=replace(cfg.episode, speed_jitter=0.0))
    trace = run_episode(cfg)
    assert trace.outcome == Outcome.SUCCESS
    bound = unobstructed_change_time(cfg) + cfg.sim.decision_period
    assert trace.time_to_merge <= bound + 1e-9


def test_packed_selfish_lane_times_out_without_contact():
    cfg = packed_lane_scenario(speed=6.0)
    trace = run_episode(cfg)
    assert trace.outcome == Outcome.TIMEOUT
    assert trace.time_to_merge is None


def test_episode_deterministic(tmp_path):
    cfg = default_merge_scenario(5.0, seed=77)
    t1 = run_episode(cfg)
    t2 = run_episode(cfg)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trace_jsonl(t1, p1)
    write_trace_jsonl(t2, p2)
    assert p1.read_bytes() == p2.read_bytes()


# --- the trace file ---------------------------------------------------------------

def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def exact(value):
    """value with each float as its hex form and each tuple as a list, so that
    == compares floats bit for bit (-0.0 against 0.0 included)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("case", ["merge5-seed3", "packed-seed0"])
def test_trace_file_reads_back_bit_for_bit(case, tmp_path):
    cfg = default_merge_scenario(5.0, seed=3) if case == "merge5-seed3" \
        else packed_lane_scenario(seed=0)
    trace = run_episode(cfg)
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(trace, path)
    records = read_records(path)
    kinds = [r.pop("record") for r in records]
    n_cycles, n_steps = len(trace.cycles), len(trace.steps)
    assert kinds == ["cycle"] * n_cycles + ["step"] * n_steps + ["end"]
    for rec, got in zip(trace.cycles, records):
        want = {k: v for k, v in vars(rec).items() if k != "game"}
        assert exact(got) == exact(want)
    steps = records[n_cycles:-1]
    assert exact([[r[f] for f in STEP_FIELDS] for r in steps]) == exact(trace.steps)
    end = records[-1]
    assert (end["outcome"], end["planner"], end["seed"]) == \
        (trace.outcome.value, trace.planner, trace.seed)
    assert exact(end["time_to_merge"]) == exact(trace.time_to_merge)
    assert exact({vid: list(s.values()) for vid, s in end["states"].items()}) == \
        exact(trace.end_states)
    assert all(list(s) == ["x", "y", "theta", "v"] for s in end["states"].values())


def test_collision_shows_in_the_trace_file_alone(tmp_path):
    # the episode ends in a collision that no step record holds: every step
    # record is the state a substep starts from, and only the end record
    # holds the state that ended the episode
    cfg = default_merge_scenario(10.0, seed=234448712)
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(run_episode(cfg), path)
    records = read_records(path)

    world = cfg.initial_world()   # the footprints
    half = {vid: (world.half_len[i], world.half_wid[i]) for i, vid in enumerate(world.ids)}
    ego = world.ids[world.ego_index]

    def penetrated(poses):
        """The ids of the vehicles the ego penetrates, in poses {id: record}."""
        p = poses[ego]
        return [vid for vid, q in poses.items() if vid != ego and rects_penetrate(
            p["x"], p["y"], p["theta"], *half[ego], q["x"], q["y"], q["theta"], *half[vid])]

    end = records[-1]
    assert end["record"] == "end" and end["outcome"] == "collision"
    by_substep = {}
    for r in records:
        if r["record"] == "step":
            by_substep.setdefault((r["cycle"], r["t"]), {})[r["vehicle_id"]] = r
    assert len(by_substep) == 19
    assert all(penetrated(poses) == [] for poses in by_substep.values())
    states = end["states"]
    assert penetrated(states) == ["sv2"]
    assert (states[ego]["x"], states[ego]["y"]) == pytest.approx((34.62, 1.95), abs=0.005)
    assert (states["sv2"]["x"], states["sv2"]["y"]) == pytest.approx((30.20, 3.5), abs=0.005)


def test_cycles_start_on_whole_decision_periods():
    # time counts substeps: a running sum of dt drifts off the decimal times,
    # here to 1.9999999999999998 for cycle 2 and 3.0000000000000004 for cycle 3
    cfg = default_merge_scenario(10.0, seed=234448712)
    trace = run_episode(cfg)
    assert len(trace.cycles) == 4
    assert [c.t0 for c in trace.cycles] == [c.cycle * cfg.sim.decision_period
                                            for c in trace.cycles]
    # and every substep starts on the float nearest its decimal time
    assert all(t == round(t, 9) for _, t, *_ in trace.steps)


def test_importing_the_closed_loop_loads_neither_json_nor_yaml():
    # the trace writer and the scenario loader import them when called, so
    # that an import, which the benchmark's setup time counts, stays lean
    src = os.path.dirname(os.path.dirname(closed_loop.__file__))
    code = "import sys, mergegame.closed_loop; print(sorted({'json', 'yaml'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_success_trace_has_no_overlap_steps():
    cfg = default_merge_scenario(5.0, seed=3)
    trace = run_episode(cfg)
    assert trace.outcome == Outcome.SUCCESS
    world = cfg.initial_world()
    by_t = {}
    for (cycle, t, vid, x, y, th, v, a, d) in trace.steps:
        by_t.setdefault(t, {})[vid] = (x, y, th)
    e = world.ids[world.ego_index]
    for t, poses in by_t.items():
        ex, ey, eth = poses[e]
        for vid, (x, y, th) in poses.items():
            if vid == e:
                continue
            i, j = world.index_of(e), world.index_of(vid)
            assert not rects_penetrate(ex, ey, eth, world.half_len[i], world.half_wid[i],
                                       x, y, th, world.half_len[j], world.half_wid[j])


@pytest.mark.parametrize("scenario", ["packed", "merge5", "merge10"])
def test_ego_overlap_matches_per_vehicle_loop(scenario):
    cfg = {"packed": lambda: packed_lane_scenario(6.0),
           "merge5": lambda: default_merge_scenario(5.0),
           "merge10": lambda: default_merge_scenario(10.0, seed=234448712)}[scenario]()
    world = cfg.initial_world()
    e, half_len, half_wid = world.ego_index, world.half_len, world.half_wid

    def hits(states):
        got = _ego_hits_anyone(states, e, half_len, half_wid)
        assert got == reference_ego_hits_anyone(states, world)
        return got

    assert not hits(world.states)
    # every truth step of the first cycles
    cfg = replace(cfg, episode=replace(cfg.episode, max_cycles=4))
    trace = run_episode(cfg)
    by_t = {}
    for (cycle, t, vid, x, y, th, v, a, d) in trace.steps:
        by_t.setdefault((cycle, t), {})[vid] = (x, y, th, v)
    for poses in by_t.values():
        hits(np.array([poses[vid] for vid in world.ids]))
    # the ego right beside each other vehicle, on its side away from the other
    # lane: touching sides do not count, an ulp closer does
    for i in range(world.n_vehicles):
        if i == e:
            continue
        y = world.states[i, 1]
        side = 1.0 if y > world.lanes.probe_line else -1.0
        states = world.states.copy()
        states[e] = states[i, 0], y + side * (half_wid[e] + half_wid[i]), 0.0, 0.0
        assert not hits(states)
        states[e, 1] = np.nextafter(states[e, 1], y)
        assert hits(states)


def test_selected_nash_cells_verify_post_hoc():
    cfg = default_merge_scenario(5.0, seed=11)
    trace = run_episode(cfg, record_games=True)
    checked = 0
    for rec in trace.cycles:
        if rec.kind != "nash" or rec.game is None:
            continue
        sv, ev = rec.game.sv_weighted, rec.game.ev
        r, c = rec.row, rec.col
        assert sv[r, c] <= sv[:, c].min() + 1e-12
        assert ev[r, c] <= ev[r, :].min() + 1e-12
        checked += 1
    assert checked > 0


def test_belief_updates_from_observation():
    # the observed partner's belief must move away from the prior while
    # unobserved vehicles keep it (direction depends on what the ego provoked)
    moved = 0
    for seed in (3, 5, 8):
        cfg = default_merge_scenario(5.0, seed=seed)
        trace = run_episode(cfg)
        partners = {rec.partner_id for rec in trace.cycles if rec.partner_id}
        last = trace.cycles[-1].beliefs
        prior = cfg.beliefs.initial_assert
        if any(abs(last[vid][0] - prior) > 0.2 for vid in partners if vid in last):
            moved += 1
        for vid, (pa, _) in last.items():
            if vid not in partners:
                assert pa == pytest.approx(prior)
    assert moved >= 2


def test_belief_update_reads_the_window(monkeypatch):
    # each cycle's belief is the previous cycle's, updated from the partner's
    # commands over the previous window against the two traces its column
    # predicted; every other belief is carried over unchanged
    results = []

    def recording(*args, **kwargs):
        results.append(plan_cycle(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(closed_loop, "plan_cycle", recording)
    cfg = default_merge_scenario(5.0, seed=3)
    trace = run_episode(cfg)
    assert len(results) == len(trace.cycles)
    world, substeps, updated = cfg.initial_world(), cfg.sim.substeps, 0
    for c, (rec, res) in enumerate(zip(trace.cycles[:-1], results)):
        after = dict(rec.beliefs)
        pid = res.partner_id
        if pid is not None:
            p = world.index_of(pid)
            observed = [row[7] for row in trace.steps if row[0] == c and row[2] == pid]
            assert len(observed) == substeps
            rollout, M = res.rollout, len(res.rollout.cols)
            pred_assert, pred_yield = (
                rollout.traj_inputs[rollout.rows[r * M + res.col, p], :substeps, 0]
                for r in SvAction)
            pa, py = update_belief(*rec.beliefs[pid], np.array(observed), pred_assert,
                                   pred_yield, cfg.beliefs.sigma_accel)
            after[pid] = (float(pa), float(py))
            updated += 1
        assert trace.cycles[c + 1].beliefs == after
    assert updated >= 3


@pytest.mark.parametrize("case", ["merge5-seed3", "packed-seed5"])
def test_belief_observes_the_executed_and_recorded_command(case, monkeypatch):
    # the partner's accelerations that update_belief observes are, bit for
    # bit, those step_bicycle executed and those its step rows record; both
    # cases have a partner that brakes at its a_max (merge in cycle 3,
    # packed in cycle 0)
    executed, observed = [], []

    def stepping(*args):
        executed.append(np.array(args[4]))
        return step_bicycle(*args)

    def updating(p_assert, p_yield, obs, *rest):
        observed.append((len(executed), np.array(obs)))
        return update_belief(p_assert, p_yield, obs, *rest)

    monkeypatch.setattr(closed_loop, "step_bicycle", stepping)
    monkeypatch.setattr(closed_loop, "update_belief", updating)
    if case == "packed-seed5":
        cfg = packed_lane_scenario(seed=5)
    else:
        cfg = default_merge_scenario(5.0, seed=3)
    trace = run_episode(cfg)
    world, substeps = cfg.initial_world(), cfg.sim.substeps
    assert len(observed) >= 3
    for n, obs in observed:
        c = n // substeps - 1   # the cycle whose window was just executed
        pid = trace.cycles[c].partner_id
        recorded = [row[7] for row in trace.steps if row[0] == c and row[2] == pid]
        p = world.index_of(pid)
        assert np.array_equal(bits(obs), bits(recorded)), c
        assert np.array_equal(bits(obs), bits([a[p] for a in executed[n - substeps:n]])), c


@pytest.mark.parametrize("case", ["merge10-seeds1-10", "packed-seed0"])
def test_recorded_commands_lie_within_each_vehicles_limits(case):
    # every law saturates its command in control.py and nothing downstream
    # clips, so each step row records a command its vehicle can execute
    if case == "packed-seed0":
        cfgs = [packed_lane_scenario(seed=0)]
    else:
        cfgs = [default_merge_scenario(10.0, seed=seed) for seed in range(1, 11)]
    for cfg in cfgs:
        world = cfg.initial_world()
        cmd = np.array([row[7:] for row in run_episode(cfg).steps])
        cmd = cmd.reshape(-1, world.n_vehicles, 2)
        assert np.all(np.abs(cmd[:, :, 0]) <= world.a_max), cfg.seed
        assert np.all(np.abs(cmd[:, :, 1]) <= world.delta_max), cfg.seed


def test_politeness_monotonicity():
    polite = default_merge_scenario(6.0, seed=60, truth_modes="polite")
    selfish = default_merge_scenario(6.0, seed=60, truth_modes="selfish")
    agg_p = aggregate_episodes(run_episode_batch(polite, n=200, workers=2))
    agg_s = aggregate_episodes(run_episode_batch(selfish, n=200, workers=2))
    assert agg_p["success_rate"] >= agg_s["success_rate"]


def test_batch_statistics_reproducible():
    cfg = default_merge_scenario(5.0, seed=4)
    a = run_episode_batch(cfg, n=8)
    b = run_episode_batch(cfg, n=8)
    assert a == b


def test_monte_carlo_degenerate_perturbation():
    cfg = replace(default_merge_scenario(5.0),
                  montecarlo=MonteCarloSettings(position_jitter=0.0, speed_jitter=0.0))
    stats = run_monte_carlo(cfg, n=6, seed=1)
    for value in (stats.nash_fraction, stats.selected_matches_se_ev,
                  stats.selected_matches_se_sv, stats.yield_fraction_ne,
                  stats.yield_fraction_se_ev, stats.yield_fraction_se_sv):
        assert value in (0.0, 1.0)
    assert stats.resampled == 0


def test_monte_carlo_reproducible():
    cfg = default_merge_scenario(5.0)
    s1 = run_monte_carlo(cfg, n=20, seed=9)
    s2 = run_monte_carlo(cfg, n=20, seed=9)
    assert s1 == s2


@pytest.mark.parametrize("run", [
    lambda cfg, n, workers: run_episode_batch(cfg, n=n, workers=workers),
    lambda cfg, n, workers: run_monte_carlo(cfg, n=n, workers=workers),
], ids=["episodes", "montecarlo"])
def test_batches_reject_bad_sizes(run):
    # n = 0 used to end in a ZeroDivisionError, and workers = -1 ran serially;
    # n = True ran one instance, and a float n or workers ended in a bare TypeError
    cfg = default_merge_scenario(5.0)
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"n = {n}"):
            run(cfg, n, 0)
    with pytest.raises(ValueError, match="workers must be >= 0"):
        run(cfg, 1, -1)
    for n, workers, name in [(True, 0, "n"), (2.5, 0, "n"), (1, True, "workers"),
                             (1, 1.5, "workers")]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            run(cfg, n, workers)


def test_aggregate_rejects_no_episodes():
    with pytest.raises(ValueError, match="at least one episode"):
        aggregate_episodes([])


def test_monte_carlo_settings_reject_no_instances():
    with pytest.raises(ValueError, match="montecarlo n must be >= 1"):
        MonteCarloSettings(n=0)


def test_monte_carlo_gives_up_when_every_draw_overlaps():
    # the ego's jitter box lies inside sv0, so no draw can clear it
    cfg = default_merge_scenario(5.0)
    vehicles = [replace(v, x=2.0) if v.vehicle_id == "sv0" else v for v in cfg.vehicles]
    cfg = replace(cfg, vehicles=vehicles, montecarlo=MonteCarloSettings(position_jitter=1.0))

    def too_slow(signum, frame):
        raise TimeoutError("resampling did not stop")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        with pytest.raises(ValueError, match=r"seed \d+.* 1000 draws"):
            run_monte_carlo(cfg, n=1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
