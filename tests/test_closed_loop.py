import numpy as np
import pytest

import signal
from dataclasses import replace

from mergegame.actions import DecisionSequence, EgoDecision, GapChoice, LateralDecision, SvAction
from mergegame.closed_loop import (
    BehaviorMode,
    Outcome,
    aggregate_episodes,
    run_episode,
    run_episode_batch,
    run_monte_carlo,
    truth_sv_accel,
    write_trace_csv,
)
from mergegame.control import IdmParams, idm_accel
from mergegame.dynamics import VehicleState
from mergegame.forward_sim import SimConfig, simulate_tuple
from mergegame.scenario import (
    MonteCarloSettings,
    default_merge_scenario,
    empty_lane_scenario,
    packed_lane_scenario,
)

PARAMS = IdmParams(v0=10.0, w_lane=3.5)


def test_truth_sv_ignores_distant_ego():
    sv = VehicleState(0, 3.5, 0, 8)
    leader = VehicleState(30, 3.5, 0, 8)
    far_ego = VehicleState(10, -3.5, 0, 8)  # two lanes away
    a = truth_sv_accel(sv, far_ego, BehaviorMode.SELFISH, PARAMS, 3.5, leader)
    assert a == idm_accel(sv, leader, PARAMS)
    a2 = truth_sv_accel(sv, far_ego, BehaviorMode.POLITE, PARAMS, 3.5, leader)
    assert a2 == idm_accel(sv, leader, PARAMS)


def test_truth_mode_thresholds_at_boundary():
    sv = VehicleState(0, 3.5, 0, 8)
    ego = VehicleState(12, 1.75, 0, 5)  # straddling: half a lane from the sv lane center
    polite = truth_sv_accel(sv, ego, BehaviorMode.POLITE, PARAMS, 3.5)
    selfish = truth_sv_accel(sv, ego, BehaviorMode.SELFISH, PARAMS, 3.5)
    assert polite < 0.0
    assert selfish == idm_accel(sv, None, PARAMS)


def test_truth_modes_identical_for_on_lane_ego():
    sv = VehicleState(0, 3.5, 0, 8)
    ego = VehicleState(12, 3.5, 0, 5)
    polite = truth_sv_accel(sv, ego, BehaviorMode.POLITE, PARAMS, 3.5)
    selfish = truth_sv_accel(sv, ego, BehaviorMode.SELFISH, PARAMS, 3.5)
    assert polite == selfish
    projected = VehicleState(12, 3.5, 0, 5)
    assert polite == min(idm_accel(sv, None, PARAMS), idm_accel(sv, projected, PARAMS))


def test_truth_sv_never_rams_its_leader():
    sv = VehicleState(0, 3.5, 0, 10)
    leader = VehicleState(8, 3.5, 0, 2)
    ego = VehicleState(40, 3.5, 0, 12)  # ahead but irrelevant
    a = truth_sv_accel(sv, ego, BehaviorMode.SELFISH, PARAMS, 3.5, leader)
    assert a <= idm_accel(sv, leader, PARAMS)


# --- episodes ---------------------------------------------------------------------

def unobstructed_change_time(cfg):
    """Kinematic oracle: force a constant lane-change policy and time the settle."""
    world = cfg.initial_world()
    sim = SimConfig(steps=60, dt=0.2, horizon=12, decision_period=1.0)
    seq = DecisionSequence((EgoDecision(GapChoice.GAP_1, LateralDecision.LEFT_CHANGE),) * 12)
    ts = simulate_tuple(world, (SvAction.ASSERT, seq), sim, cfg.planner_model())
    e = world.ego_index
    ok = (np.abs(ts.states[e, :, 1] - cfg.lanes.target_center) <= cfg.episode.success_lateral_tol) \
        & (np.abs(ts.states[e, :, 2]) <= cfg.episode.success_heading_tol)
    settle = int(np.argmax(ok))
    assert ok[settle]
    return settle * sim.dt


def test_empty_lane_merges_quickly():
    cfg = empty_lane_scenario(speed=8.0)
    cfg.episode.speed_jitter = 0.0
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
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(t1, p1)
    write_trace_csv(t2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_success_trace_has_no_overlap_steps():
    cfg = default_merge_scenario(5.0, seed=3)
    trace = run_episode(cfg)
    assert trace.outcome == Outcome.SUCCESS
    world = cfg.initial_world()
    from mergegame.dynamics import rect_overlap_arrays
    _, lengths, widths, _, _ = world.params_arrays()
    by_t = {}
    for (cycle, t, vid, x, y, th, v, a, d) in trace.steps:
        by_t.setdefault(t, {})[vid] = (x, y, th)
    e = world.ego_id
    for t, poses in by_t.items():
        ex, ey, eth = poses[e]
        for vid, (x, y, th) in poses.items():
            if vid == e:
                continue
            i, j = world.index_of(e), world.index_of(vid)
            assert not rect_overlap_arrays(ex, ey, eth, lengths[i] / 2, widths[i] / 2,
                                           x, y, th, lengths[j] / 2, widths[j] / 2,
                                           strict=True)


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


def test_politeness_monotonicity():
    polite = default_merge_scenario(6.0, truth_modes="polite")
    selfish = default_merge_scenario(6.0, truth_modes="selfish")
    agg_p = aggregate_episodes(run_episode_batch(polite, n=200, planner="nash",
                                                 base_seed=60, workers=2))
    agg_s = aggregate_episodes(run_episode_batch(selfish, n=200, planner="nash",
                                                 base_seed=60, workers=2))
    assert agg_p["success_rate"] >= agg_s["success_rate"]


def test_batch_statistics_reproducible():
    cfg = default_merge_scenario(5.0)
    a = run_episode_batch(cfg, n=8, base_seed=4)
    b = run_episode_batch(cfg, n=8, base_seed=4)
    assert a == b


def test_monte_carlo_degenerate_perturbation():
    cfg = default_merge_scenario(5.0)
    cfg.montecarlo = MonteCarloSettings(position_jitter=0.0, speed_jitter=0.0)
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


def test_monte_carlo_gives_up_when_every_draw_overlaps():
    # the ego's jitter box lies inside sv0, so no draw can clear it
    cfg = default_merge_scenario(5.0)
    cfg.vehicles[1].x = 2.0
    cfg.montecarlo = MonteCarloSettings(position_jitter=1.0)

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
