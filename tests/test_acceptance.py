"""Acceptance suite: every criterion at its stated tolerance, one line per result."""

import time
from dataclasses import replace

import numpy as np
import pytest

from game_oracles import (
    brute_nash,
    brute_stackelberg,
    check_prop1_assumptions,
    monotone_instance,
    rk4_reference,
    weighted,
)
from mergegame.cli import main
from mergegame.closed_loop import aggregate_episodes, run_episode_batch, run_monte_carlo
from mergegame.control import lateral_discount, virtual_gap_distance
from mergegame.costs import Belief, GameMatrix
from mergegame.dynamics import VehicleParams, step_bicycle
from mergegame.game import Player, find_pure_nash, stackelberg
from mergegame.scenario import BeliefSettings, default_merge_scenario, save_scenario

PARAMS = VehicleParams()


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# --- 1. equilibrium solvers agree with brute-force enumeration ---------------------

def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        cols = int(rng.integers(1, 51))
        sv = rng.uniform(0, 100, (2, cols))
        ev = rng.uniform(0, 100, (2, cols))
        g = GameMatrix.from_arrays(sv, ev)
        if [e.cell() for e in find_pure_nash(g)] != brute_nash(sv, ev):
            mismatches += 1
    for _ in range(1000):
        cols = int(rng.integers(1, 51))
        sv = rng.uniform(0, 100, (2, cols))
        ev = rng.uniform(0, 100, (2, cols))
        g = GameMatrix.from_arrays(sv, ev)
        if stackelberg(g, Player.EV).cell() != brute_stackelberg(sv, ev, "ev"):
            mismatches += 1
        if stackelberg(g, Player.SV).cell() != brute_stackelberg(sv, ev, "sv"):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(1, "equilibrium oracle equivalence",
           mismatches == 0 and elapsed < 5.0,
           f"(mismatches={mismatches}, {elapsed:.2f}s)")


# --- 2./3. proposition suites -------------------------------------------------------

def test_criterion_2_assert_equilibrium_guarantee():
    rng = np.random.default_rng(202)
    violations = 0
    for _ in range(10_000):
        sv_raw, ev, belief = monotone_instance(rng, belief_low=0.5)
        assert check_prop1_assumptions(sv_raw, ev, belief)
        eqs = find_pure_nash(GameMatrix.from_arrays(weighted(sv_raw, belief), ev))
        if not any(e.row == 0 for e in eqs):
            violations += 1
    report(2, "assert-row equilibrium guarantee (10,000 instances)",
           violations == 0, f"(violations={violations})")


def test_criterion_3_yield_nash_is_ev_leader_stackelberg():
    rng = np.random.default_rng(303)
    checked = violations = 0
    while checked < 10_000:
        sv_raw, ev, _ = monotone_instance(rng, belief_low=0.0)
        b = float(rng.uniform(0.0, 1.0))
        g = GameMatrix.from_arrays(weighted(sv_raw, Belief(b, 1.0 - b)), ev)
        yield_nash = [e for e in find_pure_nash(g) if e.row == 1]
        if not yield_nash:
            continue
        checked += 1
        se = stackelberg(g, Player.EV)
        for eq in yield_nash:
            if g.ev[se.row, se.col] != g.ev[eq.row, eq.col]:
                violations += 1
    report(3, "yield-row Nash is an ego-leader Stackelberg (10,000 instances)",
           violations == 0, f"(violations={violations})")


# --- 4./5. open-loop Monte Carlo ---------------------------------------------------

BELIEF_SETTINGS = (0.5, 0.6, 0.7)


@pytest.fixture(scope="module")
def monte_carlo_batches():
    out = {}
    for b in BELIEF_SETTINGS:
        cfg = replace(default_merge_scenario(traffic_speed=5.0),
                      beliefs=BeliefSettings(initial_assert=b))
        out[b] = run_monte_carlo(cfg, n=500, seed=42, workers=2)
    return out


def test_criterion_4_nash_exists_and_coincides(monte_carlo_batches):
    ok = True
    details = []
    for b, st in monte_carlo_batches.items():
        ok &= st.nash_fraction == 1.0 and st.selected_matches_any_se == 1.0
        details.append(f"b={b}: nash={st.nash_fraction:.3f} "
                       f"split(se_ev={st.selected_matches_se_ev:.2f}/"
                       f"se_sv={st.selected_matches_se_sv:.2f})")
    report(4, "Monte Carlo equilibrium existence and coincidence", ok, "; ".join(details))


def test_criterion_5_yield_fraction_ordering(monte_carlo_batches):
    ok = True
    details = []
    for b, st in monte_carlo_batches.items():
        ok &= st.yield_fraction_se_ev >= st.yield_fraction_ne >= st.yield_fraction_se_sv
        details.append(f"b={b}: {st.yield_fraction_se_ev:.3f} >= "
                       f"{st.yield_fraction_ne:.3f} >= {st.yield_fraction_se_sv:.3f}")
    report(5, "yield-fraction ordering SE_EV >= NE >= SE_SV", ok, "; ".join(details))


# --- 6. closed-loop planner comparison ---------------------------------------------

def test_criterion_6_closed_loop_comparison():
    t0 = time.perf_counter()
    rates = {}
    for speed in (5.0, 10.0):
        for planner in ("nash", "stackelberg-ev", "lowest-cost"):
            cfg = default_merge_scenario(traffic_speed=speed, planner=planner, seed=2024)
            agg = aggregate_episodes(run_episode_batch(cfg, n=200, workers=2))
            rates[(speed, planner)] = agg["success_rate"]
    elapsed = time.perf_counter() - t0

    low_ok = all(rates[(5.0, p)] >= 0.90 for p in ("nash", "stackelberg-ev", "lowest-cost"))
    high_gap = rates[(10.0, "nash")] - rates[(10.0, "lowest-cost")]
    high_ok = high_gap >= 0.05 and rates[(10.0, "nash")] >= rates[(10.0, "stackelberg-ev")]
    detail = (f"low={[round(rates[(5.0, p)], 3) for p in ('nash', 'stackelberg-ev', 'lowest-cost')]} "
              f"high={[round(rates[(10.0, p)], 3) for p in ('nash', 'stackelberg-ev', 'lowest-cost')]} "
              f"gap={high_gap:+.3f} runtime={elapsed:.0f}s")
    report(6, "closed-loop planner comparison (200 episodes/condition)",
           low_ok and high_ok and elapsed < 600.0, detail)


# --- 7. integrator convergence order ------------------------------------------------

def test_criterion_7_integrator_order():
    ref = rk4_reference((0.0, 0.0, 0.0, 5.0), 0.4, 0.08, 4.0, 2 ** 16, PARAMS.wheelbase)
    errs = []
    dts = [0.2, 0.1, 0.05, 0.025]
    for dt in dts:
        s = (0.0, 0.0, 0.0, 5.0)
        for _ in range(int(round(4.0 / dt))):
            s = step_bicycle(*s, 0.4, 0.08, dt, PARAMS.wheelbase)
        errs.append(np.linalg.norm(np.array(s) - ref))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    report(7, "integrator convergence order", 2.7 <= slope <= 3.3, f"(slope={slope:.3f})")


# --- 8. modified-IDM closed form -----------------------------------------------------

def test_criterion_8_virtual_gap_closed_form():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(1000):
        dx = float(rng.uniform(0.0, 100.0))
        dy = float(rng.uniform(0.0, 7.0))
        beta = float(rng.uniform(1.0, 8.0))
        w = float(rng.uniform(3.0, 4.0))
        got = virtual_gap_distance(dx, dy, 0.0, 0.0, lateral_discount(beta, w))
        want = dx * beta ** (2.0 * dy / w)
        worst = max(worst, abs(got - want))
    report(8, "virtual gap distance closed form", worst <= 1e-9, f"(worst={worst:.2e})")


# --- 9. bitwise determinism of the CLI ----------------------------------------------

def test_criterion_9_cli_determinism(tmp_path):
    cfg_path = tmp_path / "scenario.yaml"
    save_scenario(default_merge_scenario(traffic_speed=5.0, seed=31), cfg_path)
    ok = True
    for command, extra in (("plan", []), ("simulate", []), ("montecarlo", ["--n", "40"])):
        outs = []
        for run in range(2):
            out = tmp_path / f"{command}_{run}.out"
            main([command, "--config", str(cfg_path), "--out", str(out), *extra])
            outs.append(out.read_bytes())
        ok &= outs[0] == outs[1]
    report(9, "bitwise-deterministic plan/simulate/montecarlo", ok, "")
