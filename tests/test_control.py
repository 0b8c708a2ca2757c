import math

import numpy as np
import pytest

from mergegame.control import (
    IdmSettings,
    PdGains,
    PurePursuitParams,
    gap_reference,
    idm_accel,
    lateral_discount,
    pd_longitudinal,
    pure_pursuit,
    virtual_gap_distance,
)

from helpers import bits

IDM = IdmSettings()
HALF_PI = 0.5 * math.pi


# --- gap reference ------------------------------------------------------------

def ref(x_front=0.0, v_front=0.0, has_front=True, x_rear=0.0, has_rear=True,
        v_des=10.0, follow_distance=12.0):
    return gap_reference(x_front, v_front, has_front, x_rear, has_rear, v_des, follow_distance)


def test_midpoint_rule():
    x_target, v_target = ref(x_front=30, v_front=8, x_rear=0)
    assert x_target == pytest.approx(15.0)
    assert v_target == pytest.approx(8.0)


def test_leading_gap_tracks_lane_speed():
    _, v_target = ref(has_front=False, x_rear=-10, v_des=10.0)
    assert v_target == 10.0


def test_front_only_follow_point():
    x_target, v_target = ref(x_front=40, v_front=6, has_rear=False, follow_distance=12.0)
    assert x_target == pytest.approx(28.0)
    assert v_target == pytest.approx(6.0)
    # the follow point moves with the follow distance alone
    x_target, _ = ref(x_front=40, v_front=6, has_rear=False, follow_distance=9.0)
    assert x_target == pytest.approx(31.0)


# --- PD longitudinal ----------------------------------------------------------

def test_pd_zero_error_zero_command():
    assert pd_longitudinal(50.0, 8.0, 50.0, 8.0, True, PdGains(), np.inf) == 0.0


def test_pd_linear_law():
    gains = PdGains(kp_pos=0.5, kd_pos=1.0)
    a = pd_longitudinal(0.0, 10.0, 10.0, 8.0, True, gains, np.inf)
    assert a == pytest.approx(0.5 * 10 + 1.0 * (-2.0))


def test_pd_saturation():
    gains = PdGains(kp_pos=0.5, kd_pos=1.0)
    # raw command 12
    assert pd_longitudinal(0.0, 8.0, 24.0, 8.0, True, gains, 4.0) == 4.0
    assert pd_longitudinal(24.0, 8.0, 0.0, 8.0, True, gains, 4.0) == -4.0


def test_pd_speed_only_mode():
    gains = PdGains(kp_vel=1.0)
    # the position target is ignored without a front vehicle
    assert pd_longitudinal(0.0, 7.0, 1e6, 10.0, False, gains, np.inf) == pytest.approx(3.0)


# --- pure pursuit ---------------------------------------------------------------

def steer(y=0.0, theta=0.0, v=0.0, line_y=0.0, wheelbase=2.7, params=PurePursuitParams(),
          delta_max=HALF_PI):
    return pure_pursuit(y, theta, v, line_y, wheelbase, params, delta_max)


def test_pursuit_on_line_gives_zero():
    assert steer(y=2.0, v=5, line_y=2.0) == 0.0


def test_pursuit_antisymmetric_in_offset():
    d1 = steer(y=-1.2, v=6)
    d2 = steer(y=1.2, v=6)
    assert d1 == -d2 and d1 > 0.0


def test_pursuit_formula_value():
    p = PurePursuitParams(kpp=1.0, min_lookahead=3.0)
    # offset 1.75 m at 5 m/s: lookahead 5, sin(gamma) = 0.35
    delta = steer(y=0.0, v=5.0, line_y=1.75, wheelbase=2.7, params=p)
    assert delta == pytest.approx(0.36139820965838354, abs=1e-12)
    # the command scales with the vehicle's own wheelbase
    short = steer(y=0.0, v=5.0, line_y=1.75, wheelbase=1.0, params=p)
    assert short == pytest.approx(math.atan(2 * 1.0 * 0.35 / 5.0), abs=1e-12)


def test_pursuit_bounded_by_delta_max():
    rng = np.random.default_rng(3)
    n = 200
    d = steer(y=rng.uniform(-8, 8, n), theta=rng.uniform(-1, 1, n), v=rng.uniform(0, 20, n),
              line_y=rng.uniform(-4, 4, n), delta_max=0.6)
    assert d.shape == (n,)
    assert np.all(np.abs(d) <= 0.6)


def test_pursuit_low_speed_uses_lookahead_floor():
    p = PurePursuitParams(kpp=1.0, min_lookahead=3.0)
    # at standstill the lookahead must not vanish
    d = steer(y=0.0, v=0.0, line_y=1.0, params=p)
    expected = math.atan(2 * 2.7 * (1.0 / 3.0) / 3.0)
    assert d == pytest.approx(expected)


# --- modified IDM ----------------------------------------------------------------

def test_virtual_distance_reduces_to_true_distance():
    d = virtual_gap_distance(12.0, 1.0, 0.0, 1.0, lateral_discount(4.0, 3.5))
    assert d == pytest.approx(12.0)


def test_virtual_distance_beta_one_ignores_offset():
    kappa = lateral_discount(1.0, 3.5)
    assert kappa == 0.0
    assert virtual_gap_distance(12.0, 3.0, 0.0, 0.0, kappa) == 12.0


def test_virtual_distance_full_lane_offset():
    d = virtual_gap_distance(10.0, 3.5, 0.0, 0.0, lateral_discount(2.0, 3.5))
    assert d == pytest.approx(40.0, abs=1e-9)


def test_virtual_distance_monotone_in_offset():
    dy = np.linspace(0.0, 5.0, 40)
    grown = virtual_gap_distance(10.0, dy, 0.0, 0.0, lateral_discount(3.0, 3.5))
    assert np.all(np.diff(grown) >= 0.0) and grown[0] == 10.0
    flat = virtual_gap_distance(10.0, dy, 0.0, 0.0, lateral_discount(1.0, 3.5))
    assert np.all(flat == 10.0)


def test_assert_sees_merger_farther_than_yield():
    asserting = lateral_discount(IDM.beta_assert, 3.5)
    yielding = lateral_discount(IDM.beta_yield, 3.5)
    assert virtual_gap_distance(15.0, 1.75, 0.0, 0.0, asserting) >= \
        virtual_gap_distance(15.0, 1.75, 0.0, 0.0, yielding)


def test_idm_free_flow_equilibrium():
    assert idm_accel(10.0, 0.0, np.inf, False, 10.0, IDM, a_max=np.inf) == 0.0
    assert idm_accel(0.0, 0.0, np.inf, False, 10.0, IDM, a_max=np.inf) == IDM.a_acc


def test_idm_formula_value():
    idm = IdmSettings(time_headway=1.5, s0=2.0, a_acc=1.5, b_dec=2.0)
    # a_acc * (1 - 1 - (17/20)^2) = -1.08375
    a = idm_accel(10.0, 10.0, 20.0, True, 10.0, idm, a_max=np.inf)
    assert a == pytest.approx(-1.08375, abs=1e-9)


def test_idm_zero_distance_emergency_brakes():
    assert idm_accel(5.0, 5.0, 0.0, True, 10.0, IDM, a_max=np.inf) == -IDM.b_emergency
    # within the follower's actuation limit when that is the tighter bound
    assert idm_accel(5.0, 5.0, 0.0, True, 10.0, IDM, a_max=4.0) == -4.0
    assert idm_accel(0.0, 0.0, np.inf, False, 10.0, IDM, a_max=1.0) == 1.0


def test_idm_monotone_in_speed_and_distance():
    # closing-speed regime (follower at least as fast as the leader)
    accels = idm_accel(np.linspace(8, 16, 30), 8.0, 30.0, True, 12.0, IDM, a_max=np.inf)
    assert np.all(np.diff(accels) <= 0.0)
    gaps = idm_accel(8.0, 8.0, np.linspace(2, 40, 30), True, 12.0, IDM, a_max=np.inf)
    assert np.all(np.diff(gaps) >= 0.0)


def test_idm_saturation_bounds():
    rng = np.random.default_rng(5)
    n = 200
    d = virtual_gap_distance(rng.uniform(0.1, 60, n), rng.uniform(-4, 4, n), 0.0, 0.0,
                             lateral_discount(IDM.beta_yield, 3.5))
    a = idm_accel(rng.uniform(0, 20, n), rng.uniform(0, 20, n), d, True, 10.0, IDM,
                  a_max=np.inf)
    assert np.all((-IDM.b_emergency <= a) & (a <= IDM.a_acc))


def test_idm_settings_reject_nonpositive_fields():
    with pytest.raises(ValueError):
        IdmSettings(s0=0.0)
    with pytest.raises(ValueError):
        IdmSettings(beta_assert=2.0, beta_yield=2.0)


# --- array calls are element-wise scalar calls --------------------------------------

def test_row_vector_call_matches_scalar_calls():
    rng = np.random.default_rng(21)
    n = 64
    x, y = rng.uniform(-20, 20, n), rng.uniform(-4, 4, n)
    theta, v = rng.uniform(-0.5, 0.5, n), rng.uniform(0, 15, n)
    xl, yl, vl = x + rng.uniform(-2, 30, n), rng.uniform(-4, 4, n), rng.uniform(0, 15, n)
    has_f, has_r = rng.uniform(size=n) < 0.7, rng.uniform(size=n) < 0.7
    kappa = lateral_discount(rng.uniform(1.0, 8.0, n), 3.5)
    v0, line_y = rng.uniform(5, 15, n), rng.uniform(-4, 4, n)
    wheelbase, a_max = rng.uniform(2, 4, n), rng.uniform(2, 5, n)
    delta_max = rng.uniform(0.3, 0.7, n)
    gains, pursuit = PdGains(), PurePursuitParams()

    x_tgt, v_tgt = gap_reference(xl, vl, has_f, x - 8.0, has_r, v0, 12.0)
    d = virtual_gap_distance(xl, yl, x, y, kappa)
    laws = {
        "x_target": (x_tgt, lambda k: gap_reference(xl[k], vl[k], has_f[k], x[k] - 8.0, has_r[k],
                                                    v0[k], 12.0)[0]),
        "v_target": (v_tgt, lambda k: gap_reference(xl[k], vl[k], has_f[k], x[k] - 8.0, has_r[k],
                                                    v0[k], 12.0)[1]),
        "pd": (pd_longitudinal(x, v, x_tgt, v_tgt, has_f, gains, a_max),
               lambda k: pd_longitudinal(x[k], v[k], x_tgt[k], v_tgt[k], has_f[k], gains,
                                         a_max[k])),
        "pursuit": (pure_pursuit(y, theta, v, line_y, wheelbase, pursuit, delta_max),
                    lambda k: pure_pursuit(y[k], theta[k], v[k], line_y[k], wheelbase[k],
                                           pursuit, delta_max[k])),
        "virtual_gap": (d, lambda k: virtual_gap_distance(xl[k], yl[k], x[k], y[k], kappa[k])),
        "idm": (idm_accel(v, vl, d, has_f, v0, IDM, a_max),
                lambda k: idm_accel(v[k], vl[k], d[k], has_f[k], v0[k], IDM, a_max[k])),
    }
    for name, (row, scalar) in laws.items():
        assert row.shape == (n,), name
        each = np.array([float(scalar(k)) for k in range(n)])
        # numpy's vector loop for ** rounds differently from its scalar path in
        # the last bit for some inputs (the IDM's (v / v0) ** 4)
        np.testing.assert_allclose(row, each, rtol=1e-15, atol=0.0, err_msg=name)


# --- saturation keeps np.clip's bits ----------------------------------------------
# The laws saturate with np.minimum / np.maximum; these are their np.clip forms.

def clip_pd(x, v, x_target, v_target, has_target, gains, a_max):
    a_pd = gains.kp_pos * (x_target - x) + gains.kd_pos * (v_target - v)
    a_free = gains.kp_vel * (v_target - v)
    return np.clip(np.where(has_target, a_pd, a_free), -a_max, a_max)


def clip_pursuit(y, theta, v, line_y, wheelbase, params, delta_max):
    lookahead = np.maximum(params.kpp * v, params.min_lookahead)
    sin_los = np.clip((line_y - y) / lookahead, -1.0, 1.0)
    gamma = np.arcsin(sin_los) - theta
    return np.clip(np.arctan(2.0 * wheelbase * np.sin(gamma) / lookahead),
                   -delta_max, delta_max)


def clip_idm(v, v_lead, d, has_lead, v0, idm, a_max):
    free = 1.0 - (v / v0) ** 4
    safe_d = np.where(d > 0.0, d, 1.0)
    sqrt_ab = 2.0 * np.sqrt(idm.a_acc * idm.b_dec)
    s_star = idm.s0 + v * idm.time_headway + v * (v - v_lead) / sqrt_ab
    a_follow = idm.a_acc * (free - (s_star / safe_d) ** 2)
    a = np.where(has_lead, a_follow, idm.a_acc * free)
    a = np.where(has_lead & (d <= 0.0), -idm.b_emergency, a)
    return np.clip(np.clip(a, -idm.b_emergency, idm.a_acc), -a_max, a_max)


def special_values(rng, n, bounds):
    """n floats: +-inf, NaNs with two payloads, +-0.0, each bound exactly, and
    ordinary values."""
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000123], dtype=np.uint64).view(float)
    pool = np.concatenate(([np.inf, -np.inf, 0.0, -0.0], nans, bounds, -np.asarray(bounds)))
    out = rng.uniform(-30.0, 30.0, n)
    pick = rng.uniform(size=n) < 0.6
    out[pick] = rng.choice(pool, int(pick.sum()))
    return out


@pytest.mark.parametrize("n", [1, 7, 64, 2000])
def test_saturation_matches_clip_bit_for_bit(n):
    rng = np.random.default_rng(n)
    gains, pursuit = PdGains(kp_vel=1.0), PurePursuitParams()
    a_max = 4.0
    with np.errstate(all="ignore"):
        # kp_vel = 1 and v = 0 put v_target itself, specials included, into the
        # pd saturation wherever has_target is false
        has_t = rng.uniform(size=n) < 0.3
        pd_args = (special_values(rng, n, []), np.where(has_t, special_values(rng, n, []), 0.0),
                   special_values(rng, n, []), special_values(rng, n, [a_max]), has_t, gains,
                   a_max)
        # v = 0 gives lookahead 4, so line_y / 4 is the sine saturation's input;
        # a delta_max taken from the unsaturated command is hit exactly
        theta, line_y = special_values(rng, n, [0.5]), 4.0 * special_values(rng, n, [1.0])
        v = np.where(rng.uniform(size=n) < 0.5, 0.0, special_values(rng, n, []))
        raw = np.abs(clip_pursuit(0.0, theta, v, line_y, 2.7, pursuit, np.inf))
        delta_max = np.where((rng.uniform(size=n) < 0.3) & np.isfinite(raw) & (raw > 0.0),
                             raw, 0.6)
        pursuit_args = (0.0, theta, v, line_y, 2.7, pursuit, delta_max)
        # v = 0 on a free road gives a_acc, a spacing <= 0 gives -b_emergency;
        # the follower's a_max cuts the first (1), the second (4) or neither
        idm_args = (np.where(rng.uniform(size=n) < 0.3, 0.0, special_values(rng, n, [])),
                    special_values(rng, n, []), special_values(rng, n, [0.0]),
                    rng.uniform(size=n) < 0.6, np.where(rng.uniform(size=n) < 0.5, 10.0, 7.5),
                    IDM, rng.choice([1.0, a_max, np.inf], n))
        cases = {"pd": (pd_longitudinal, clip_pd, pd_args),
                 "pursuit": (pure_pursuit, clip_pursuit, pursuit_args),
                 "idm": (idm_accel, clip_idm, idm_args)}
        reached = []
        for name, (law, clip_form, args) in cases.items():
            want = clip_form(*args)
            assert np.array_equal(bits(law(*args)), bits(want)), name
            reached.append(want)
            for k in range(min(n, 20)):   # scalar calls
                one = [u[k] if isinstance(u, np.ndarray) else u for u in args]
                assert bits(law(*one)) == bits(clip_form(*one)), (name, k)
    # the draws put every kind of special value into the saturation
    if n >= 64:
        reached = np.concatenate(reached)
        for value in (a_max, -a_max, 0.6, -0.6, IDM.a_acc, -IDM.b_emergency, 1.0, -1.0):
            assert np.any(reached == value), value
        assert np.isnan(reached).any() and np.any((reached == 0.0) & np.signbit(reached))

