import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from game_oracles import rk4_reference
from helpers import bits
from mergegame.dynamics import VehicleParams, rect_distance_arrays, rects_penetrate, step_bicycle

PARAMS = VehicleParams()


def step(state, a, delta, dt):
    """One bicycle step of a single vehicle (x, y, theta, v)."""
    return np.array(step_bicycle(*state, a, delta, dt, PARAMS.wheelbase))


def rollout(state, a, delta, dt, n):
    for _ in range(n):
        state = step(state, a, delta, dt)
    return state


def test_straight_line_zero_input():
    s = step((0.0, 0.0, 0.0, 10.0), 0.0, 0.0, 0.2)
    assert tuple(s) == pytest.approx((2.0, 0.0, 0.0, 10.0), abs=1e-12)


def test_constant_acceleration_straight():
    x, y, theta, v = step((0.0, 0.0, 0.0, 10.0), 1.0, 0.0, 0.2)
    assert v == pytest.approx(10.2, abs=1e-12)
    # position integral of a linear speed profile; the stage quadrature is exact here
    assert x == pytest.approx(2.02, abs=1e-9)
    assert y == 0.0 and theta == 0.0


def test_single_step_matches_fine_integrator():
    ref = rk4_reference((0, 0, 0, 5), 0.0, 0.1, 0.2, 10000, PARAMS.wheelbase)
    s = step((0.0, 0.0, 0.0, 5.0), 0.0, 0.1, 0.2)
    assert np.abs(s - ref).max() < 1e-8


def test_third_order_convergence():
    # smooth (constant-input) curved maneuver; reference from the fine oracle
    ref = rk4_reference((0, 0, 0, 5), 0.4, 0.08, 4.0, 2 ** 16, PARAMS.wheelbase)
    dts = [0.2, 0.1, 0.05, 0.025]
    errs = [np.linalg.norm(rollout((0.0, 0.0, 0.0, 5.0), 0.4, 0.08, dt, int(round(4.0 / dt))) - ref)
            for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 2.7 <= slope <= 3.3


def test_zero_steering_keeps_lane_and_heading():
    rng = np.random.default_rng(0)
    s = (0.0, 0.0, 0.0, 8.0)
    for _ in range(50):
        s = step(s, float(rng.uniform(-4, 4)), 0.0, 0.2)
        assert s[1] == 0.0
        assert s[2] == 0.0


def test_speed_never_negative():
    rng = np.random.default_rng(1)
    s = (0.0, 0.0, 0.0, 1.0)
    for _ in range(200):
        s = step(s, float(rng.uniform(-6, 2)), float(rng.uniform(-0.5, 0.5)), 0.2)
        assert s[3] >= 0.0
    # braking at standstill must not creep backwards
    stopped = step((5.0, 0.0, 0.0, 0.0), -3.0, 0.0, 0.2)
    assert stopped[3] == 0.0 and stopped[0] == 5.0


# --- the integrator against its first, written-out form ------------------------

def kutta_rk3_reference(x, y, theta, v, a, delta, dt, wheelbase):
    """step_bicycle as first written: each stage evaluates the whole right-hand
    side, (dx, dy, dtheta, dv) from (x, y, theta, v), and the angle wrap always
    runs."""

    def rhs(x, y, theta, v):
        v_fwd = np.maximum(v, 0.0)
        return (v_fwd * np.cos(theta), v_fwd * np.sin(theta),
                v_fwd * np.tan(delta) / wheelbase, a * np.ones_like(v_fwd))

    def wrap(theta):
        wrapped = np.where((theta > np.pi) | (theta <= -np.pi),
                           theta - 2.0 * np.pi * np.floor((theta + np.pi) / (2.0 * np.pi)),
                           theta)
        return np.where(wrapped <= -np.pi, wrapped + 2.0 * np.pi, wrapped)

    k1 = rhs(x, y, theta, v)
    k2 = rhs(x + 0.5 * dt * k1[0], y + 0.5 * dt * k1[1], theta + 0.5 * dt * k1[2],
             v + 0.5 * dt * k1[3])
    k3 = rhs(x - dt * k1[0] + 2.0 * dt * k2[0], y - dt * k1[1] + 2.0 * dt * k2[1],
             theta - dt * k1[2] + 2.0 * dt * k2[2], v - dt * k1[3] + 2.0 * dt * k2[3])
    sixth = dt / 6.0
    return (x + sixth * (k1[0] + 4.0 * k2[0] + k3[0]),
            y + sixth * (k1[1] + 4.0 * k2[1] + k3[1]),
            wrap(theta + sixth * (k1[2] + 4.0 * k2[2] + k3[2])),
            np.maximum(v + sixth * (k1[3] + 4.0 * k2[3] + k3[3]), 0.0))


PI_EDGES = [np.pi, -np.pi, np.nextafter(np.pi, 4.0), np.nextafter(-np.pi, -4.0),
            np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0)]
STATE = {
    "x": st.floats(-1e4, 1e4),
    "y": st.floats(-10.0, 10.0),
    # the wrap edges, angles a step can carry across them, and far beyond
    "theta": st.sampled_from(PI_EDGES + [0.0, -0.0, 3 * np.pi, -7.0])
    | st.floats(-3.2, 3.2) | st.floats(-20.0, 20.0),
    "v": st.sampled_from([0.0, -0.0, -1e-300]) | st.floats(-5.0, 40.0),
    "a": st.sampled_from([0.0, -0.0]) | st.floats(-6.0, 6.0),
    "delta": st.sampled_from([0.0, -0.0]) | st.floats(-0.6, 0.6),
}


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 12), data=st.data(),
       dt=st.sampled_from([0.2, 0.05, 1.0]) | st.floats(0.001, 2.0),
       wheelbase=st.floats(1.0, 5.0))
def test_step_matches_written_out_kutta_rk3_bit_for_bit(n, data, dt, wheelbase):
    # n = 0 is a scalar call; otherwise each argument is an (n,) array or,
    # broadcast, a scalar
    def draw(name):
        if n == 0 or data.draw(st.booleans(), label=f"{name} scalar"):
            return data.draw(STATE[name], label=name)
        return np.array(data.draw(st.lists(STATE[name], min_size=n, max_size=n), label=name))

    args = [draw(name) for name in STATE]
    if n:
        args[0] = np.broadcast_to(args[0], (n,)).copy()   # at least one array argument
    got = step_bicycle(*args, dt, wheelbase)
    want = kutta_rk3_reference(*args, dt, wheelbase)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.array_equal(bits(g), bits(w))
    assert np.all(np.abs(np.asarray(got[2])) <= np.pi) and np.all(np.asarray(got[3]) >= 0.0)


def test_scalar_step_gives_floats_and_arrays():
    # closed_loop and the replay test read a one-vehicle step both ways
    out = step_bicycle(1.0, 2.0, np.pi - 1e-9, 5.0, 1.0, 0.3, 0.2, 2.7)
    assert [float(c) for c in out] == np.array(out).tolist()
    assert np.array(out).shape == (4,)
    assert -np.pi < float(out[2]) <= np.pi


# --- rectangle distances ------------------------------------------------------
# a rectangle is (x, y, theta, half_length, half_width)

def separation(a, b):
    return float(rect_distance_arrays(*a, *b))


def boundary_sample(rect, per_edge=600):
    # corners included exactly so vertex-vertex minima are not missed
    x, y, theta, hl, hw = rect
    corners = np.array([(-hl, -hw), (hl, -hw), (hl, hw), (-hl, hw)])
    t = np.linspace(0.0, 1.0, per_edge, endpoint=False)[:, None]
    pts = np.concatenate([
        corners[k] + t * (corners[(k + 1) % 4] - corners[k]) for k in range(4)
    ])
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return pts @ rot.T + np.array([x, y])


def sampled_distance(a, b):
    pa, pb = boundary_sample(a), boundary_sample(b)
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1)
    return float(np.sqrt(d2.min()))


def test_overlapping_rectangles_distance_zero():
    a = (0, 0, 0.3, 2.0, 1.0)
    assert separation(a, a) == 0.0


def test_axis_aligned_gap():
    a = (0, 0, 0, 2.0, 1.0)
    b = (10, 0, 0, 2.0, 1.0)
    assert separation(a, b) == pytest.approx(6.0, abs=1e-12)


def test_rotated_case_matches_boundary_sampling():
    a = (0.0, 0.0, 0.0, 2.0, 1.0)
    b = (4.0, 3.0, np.pi / 4, 2.0, 1.0)
    assert separation(a, b) == pytest.approx(sampled_distance(a, b), abs=1e-3)


def test_distance_symmetry_and_translation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = (*rng.uniform(-5, 5, 2), rng.uniform(-np.pi, np.pi), 2.0, 1.0)
        b = (*rng.uniform(-5, 5, 2), rng.uniform(-np.pi, np.pi), 1.5, 0.8)
        d = separation(a, b)
        assert d == separation(b, a)
        tx, ty = rng.uniform(-20, 20, 2)
        a2 = (a[0] + tx, a[1] + ty, *a[2:])
        b2 = (b[0] + tx, b[1] + ty, *b[2:])
        assert separation(a2, b2) == pytest.approx(d, abs=1e-9)
        assert d >= 0.0


def test_random_cases_match_boundary_sampling():
    # the sampling oracle is only meaningful for disjoint rectangles
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 10:
        a = (*rng.uniform(-3, 3, 2), rng.uniform(-np.pi, np.pi), 2.0, 1.0)
        b = (*(rng.uniform(-3, 3, 2) + np.array([8.0, 0.0])),
             rng.uniform(-np.pi, np.pi), 2.25, 1.0)
        d = separation(a, b)
        if d < 0.3:
            continue
        assert d == pytest.approx(sampled_distance(a, b), abs=1e-3)
        checked += 1


def test_contained_rectangle_distance_zero():
    outer = (0, 0, 0.2, 4.0, 3.0)
    inner = (0.3, -0.2, 1.0, 0.5, 0.3)
    assert separation(outer, inner) == 0.0



# --- touching is distance 0.0 but not penetration ------------------------------------
# Each pair is built so that one separating-axis gap is exactly 0.0; nudge moves
# the second rectangle one ulp apart (+1) or one ulp into the first (-1).

def nudged(value, nudge):
    return value if nudge == 0 else float(np.nextafter(value, np.inf * nudge))


EXACT_PAIRS = {
    # side by side, both along the x axis
    "side": lambda n: ((0.0, 0.0, 0.0, 2.25, 1.0), (1.5, nudged(2.0, n), 0.0, 2.25, 1.0)),
    # side by side, both turned a quarter: sin(pi / 2) is exactly 1.0
    "turned": lambda n: ((0.0, 0.0, np.pi / 2, 2.25, 1.0),
                         (nudged(-2.0, -n), 0.0, np.pi / 2, 2.25, 1.0)),
    # crossed: the second turned a quarter, its long side on the first's flank
    "crossed": lambda n: ((0.0, 0.0, 0.0, 2.25, 1.0), (0.0, nudged(3.25, n), np.pi / 2, 2.25, 1.0)),
}


@pytest.mark.parametrize("pair", sorted(EXACT_PAIRS))
def test_touching_pair_is_distance_zero_and_not_penetrating(pair):
    a, b = EXACT_PAIRS[pair](0)
    assert separation(a, b) == 0.0
    assert not rects_penetrate(*a, *b)


@pytest.mark.parametrize("pair", sorted(EXACT_PAIRS))
def test_pair_one_ulp_apart_is_positive_distance(pair):
    a, b = EXACT_PAIRS[pair](1)
    assert separation(a, b) > 0.0
    assert not rects_penetrate(*a, *b)


@pytest.mark.parametrize("pair", sorted(EXACT_PAIRS))
def test_pair_one_ulp_overlapped_penetrates(pair):
    a, b = EXACT_PAIRS[pair](-1)
    assert separation(a, b) == 0.0
    assert rects_penetrate(*a, *b)


@pytest.mark.parametrize("rel", [0.1, 0.3, 0.5, 1.4])
def test_zero_gap_at_any_angle_is_distance_zero(rel):
    # a pair whose computed gap is exactly 0.0 at a general relative angle: the
    # nearest corner's distance rounds to a few 1e-16 there, so the gap test
    # alone must make the distance 0.0
    hl, hw = 2.25, 1.0
    a = (0.0, 0.0, 0.0, hl, hw)
    b = (0.0, hw + (hl * abs(np.sin(rel)) + hw * abs(np.cos(rel))), rel, hl, hw)
    assert separation(a, b) == 0.0
    assert not rects_penetrate(*a, *b)
