"""Kinematic bicycle integration and rectangle-footprint geometry.

All functions here are pure and operate on either scalars or numpy arrays
(broadcasting), so the planner's batched rollouts and the truth world's
all-vehicle step go through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import check

__all__ = [
    "VehicleParams",
    "step_bicycle",
    "rect_distance_arrays",
    "rects_penetrate",
]


@dataclass(frozen=True)
class VehicleParams:
    """Geometry and actuation limits. All fields strictly positive."""

    wheelbase: float = 2.7
    length: float = 4.5
    width: float = 2.0
    a_max: float = 4.0
    delta_max: float = 0.6

    def __post_init__(self):
        check("params", self, ">", 0, "wheelbase", "length", "width", "a_max", "delta_max")


def _wrap_angle(theta):
    out = (theta > np.pi) | (theta <= -np.pi)
    if not np.any(out):
        return theta   # already inside (-pi, pi]: wrapping is a no-op, bit for bit
    wrapped = np.where(out, theta - 2.0 * np.pi * np.floor((theta + np.pi) / (2.0 * np.pi)),
                       theta)
    return np.where(wrapped <= -np.pi, wrapped + 2.0 * np.pi, wrapped)


def _bicycle_rhs(theta, v, tan_delta, wheelbase):
    """(dx, dy, dtheta) of the bicycle ODE; dv is the input a itself. The pose
    terms do not depend on x and y."""
    # speed clamped inside the stages so braking at standstill cannot push the pose backwards
    v_fwd = np.maximum(v, 0.0)
    return v_fwd * np.cos(theta), v_fwd * np.sin(theta), v_fwd * tan_delta / wheelbase


def step_bicycle(x, y, theta, v, a, delta, dt, wheelbase):
    """One Kutta third-order step of the bicycle ODE on array (or scalar) state.

    Stages at 0, 1/2, 1 with weights 1/6, 2/3, 1/6. Returns (x, y, theta, v)
    with v clamped at zero and theta wrapped to (-pi, pi]. The inputs are
    used as given, as executed: the control laws (control.py) already
    saturate them to the actuation limits.
    """
    tan_delta = np.tan(delta)
    k1 = _bicycle_rhs(theta, v, tan_delta, wheelbase)
    k2 = _bicycle_rhs(theta + 0.5 * dt * k1[2], v + 0.5 * dt * a, tan_delta, wheelbase)
    k3 = _bicycle_rhs(theta - dt * k1[2] + 2.0 * dt * k2[2], v - dt * a + 2.0 * dt * a,
                      tan_delta, wheelbase)
    sixth = dt / 6.0
    x_n = x + sixth * (k1[0] + 4.0 * k2[0] + k3[0])
    y_n = y + sixth * (k1[1] + 4.0 * k2[1] + k3[1])
    th_n = _wrap_angle(theta + sixth * (k1[2] + 4.0 * k2[2] + k3[2]))
    v_n = np.maximum(v + sixth * (a + 4.0 * a + a), 0.0)
    return x_n, y_n, th_n, v_n


# --- rectangle geometry -----------------------------------------------------

def _relative_frame(ax, ay, ath, bx, by, bth):
    """Pose of rectangle B expressed in A's body frame: center (rx, ry), cos/sin
    of the relative rotation."""
    ca, sa = np.cos(ath), np.sin(ath)
    dx, dy = bx - ax, by - ay
    rx = ca * dx + sa * dy
    ry = -sa * dx + ca * dy
    rel = bth - ath
    return rx, ry, np.cos(rel), np.sin(rel)


def _gaps_in_frame(rx, ry, cr, sr, ahl, ahw, bhl, bhw):
    """Separation gaps of B against the axis-aligned box A along A's two axes."""
    ext_x = bhl * np.abs(cr) + bhw * np.abs(sr)
    ext_y = bhl * np.abs(sr) + bhw * np.abs(cr)
    return np.abs(rx) - (ahl + ext_x), np.abs(ry) - (ahw + ext_y)


def _corner_box_dist2(rx, ry, cr, sr, ahl, ahw, bhl, bhw):
    """Min squared distance from B's corners to the axis-aligned box A (both in A's frame)."""
    best = None
    for su in (1.0, -1.0):
        for sv in (1.0, -1.0):
            px = rx + su * bhl * cr - sv * bhw * sr
            py = ry + su * bhl * sr + sv * bhw * cr
            ox = np.maximum(np.abs(px) - ahl, 0.0)
            oy = np.maximum(np.abs(py) - ahw, 0.0)
            d2 = ox * ox + oy * oy
            best = d2 if best is None else np.minimum(best, d2)
    return best


def _frames_and_gaps(ax, ay, ath, ahl, ahw, bx, by, bth, bhl, bhw):
    """Each rectangle's pose in the other's body frame, and the four
    separating-axis gaps (B along A's two axes, then A along B's)."""
    fa = _relative_frame(ax, ay, ath, bx, by, bth)
    fb = _relative_frame(bx, by, bth, ax, ay, ath)
    gaps = (*_gaps_in_frame(*fa, ahl, ahw, bhl, bhw), *_gaps_in_frame(*fb, bhl, bhw, ahl, ahw))
    return fa, fb, gaps


def rects_penetrate(ax, ay, ath, ahl, ahw, bx, by, bth, bhl, bhw):
    """Separating-axis test for batches of rectangle pairs: True where the two
    share positive area. Touching is not penetration."""
    _, _, (gax, gay, gbx, gby) = _frames_and_gaps(ax, ay, ath, ahl, ahw, bx, by, bth, bhl, bhw)
    return ~((gax >= 0.0) | (gay >= 0.0) | (gbx >= 0.0) | (gby >= 0.0))


def rect_distance_arrays(ax, ay, ath, ahl, ahw, bx, by, bth, bhl, bhw):
    """Euclidean separation between batches of rectangle pairs; 0 on intersection or touch.

    Exact for rectangles: between disjoint convex polygons the closest features
    are a vertex and an edge (or two vertices), so the minimum over corner-to-box
    distances taken in both body frames is the true separation. The pair is
    apart only where some separating-axis gap is positive.
    """
    fa, fb, (gax, gay, gbx, gby) = _frames_and_gaps(ax, ay, ath, ahl, ahw,
                                                    bx, by, bth, bhl, bhw)
    apart = (gax > 0.0) | (gay > 0.0) | (gbx > 0.0) | (gby > 0.0)
    del gax, gay, gbx, gby   # not held through the corner pass: it sets the peak memory
    d2 = _corner_box_dist2(*fa, ahl, ahw, bhl, bhw)
    d2 = np.minimum(d2, _corner_box_dist2(*fb, bhl, bhw, ahl, ahw))
    return np.where(apart, np.sqrt(d2), 0.0)
