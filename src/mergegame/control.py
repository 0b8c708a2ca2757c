"""Continuous control laws: gap reference, PD tracking, pure pursuit, modified IDM.

Every law here operates on numpy arrays (broadcasting), so one implementation
serves both callers: the planner's rollouts (forward_sim.simulate_batch), which
evaluate it on all action tuples at once, and the truth world
(closed_loop.truth_sv_accel), which evaluates it on all surrounding vehicles
at once. A scalar call is just a broadcast.

The modified IDM treats a laterally offset leader as farther away than it is:
the spacing input is inflated by exp(kappa * |dy|) with kappa = 2 ln(beta) / w_lane,
so a large beta makes a follower ignore a merging vehicle (assert) while a beta
near one makes it brake for it early (yield). The truth world is this IDM with
kappa = 0 (beta = 1, no lateral discount), plus its reaction gate: a vehicle
also brakes for the ego's projection onto its lane once the ego is level or
ahead and laterally within the vehicle's reaction range.

Every law returns a command within its vehicle's actuation limits (a_max,
delta_max), so the rollouts and the truth world execute, record and observe
the laws' outputs as they are; nothing downstream saturates again.
Saturation is np.minimum(np.maximum(x, lo), hi): for bounds lo < 0 < hi it
gives np.clip's bits (NaN and -0.0 included) at about half np.clip's cost
per call, which the rollouts pay many times per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import check

__all__ = [
    "PdGains",
    "PurePursuitParams",
    "IdmSettings",
    "gap_reference",
    "pd_longitudinal",
    "pure_pursuit",
    "lateral_discount",
    "virtual_gap_distance",
    "leader_inputs",
    "idm_accel",
]


@dataclass(frozen=True)
class PdGains:
    kp_pos: float = 0.3
    kd_pos: float = 1.2
    kp_vel: float = 1.0

    def __post_init__(self):
        check("gains", self, ">=", 0, "kp_pos", "kd_pos", "kp_vel")


@dataclass(frozen=True)
class PurePursuitParams:
    kpp: float = 1.8          # lookahead gain (s); lookahead distance is kpp * v
    min_lookahead: float = 4.0  # floor keeping the lookahead finite near standstill

    def __post_init__(self):
        check("pursuit", self, ">", 0, "kpp", "min_lookahead")


@dataclass(frozen=True)
class IdmSettings:
    """Scenario-wide modified-IDM settings. Each follower adds its own desired
    speed v0 and, in the planner's model, a behavior-mode beta."""

    time_headway: float = 1.2
    s0: float = 6.0
    a_acc: float = 1.5
    b_dec: float = 2.0
    b_emergency: float = 6.0
    beta_assert: float = 6.0
    beta_yield: float = 2.0

    def __post_init__(self):
        check("idm", self, ">", 0, "time_headway", "s0", "a_acc", "b_dec", "b_emergency")
        check("idm", self, ">=", 1, "beta_yield")
        check("idm", self, ">", self.beta_yield, "beta_assert")


def gap_reference(x_front, v_front, has_front, x_rear, has_rear, v_des, follow_distance):
    """Rule-based target (x_target, v_target) inside a gap given its bounding vehicles.

    Both bounds  -> midpoint of the gap, 0.5 * (x_rear + x_front).
    Front only   -> follow point follow_distance behind the front vehicle.
    No front     -> speed tracking at v_des; x_target is then meaningless, and
                    pd_longitudinal is called with has_target = has_front.
    The speed target is min(v_front, v_des) wherever a front vehicle exists.
    """
    v_target = np.where(has_front, np.minimum(v_front, v_des), v_des)
    x_target = np.where(has_rear & has_front,
                        0.5 * (x_rear + x_front),
                        x_front - follow_distance)
    return x_target, v_target


def pd_longitudinal(x, v, x_target, v_target, has_target, gains: PdGains, a_max):
    """PD acceleration toward (x_target, v_target), saturated to [-a_max, a_max].

    Pure speed tracking where has_target is false.
    """
    a_pd = gains.kp_pos * (x_target - x) + gains.kd_pos * (v_target - v)
    a_free = gains.kp_vel * (v_target - v)
    return np.minimum(np.maximum(np.where(has_target, a_pd, a_free), -a_max), a_max)


def pure_pursuit(y, theta, v, line_y, wheelbase, params: PurePursuitParams, delta_max):
    """Steering command tracking a lateral line y = line_y.

    The lookahead point sits on the target line at distance
    max(kpp * v, min_lookahead); gamma is the angle from the heading to that
    point and the command is atan(2 L sin(gamma) / lookahead) for the
    vehicle's own wheelbase L, saturated to [-delta_max, delta_max].
    """
    lookahead = np.maximum(params.kpp * v, params.min_lookahead)
    sin_los = np.minimum(np.maximum((line_y - y) / lookahead, -1.0), 1.0)
    gamma = np.arcsin(sin_los) - theta
    delta = np.arctan(2.0 * wheelbase * np.sin(gamma) / lookahead)
    return np.minimum(np.maximum(delta, -delta_max), delta_max)


def lateral_discount(beta, w_lane):
    """kappa = 2 ln(beta) / w_lane: one full lane of offset scales the distance by beta^2."""
    return 2.0 * np.log(beta) / w_lane


def virtual_gap_distance(x_lead, y_lead, x, y, kappa):
    """Longitudinal distance inflated by the lateral offset: |dx| * exp(kappa |dy|).

    Zero offset, or kappa = 0, reproduces the true distance.
    """
    return np.abs(x_lead - x) * np.exp(kappa * np.abs(y_lead - y))


def leader_inputs(P, x, y, lead, kappa):
    """Physical-leader inputs of the modified IDM, for the rollouts and the truth world.

    Follower i is at (x[i], y[i]) behind lead[i], a column of the state
    matrix P (rows x, y, theta, v), or -1 for none, with lateral discount
    kappa. Returns (d_lead, v_lead, has_lead) for idm_accel; a follower
    without a leader gets d_lead = inf and v_lead = 0.
    """
    has = lead >= 0
    x_l, y_l, _, v_l = P.take(np.where(has, lead, 0), axis=1)
    d = virtual_gap_distance(x_l, y_l, x, y, kappa)
    return np.where(has, d, np.inf), np.where(has, v_l, 0.0), has


def idm_accel(v, v_lead, d, has_lead, v0, idm: IdmSettings, a_max):
    """Intelligent-driver-model acceleration with the (virtual) distance d as spacing input.

    Free-road term only where has_lead is false; a vanishing spacing returns
    full emergency braking (imminent collision, not a fault). Output saturated
    to [-b_emergency, a_acc] and to the follower's actuation limit
    [-a_max, a_max] in one step, to their intersection
    [max(-b_emergency, -a_max), min(a_acc, a_max)]: both intervals contain 0,
    so this gives the bits of saturating to one and then the other.
    """
    free = 1.0 - (v / v0) ** 4
    safe_d = np.where(d > 0.0, d, 1.0)
    sqrt_ab = 2.0 * np.sqrt(idm.a_acc * idm.b_dec)
    s_star = idm.s0 + v * idm.time_headway + v * (v - v_lead) / sqrt_ab
    a_follow = idm.a_acc * (free - (s_star / safe_d) ** 2)
    a = np.where(has_lead, a_follow, idm.a_acc * free)
    a = np.where(has_lead & (d <= 0.0), -idm.b_emergency, a)
    return np.minimum(np.maximum(a, np.maximum(-idm.b_emergency, -a_max)),
                      np.minimum(idm.a_acc, a_max))
