"""Multi-vehicle snapshot, lane geometry, and gap topology resolution."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import check, check_finite
from .dynamics import VehicleParams

__all__ = ["LaneGeometry", "WorldSnapshot"]


@dataclass(frozen=True)
class LaneGeometry:
    """Straight two-lane layout: the ego's starting lane plus the merge target to its left."""

    current_center: float = 0.0
    target_center: float = 3.5
    width: float = 3.5
    merge_end: float = 100.0  # longitudinal position where the merge lane runs out

    def __post_init__(self):
        check_finite("lanes", self, "current_center", "target_center")
        check("lanes", self, ">", 0, "width", "merge_end")
        if self.target_center == self.current_center:
            raise ValueError("lanes current_center and target_center must differ")

    @property
    def probe_line(self) -> float:
        """Intermediate probing line on the boundary between the two lanes."""
        return 0.5 * (self.current_center + self.target_center)

    def nearest_center(self, y):
        """Lane center of each lateral position y (scalar or array). A tie, at
        the probe line, goes to the current lane."""
        return np.where(np.abs(y - self.current_center) <= np.abs(y - self.target_center),
                        self.current_center, self.target_center)


@dataclass
class WorldSnapshot:
    """States of all vehicles at one instant, with per-vehicle parameters and desired speeds.

    Built from params once, the arrays the laws read by vehicle index (V,):
    wheelbase, half_len, half_wid, a_max and delta_max.
    """

    ids: tuple[str, ...]
    states: np.ndarray  # (V, 4) columns x, y, theta, v
    params: tuple[VehicleParams, ...]
    v_des: np.ndarray   # (V,)
    lanes: LaneGeometry
    ego_index: int = 0
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.v_des = np.asarray(self.v_des, dtype=float)
        if self.states.shape != (len(self.ids), 4):
            raise ValueError("states must have shape (n_vehicles, 4)")
        if len(self.params) != len(self.ids) or self.v_des.shape != (len(self.ids),):
            raise ValueError("ids, states, params and v_des must align")
        if not 0 <= self.ego_index < len(self.ids):
            raise ValueError("ego_index out of range")
        self._index = {vid: k for k, vid in enumerate(self.ids)}
        cols = np.array([(p.wheelbase, p.length, p.width, p.a_max, p.delta_max)
                         for p in self.params], dtype=float).T
        self.wheelbase, self.a_max, self.delta_max = cols[0], cols[3], cols[4]
        self.half_len, self.half_wid = 0.5 * cols[1], 0.5 * cols[2]

    @property
    def n_vehicles(self) -> int:
        return len(self.ids)

    def index_of(self, vehicle_id: str) -> int:
        return self._index[vehicle_id]

    def leader_indices(self, include_ego: bool = True) -> np.ndarray:
        """Nearest same-lane vehicle ahead of each vehicle (-1 when the road ahead is free).

        Lane membership is by nearest lane center. With include_ego=False the
        ego is invisible to the chain (the closed-loop truth model handles the
        ego through its own reaction gate instead).
        """
        n = self.n_vehicles
        centers = self.lanes.nearest_center(self.states[:, 1])
        x = self.states[:, 0]
        dx = x - x[:, None]  # dx[i, j]: how far j is ahead of i
        ahead = (dx > 0.0) & (centers == centers[:, None])
        if not include_ego:
            ahead[:, self.ego_index] = False
        # column 0 stands for "no leader": its +inf loses to any vehicle ahead,
        # and argmin keeps the first of equal distances, so the lowest index wins a tie
        dist = np.full((n, n + 1), np.inf)
        np.copyto(dist[:, 1:], dx, where=ahead)
        return dist.argmin(axis=1) - 1

    def resolve_gaps(self, leaders: np.ndarray) -> np.ndarray:
        """The bounding vehicles of the three semantic gaps, as a (3, 2) table
        of vehicle indices: row g holds the front and the rear bound of
        GapChoice g, -1 where there is none. The rear bound is the gap's
        interaction partner, the vehicle that would have to open it.

        GAP_0 is the ego's current lane behind its leader, with no rear bound
        and so no partner; once the ego has merged, its current lane is the
        target lane, and GAP_0 is the place behind its leader there. On the
        target lane, GAP_1 is bounded at the rear by the nearest vehicle ahead
        of the ego and GAP_2 by the nearest vehicle behind it. leaders is
        leader_indices() with the ego included.
        """
        e = self.ego_index
        x = self.states[:, 0]
        on_target = self.lanes.nearest_center(self.states[:, 1]) == self.lanes.target_center
        others = [k for k in on_target.nonzero()[0].tolist() if k != e]
        # nearest first, the lower index first at equal x; -1 pads a missing vehicle
        ahead = sorted((k for k in others if x[k] >= x[e]), key=lambda k: x[k]) + [-1, -1]
        behind = sorted((k for k in others if x[k] < x[e]), key=lambda k: -x[k]) + [-1, -1]
        if ahead[0] >= 0:
            gap1, gap2 = (ahead[1], ahead[0]), (ahead[0], behind[0])
        else:
            gap1, gap2 = (-1, behind[0]), (behind[0], behind[1])
        return np.array([(leaders[e], -1), gap1, gap2], dtype=np.intp)
