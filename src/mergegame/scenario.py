"""Scenario configuration: vehicle roster, lane layout, planner settings, YAML I/O.

A scenario file is ScenarioConfig as YAML, one top-level section per field:
  lanes       LaneGeometry: lane centers, lane width, merge_end
  vehicles    list of VehicleSpec (a tuple in ScenarioConfig), each with a
              non-empty string vehicle_id and its VehicleParams under params;
              a value that no law reads for the vehicle's role must keep its
              default: params.wheelbase and params.delta_max of a traffic
              vehicle, and the mode of the ego; a traffic vehicle's y lies
              nearest the center of its lane
  sim         SimConfig: dt, horizon, decision_period
  weights     CostWeights
  model       PlannerModel, the planner's rollout model: gains (PdGains),
              pursuit (PurePursuitParams), idm (IdmSettings, whose car
              following the truth world shares), follow_distance
  beliefs     BeliefSettings
  prune       PruneSettings
  episode     EpisodeSettings
  montecarlo  MonteCarloSettings
  planner     one of PLANNER_KINDS
  seed        a non-negative integer
A key left out takes its default, except a vehicle's vehicle_id. An unknown
key, or a missing vehicle_id, raises TypeError naming its section ("model
gains: unknown key 'zz'"), and a section of the wrong type raises
ValueError. Each settings class is frozen and checks its fields when it is
built: a number must be finite and in range (bounds.check, or
bounds.check_finite where any finite value will do), and a count an
integer (bounds.check_integer). A ValueError names the section as a file
writes it: "sim horizon ...", "model idm s0 ...", "vehicles[1] params
length ..." (a vehicle's own fields name it by id).
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .bounds import check, check_finite, check_integer
from .costs import Belief, CostWeights
from .dynamics import VehicleParams
from .forward_sim import PlannerModel, SimConfig
from .world import LaneGeometry, WorldSnapshot

__all__ = [
    "VehicleSpec",
    "BeliefSettings",
    "PruneSettings",
    "EpisodeSettings",
    "MonteCarloSettings",
    "ScenarioConfig",
    "load_scenario",
    "save_scenario",
    "default_merge_scenario",
    "empty_lane_scenario",
    "packed_lane_scenario",
]

PLANNER_KINDS = ("nash", "stackelberg-ev", "lowest-cost")
ROLES = ("ego", "traffic")
LANES = ("current", "target")
MODES = ("polite", "selfish")   # truth behavior (closed_loop.truth_sv_accel)
MONTE_CARLO_MODES = ("open-loop", "closed-loop")


def _check_choice(name: str, value, allowed: tuple) -> None:
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


@dataclass(frozen=True)
class VehicleSpec:
    vehicle_id: str
    role: str = "traffic"        # one of ROLES
    lane: str = "current"        # one of LANES
    x: float = 0.0
    y: float | None = None       # defaults to the lane center
    theta: float = 0.0
    v: float = 0.0
    v_des: float = 10.0
    mode: str = "selfish"        # one of MODES
    params: VehicleParams = field(default_factory=VehicleParams)

    def __post_init__(self):
        where = f"vehicle {self.vehicle_id!r}"
        _check_choice(f"{where} role", self.role, ROLES)
        _check_choice(f"{where} lane", self.lane, LANES)
        _check_choice(f"{where} mode", self.mode, MODES)
        check_finite(where, self, "x", "theta")
        if self.y is not None:   # None is the lane center
            check_finite(where, self, "y")
        check(where, self, ">=", 0, "v")
        check(where, self, ">", 0, "v_des")   # the modified IDM divides by v_des
        # values that no law reads for the role keep their defaults, which the
        # classes hold: every rollout entry steps with the ego's wheelbase, the
        # truth world steers traffic with delta = 0, and only traffic has a mode
        unread = [(where, self, "mode")] if self.role == "ego" else [
            (f"{where} params", self.params, name) for name in ("wheelbase", "delta_max")]
        for section, obj, name in unread:
            value, default = getattr(obj, name), getattr(type(obj), name)
            if value != default:
                raise ValueError(f"{section} {name} must stay {default!r} for role "
                                 f"{self.role!r} (nothing reads it), got {value!r}")


@dataclass(frozen=True)
class BeliefSettings:
    initial_assert: float = 0.5
    sigma_accel: float = 0.8

    def __post_init__(self):
        # update_belief never moves a prior of exactly 0 or 1
        check("beliefs", self, ">", 0, "initial_assert", "sigma_accel")
        check("beliefs", self, "<", 1, "initial_assert")


@dataclass(frozen=True)
class PruneSettings:
    max_decision_changes: int = 2

    def __post_init__(self):
        check("prune", self, ">=", 0, "max_decision_changes")
        check_integer("prune", max_decision_changes=self.max_decision_changes)


@dataclass(frozen=True)
class EpisodeSettings:
    max_cycles: int = 60
    success_lateral_tol: float = 0.5
    success_heading_tol: float = 0.05
    speed_jitter: float = 0.5          # uniform +- on initial speeds, per episode seed
    polite_lateral_frac: float = 0.75  # reaction threshold as a fraction of lane width
    selfish_lateral_frac: float = 0.25

    def __post_init__(self):
        check("episode", self, ">=", 1, "max_cycles")
        check_integer("episode", max_cycles=self.max_cycles)
        check("episode", self, ">=", 0, "success_lateral_tol", "success_heading_tol",
              "speed_jitter", "polite_lateral_frac", "selfish_lateral_frac")


@dataclass(frozen=True)
class MonteCarloSettings:
    mode: str = "open-loop"   # one of MONTE_CARLO_MODES
    n: int = 500
    position_jitter: float = 10.0
    speed_jitter: float = 5.0

    def __post_init__(self):
        _check_choice("montecarlo mode", self.mode, MONTE_CARLO_MODES)
        check("montecarlo", self, ">=", 1, "n")
        check_integer("montecarlo", n=self.n)
        check("montecarlo", self, ">=", 0, "position_jitter", "speed_jitter")


@dataclass(frozen=True)
class ScenarioConfig:
    lanes: LaneGeometry = field(default_factory=LaneGeometry)
    vehicles: tuple[VehicleSpec, ...] = ()
    sim: SimConfig = field(default_factory=SimConfig)
    weights: CostWeights = field(default_factory=CostWeights)
    model: PlannerModel = field(default_factory=PlannerModel)
    beliefs: BeliefSettings = field(default_factory=BeliefSettings)
    prune: PruneSettings = field(default_factory=PruneSettings)
    episode: EpisodeSettings = field(default_factory=EpisodeSettings)
    montecarlo: MonteCarloSettings = field(default_factory=MonteCarloSettings)
    planner: str = "nash"
    seed: int = 0

    def __post_init__(self):
        # a tuple, so that the roster cannot change after these checks
        object.__setattr__(self, "vehicles", tuple(self.vehicles))
        _check_choice("planner", self.planner, PLANNER_KINDS)
        check("scenario", self, ">=", 0, "seed")   # numpy's generators take no negative seed
        check_integer("scenario", seed=self.seed)
        roles = [v.role for v in self.vehicles]
        if roles.count("ego") != 1:
            raise ValueError("exactly one vehicle must have role 'ego'")
        if len(self.vehicles) < 2:
            raise ValueError("need the ego plus at least one surrounding vehicle")
        ids = [v.vehicle_id for v in self.vehicles]
        for i, vid in enumerate(ids):
            if not (isinstance(vid, str) and vid):
                raise ValueError(f"vehicles[{i}] vehicle_id must be a non-empty string, got {vid!r}")
        if len(set(ids)) != len(ids):
            raise ValueError("vehicle ids must be unique")
        # the planner and the truth world place traffic by the lane center
        # nearest its y, which must be its lane's; the ego may start anywhere,
        # mid-change included
        for v in self.vehicles:
            if v.role == "traffic" and v.y is not None \
                    and self.lanes.nearest_center(v.y) != self.lane_center(v.lane):
                raise ValueError(f"vehicle {v.vehicle_id!r} y {v.y!r} lies nearer the other "
                                 f"lane's center than its lane {v.lane!r}")

    @property
    def ego(self) -> VehicleSpec:
        return next(v for v in self.vehicles if v.role == "ego")

    @property
    def sv_ids(self) -> list[str]:
        return [v.vehicle_id for v in self.vehicles if v.role != "ego"]

    def lane_center(self, lane: str) -> float:
        return self.lanes.current_center if lane == "current" else self.lanes.target_center

    def initial_world(self) -> WorldSnapshot:
        states = np.array([
            [v.x, v.y if v.y is not None else self.lane_center(v.lane), v.theta, v.v]
            for v in self.vehicles
        ])
        return WorldSnapshot(
            ids=tuple(v.vehicle_id for v in self.vehicles),
            states=states,
            params=tuple(v.params for v in self.vehicles),
            v_des=np.array([v.v_des for v in self.vehicles]),
            lanes=self.lanes,
            ego_index=[v.role for v in self.vehicles].index("ego"),
        )

    def initial_beliefs(self) -> dict[str, Belief]:
        """Every surrounding vehicle's prior, as beliefs.initial_assert sets it."""
        p = self.beliefs.initial_assert
        return {vid: Belief(p, 1.0 - p) for vid in self.sv_ids}


# --- YAML serialization -------------------------------------------------------

def save_scenario(cfg: ScenarioConfig, path) -> None:
    import yaml   # here, so that importing the package does not load it

    with open(path, "w") as fh:
        yaml.safe_dump(asdict(cfg), fh, sort_keys=False)


def _section(where: str, data, kind=dict):
    """A new kind (dict or list) from section where of a scenario file; None
    is empty, and a list may be a tuple, as asdict(cfg) gives the vehicles."""
    if isinstance(data, (kind, type(None))) or kind is list and isinstance(data, tuple):
        return kind() if data is None else kind(data)
    raise ValueError(f"{where} must be a {'mapping' if kind is dict else 'list'}, got {data!r}")


def _build(cls, data, where: str):
    """cls from the mapping data (None for all defaults) of the section at
    path where, as a file writes it: "sim", "model gains", "vehicles[1]
    params", or "" for the whole file. A field whose default factory is a
    dataclass is built from its own section alike. An unknown key, or a
    missing key that has no default, raises TypeError naming the path:
    "model gains: unknown key 'zz'", "vehicles[1]: missing key
    'vehicle_id'". A ValueError of cls's own checks names its section by its
    own key, and gets the enclosing path put in front: "model gains kp_pos
    ...", "vehicles[1] params length ..."."""
    kwargs = _section(where, data)
    names = [f.name for f in fields(cls)]
    for key in kwargs:
        if key not in names:
            raise TypeError(f"{where}: unknown key {key!r}".lstrip(": "))   # "" has no path
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise TypeError(f"{where}: missing key {f.name!r}".lstrip(": "))
    for f in fields(cls):
        if f.name in kwargs and is_dataclass(f.default_factory):
            kwargs[f.name] = _build(f.default_factory, kwargs[f.name], f"{where} {f.name}".lstrip())
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where.rpartition(' ')[0]} {exc}".lstrip()) from None


def from_dict(data: dict) -> ScenarioConfig:
    """Inverse of save_scenario's asdict(cfg). Keys left out take their
    defaults, an unknown key anywhere raises TypeError naming it and its
    section, and a section of the wrong type raises ValueError naming the
    section."""
    kwargs = _section("scenario", data)
    vehicles = enumerate(_section("vehicles", kwargs.get("vehicles"), list))
    kwargs["vehicles"] = [_build(VehicleSpec, vd, f"vehicles[{i}]") for i, vd in vehicles]
    return _build(ScenarioConfig, kwargs, "")


def load_scenario(path) -> ScenarioConfig:
    import yaml

    with open(path) as fh:
        return from_dict(yaml.safe_load(fh))


# --- canonical scenarios --------------------------------------------------------

def default_merge_scenario(traffic_speed: float = 5.0, planner: str = "nash",
                           seed: int = 0, truth_modes: str = "mixed") -> ScenarioConfig:
    """Merge-lane scenario: a slower truck ahead of the ego on the merge lane
    and a three-vehicle stream on the target lane, with the middle gap opening
    right behind the ego.

    The stream's center-to-center spacing scales mildly with speed and is
    tight enough that merging requires either a squeeze or a negotiation.
    truth_modes: "mixed" (polite truck, selfish target lane), "polite", or
    "selfish" for every surrounding vehicle.
    """
    stream_gap = 10.0 + 0.2 * traffic_speed
    v_des_traffic = 1.2 * traffic_speed
    mode_truck = "polite" if truth_modes in ("mixed", "polite") else "selfish"
    mode_lane = "selfish" if truth_modes in ("mixed", "selfish") else "polite"
    truck_v = 0.75 * traffic_speed
    vehicles = [
        VehicleSpec("ego", role="ego", lane="current", x=0.0, v=traffic_speed,
                    v_des=traffic_speed + 2.0),
        VehicleSpec("sv0", lane="current", x=20.0, v=truck_v, v_des=truck_v,
                    mode=mode_truck, params=VehicleParams(length=7.0)),
        VehicleSpec("sv1", lane="target", x=stream_gap - 4.0, v=traffic_speed,
                    v_des=v_des_traffic, mode=mode_lane),
        VehicleSpec("sv2", lane="target", x=-4.0, v=traffic_speed,
                    v_des=v_des_traffic, mode=mode_lane),
        VehicleSpec("sv3", lane="target", x=-4.0 - stream_gap, v=traffic_speed,
                    v_des=v_des_traffic, mode=mode_lane),
    ]
    return ScenarioConfig(vehicles=vehicles, planner=planner, seed=seed)


def empty_lane_scenario(speed: float = 8.0, seed: int = 0) -> ScenarioConfig:
    """Unobstructed merge: the target lane is free ahead, with only a distant
    trailing vehicle far behind the ego."""
    vehicles = [
        VehicleSpec("ego", role="ego", lane="current", x=0.0, v=speed, v_des=speed + 2.0),
        VehicleSpec("trail", lane="target", x=-80.0, v=speed, v_des=speed),
    ]
    return ScenarioConfig(vehicles=vehicles, seed=seed)


def packed_lane_scenario(speed: float = 6.0, seed: int = 0) -> ScenarioConfig:
    """Target lane bumper-to-bumper over the whole merge length; no gap exists."""
    vehicles = [
        VehicleSpec("ego", role="ego", lane="current", x=0.0, v=speed, v_des=speed + 4.0),
        VehicleSpec("sv0", lane="current", x=30.0, v=0.5 * speed, v_des=0.5 * speed,
                    mode="polite", params=VehicleParams(length=7.0)),
    ]
    length = VehicleParams().length
    n = 0
    x = 115.0
    while x > -40.0:
        vehicles.append(VehicleSpec(f"pack{n}", lane="target", x=x, v=speed,
                                    v_des=speed, mode="selfish"))
        x -= length  # touching bumpers
        n += 1
    return ScenarioConfig(vehicles=vehicles, seed=seed)
