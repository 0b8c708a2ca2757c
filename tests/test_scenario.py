import copy
import math
import re
from dataclasses import FrozenInstanceError, asdict, fields
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mergegame.control import IdmSettings, PdGains, PurePursuitParams
from mergegame.costs import CostWeights
from mergegame.dynamics import VehicleParams
from mergegame.forward_sim import PlannerModel, SimConfig
from mergegame.scenario import (
    MONTE_CARLO_MODES,
    PLANNER_KINDS,
    BeliefSettings,
    EpisodeSettings,
    MonteCarloSettings,
    PruneSettings,
    ScenarioConfig,
    VehicleSpec,
    default_merge_scenario,
    empty_lane_scenario,
    from_dict,
    load_scenario,
    packed_lane_scenario,
    save_scenario,
)
from mergegame.world import LaneGeometry

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_yaml_roundtrip(tmp_path):
    cfg = default_merge_scenario(traffic_speed=10.0, planner="lowest-cost", seed=99)
    path = tmp_path / "scenario.yaml"
    save_scenario(cfg, path)
    loaded = load_scenario(path)
    assert loaded == cfg


def test_initial_world_layout():
    cfg = default_merge_scenario(5.0)
    world = cfg.initial_world()
    assert world.ids[world.ego_index] == "ego"
    assert world.n_vehicles == 5
    e = world.ego_index
    assert world.states[e, 1] == cfg.lanes.current_center
    sv1 = world.index_of("sv1")
    assert world.states[sv1, 1] == cfg.lanes.target_center


def test_validation_errors():
    ego = VehicleSpec("ego", role="ego")
    with pytest.raises(ValueError):
        ScenarioConfig(vehicles=[ego])  # no surrounding vehicle
    with pytest.raises(ValueError):
        ScenarioConfig(vehicles=[ego, VehicleSpec("ego")])  # duplicate id
    with pytest.raises(ValueError):
        ScenarioConfig(vehicles=[VehicleSpec("a"), VehicleSpec("b")])  # no ego
    with pytest.raises(ValueError):
        ScenarioConfig(vehicles=[ego, VehicleSpec("sv")], planner="magic")


def test_builders_are_valid():
    for cfg in (default_merge_scenario(5.0), default_merge_scenario(10.0),
                empty_lane_scenario(), packed_lane_scenario()):
        world = cfg.initial_world()
        assert world.n_vehicles >= 2
    packed = packed_lane_scenario()
    lane_xs = sorted(v.x for v in packed.vehicles if v.lane == "target")
    length = packed.vehicles[2].params.length
    # bumper-to-bumper column spanning the whole merge runway
    assert lane_xs[0] < -30.0 and lane_xs[-1] > 100.0
    for a, b in zip(lane_xs, lane_xs[1:]):
        assert b - a == pytest.approx(length)


def test_truth_mode_variants():
    polite = default_merge_scenario(6.0, truth_modes="polite")
    selfish = default_merge_scenario(6.0, truth_modes="selfish")
    assert all(v.mode == "polite" for v in polite.vehicles if v.role != "ego")
    assert all(v.mode == "selfish" for v in selfish.vehicles if v.role != "ego")


def test_yaml_rejects_pursuit_wheelbase(tmp_path):
    # the steering law uses each vehicle's own wheelbase; the old pursuit field did nothing
    path = tmp_path / "scenario.yaml"
    save_scenario(default_merge_scenario(5.0), path)
    data = yaml.safe_load(path.read_text())
    data["model"]["pursuit"]["wheelbase"] = 2.7
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    with pytest.raises(TypeError, match="wheelbase"):
        load_scenario(path)


@pytest.mark.parametrize("initial_assert", [0.0, 1.0, -0.1, 1.5])
def test_belief_settings_reject_degenerate_prior(initial_assert):
    with pytest.raises(ValueError, match="initial_assert"):
        BeliefSettings(initial_assert=initial_assert)


@pytest.mark.parametrize("sigma_accel", [0.0, -0.8])
def test_belief_settings_reject_nonpositive_sigma(sigma_accel):
    with pytest.raises(ValueError, match="sigma_accel"):
        BeliefSettings(sigma_accel=sigma_accel)


def test_roster_cannot_change_after_its_checks():
    # a list let cfg.vehicles.append() add a second ego past the checks, and
    # initial_world() then built a six-vehicle world from it
    cfg = default_merge_scenario(5.0)
    with pytest.raises(AttributeError):
        cfg.vehicles.append(VehicleSpec("ego2", role="ego", x=50.0))
    assert cfg.vehicles == ScenarioConfig(vehicles=list(cfg.vehicles)).vehicles


def merge_yaml_dict(tmp_path):
    path = tmp_path / "scenario.yaml"
    save_scenario(default_merge_scenario(5.0), path)
    return yaml.safe_load(path.read_text())


def load_dict(tmp_path, data):
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    return load_scenario(path)


def test_yaml_rejects_unknown_top_level_key(tmp_path):
    # a misspelt key used to load silently and plan with the default "nash"
    data = merge_yaml_dict(tmp_path)
    data["plannr"] = data.pop("planner")
    with pytest.raises(TypeError, match="plannr"):
        load_dict(tmp_path, data)


def test_yaml_rejects_sim_steps(tmp_path):
    # steps is horizon * decision_period / dt, worked out rather than set
    data = merge_yaml_dict(tmp_path)
    data["sim"]["steps"] = 25
    with pytest.raises(TypeError, match="steps"):
        load_dict(tmp_path, data)


UNKNOWN_KEY_PATHS = [
    # (the section the key is added to, the section path the error names)
    ((), ""), (("sim",), "sim: "), (("model", "gains"), "model gains: "),
    (("model", "idm"), "model idm: "), (("vehicles", 1), "vehicles[1]: "),
    (("vehicles", 1, "params"), "vehicles[1] params: ")]


@pytest.mark.parametrize("path, where", UNKNOWN_KEY_PATHS,
                         ids=[".".join(map(str, path)) or "top" for path, _ in UNKNOWN_KEY_PATHS])
def test_yaml_unknown_key_names_its_section(tmp_path, path, where):
    # a nested section used to be named by its class: "PdGains.__init__()
    # got an unexpected keyword argument 'zz'"
    data = merge_yaml_dict(tmp_path)
    section = data
    for key in path:
        section = section[key]
    section["zz"] = 1
    with pytest.raises(TypeError, match=rf"^{re.escape(where)}unknown key 'zz'$"):
        load_dict(tmp_path, data)


def test_yaml_rejects_unknown_montecarlo_mode(tmp_path):
    # the CLI used to run any mode other than "closed-loop" open-loop
    data = merge_yaml_dict(tmp_path)
    data["montecarlo"]["mode"] = "closedloop"
    with pytest.raises(ValueError, match="montecarlo mode"):
        load_dict(tmp_path, data)


def test_yaml_rejects_no_montecarlo_instances(tmp_path):
    data = merge_yaml_dict(tmp_path)
    data["montecarlo"]["n"] = 0
    with pytest.raises(ValueError, match="montecarlo n must be >= 1"):
        load_dict(tmp_path, data)


@pytest.mark.parametrize("field, value", [("lane", "targt"), ("role", "tarffic"),
                                          ("mode", "poite")])
def test_yaml_rejects_unknown_vehicle_choice(tmp_path, field, value):
    # "targt" used to place the vehicle on the target lane, any role counted as
    # traffic, and a bad mode raised only once an episode started
    data = merge_yaml_dict(tmp_path)
    data["vehicles"][1][field] = value
    with pytest.raises(ValueError, match=f"vehicle 'sv0' {field}.*{value}"):
        load_dict(tmp_path, data)


def test_yaml_defaults_are_the_config_defaults(tmp_path):
    cfg = default_merge_scenario(5.0)
    data = merge_yaml_dict(tmp_path)
    loaded = load_dict(tmp_path, {"vehicles": data["vehicles"]})
    assert loaded == ScenarioConfig(vehicles=cfg.vehicles)
    assert loaded.model == PlannerModel()


@pytest.mark.parametrize("name", ["merge_low", "merge_high"])
def test_shipped_configs_load(name):
    cfg = load_scenario(CONFIGS / f"{name}.yaml")
    assert cfg.sim.horizon * cfg.sim.substeps == 25
    assert cfg.initial_world().n_vehicles == len(cfg.vehicles)


@pytest.mark.parametrize("field, value, rule", [
    ("v_des", 0.0, "v_des must be > 0"), ("v_des", -3.0, "v_des must be > 0"),
    ("v_des", float("nan"), "v_des must be > 0"), ("v", -0.5, "v must be >= 0")])
def test_yaml_rejects_bad_vehicle_speeds(tmp_path, field, value, rule):
    # sv0 at v = v_des = 0 used to load, and the first planning cycle then
    # failed on a non-finite cost matrix
    data = merge_yaml_dict(tmp_path)
    data["vehicles"][1][field] = value
    with pytest.raises(ValueError, match=f"vehicle 'sv0' {rule}"):
        load_dict(tmp_path, data)


UNREAD_VALUES = [
    # (vehicle, field, value): the ego's mode and the traffic's steering geometry
    ("ego", "mode", "polite"),
    ("sv0", "params.wheelbase", 3.1),
    ("sv0", "params.delta_max", 0.4),
]


@pytest.mark.parametrize("vehicle, name, value", UNREAD_VALUES,
                         ids=[name for _, name, _ in UNREAD_VALUES])
@pytest.mark.parametrize("via", ["constructor", "yaml"])
def test_values_nothing_reads_are_rejected(tmp_path, via, vehicle, name, value):
    # the planner steps every entry with the ego's wheelbase, the truth world
    # steers traffic with delta = 0, and only traffic has a truth mode, so
    # these values used to load and change no result
    data = merge_yaml_dict(tmp_path)
    spec = next(vd for vd in data["vehicles"] if vd["vehicle_id"] == vehicle)
    section = spec["params"] if name.startswith("params.") else spec
    section[name.split(".")[-1]] = value
    with pytest.raises(ValueError, match=f"vehicle '{vehicle}' {name.replace('.', ' ')} must stay"):
        if via == "yaml":
            load_dict(tmp_path, data)
        else:
            VehicleSpec(**{**spec, "params": VehicleParams(**spec["params"])})


@pytest.mark.parametrize("via", ["constructor", "yaml"])
def test_traffic_must_lie_nearest_its_own_lane(tmp_path, via):
    # the planner places traffic by its nearest lane center and the truth
    # world by its lane, so such a vehicle used to brake for an ego a lane
    # away; the ego may start anywhere, mid-change included
    data = merge_yaml_dict(tmp_path)
    data["vehicles"][0]["y"] = 2.8
    assert load_dict(tmp_path, data).ego.y == 2.8
    data["vehicles"][2]["y"] = 1.0   # sv1, on the target lane
    with pytest.raises(ValueError, match="vehicle 'sv1' y 1.0 lies nearer the other lane's"):
        if via == "yaml":
            load_dict(tmp_path, data)
        else:
            ScenarioConfig(vehicles=[VehicleSpec(**{**vd, "params": VehicleParams(**vd["params"])})
                                     for vd in data["vehicles"]])


def test_steering_geometry_stays_settable_on_the_ego():
    ego = VehicleSpec("ego", role="ego", params=VehicleParams(wheelbase=3.1, delta_max=0.4))
    assert ego.params.wheelbase == 3.1 and ego.params.delta_max == 0.4
    assert VehicleSpec("sv0", mode="polite").mode == "polite"


@pytest.mark.parametrize("seed", [-1, float("nan")])
def test_yaml_rejects_negative_seed(tmp_path, seed):
    # seed -1 used to load and then fail in numpy's generator mid-run
    data = merge_yaml_dict(tmp_path)
    data["seed"] = seed
    with pytest.raises(ValueError, match="scenario seed must be >= 0"):
        load_dict(tmp_path, data)


@pytest.mark.parametrize("path, value, where", [
    ("seed", 1.5, "scenario"), ("seed", True, "scenario"), ("sim.horizon", 2.5, "sim"),
    ("sim.horizon", True, "sim"), ("prune.max_decision_changes", 1.5, "prune"),
    ("episode.max_cycles", 2.5, "episode"), ("montecarlo.n", 2.5, "montecarlo")])
def test_yaml_rejects_non_integer_counts(tmp_path, path, value, where):
    # each used to load: horizon 2.5 then recursed without end in the
    # enumeration, seed 1.5 and max_cycles 2.5 failed in numpy and range,
    # max_decision_changes 1.5 acted as 1, and the others ran on
    data = merge_yaml_dict(tmp_path)
    *sections, name = path.split(".")
    section = data
    for key in sections:
        section = section[key]
    section[name] = value
    with pytest.raises(ValueError, match=rf"^{where} {name} must be an integer, got {value!r}$"):
        load_dict(tmp_path, data)


@pytest.mark.parametrize("max_cycles", [0, -1])
def test_yaml_rejects_no_episode_cycles(tmp_path, max_cycles):
    # max_cycles = 0 used to run a zero-cycle episode that timed out at once
    data = merge_yaml_dict(tmp_path)
    data["episode"]["max_cycles"] = max_cycles
    with pytest.raises(ValueError, match="episode max_cycles must be >= 1"):
        load_dict(tmp_path, data)


@pytest.mark.parametrize("section, field, value", [
    *[("episode", f, v) for f in ("speed_jitter", "success_lateral_tol", "success_heading_tol",
                                  "polite_lateral_frac", "selfish_lateral_frac")
      for v in (-0.5, float("nan"))],
    ("montecarlo", "position_jitter", -1.0), ("montecarlo", "speed_jitter", -1.0),
    ("prune", "max_decision_changes", -1)])
def test_yaml_rejects_negative_settings(tmp_path, section, field, value):
    # each used to load: a negative jitter failed in the first random draw, a
    # negative tolerance made success unreachable, a negative reaction fraction
    # switched every reaction off, and a negative budget failed at the first plan
    data = merge_yaml_dict(tmp_path)
    data[section][field] = value
    with pytest.raises(ValueError, match=f"{section} {field} must be >= 0"):
        load_dict(tmp_path, data)


SETTINGS = (VehicleParams, PdGains, PurePursuitParams, IdmSettings, PlannerModel, CostWeights,
            SimConfig, LaneGeometry, BeliefSettings, PruneSettings, EpisodeSettings,
            MonteCarloSettings, VehicleSpec)
FLOAT_FIELDS = [(cls, f.name) for cls in SETTINGS for f in fields(cls) if "float" in str(f.type)]


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_settings_reject_nan_naming_the_field(cls, name):
    # 29 of these fields used to take NaN, which then surfaced, if at all, as
    # a non-finite cost matrix mid-run; the others rejected it unnamed
    required = {"vehicle_id": "sv"} if cls is VehicleSpec else {}
    with pytest.raises(ValueError, match=rf"\b{name} must be .*, got nan"):
        cls(**required, **{name: float("nan")})


NAN_PATHS = [
    # (path in the file, the section path the error names)
    (("lanes", "current_center"), "lanes"), (("vehicles", 1, "x"), "vehicle 'sv0'"),
    (("vehicles", 1, "params", "length"), "vehicles[1] params"), (("sim", "dt"), "sim"),
    (("weights", "w_info"), "weights"), (("model", "follow_distance"), "model"),
    (("model", "gains", "kp_pos"), "model gains"), (("model", "pursuit", "kpp"), "model pursuit"),
    (("model", "idm", "s0"), "model idm"), (("beliefs", "sigma_accel"), "beliefs"),
    (("episode", "speed_jitter"), "episode"), (("montecarlo", "position_jitter"), "montecarlo")]


@pytest.mark.parametrize("path, where", NAN_PATHS,
                         ids=[".".join(map(str, path)) for path, _ in NAN_PATHS])
def test_yaml_rejects_nan_in_every_section(tmp_path, path, where):
    # sim, lanes, weights, model and a vehicle's params used to name their
    # class (SimConfig, ..., VehicleParams), and params not its vehicle
    data = merge_yaml_dict(tmp_path)
    section = data
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = float("nan")
    assert f"{path[-1]}: .nan" in yaml.safe_dump(data)
    with pytest.raises(ValueError, match=rf"^{re.escape(where)} {path[-1]} must be .*, got nan$"):
        load_dict(tmp_path, data)


@pytest.mark.parametrize("name", ["merge_low", "merge_high"])
def test_shipped_configs_are_canonical(tmp_path, name):
    # a shipped file holds every key, in the order save_scenario writes it
    shipped = CONFIGS / f"{name}.yaml"
    saved = tmp_path / "saved.yaml"
    save_scenario(load_scenario(shipped), saved)
    assert saved.read_bytes() == shipped.read_bytes()


DELETE = object()
WRONG_VALUES = [
    # (path in the file, value or DELETE, the error, its whole message)
    (("model", "gains", "kp_pos"), "abc", ValueError,
     "model gains kp_pos must be a finite number, got 'abc'"),
    (("vehicles", 1, "params", "length"), "4.5", ValueError,
     "vehicles[1] params length must be a finite number, got '4.5'"),
    (("sim", "dt"), None, ValueError, "sim dt must be a finite number, got None"),
    (("vehicles", 1, "vehicle_id"), DELETE, TypeError, "vehicles[1]: missing key 'vehicle_id'"),
    *[(("vehicles", 1, "vehicle_id"), value, ValueError,
       f"vehicles[1] vehicle_id must be a non-empty string, got {value!r}")
      for value in (5, [1], "")],
    *[(path, value, ValueError, f"{where} must be a finite number, got {value!r}")
      for path, where in ((("vehicles", 3, "x"), "vehicle 'sv2' x"),
                          (("vehicles", 3, "v_des"), "vehicle 'sv2' v_des"),
                          (("weights", "w_info"), "weights w_info"))
      for value in (math.inf, -math.inf)]]


@pytest.mark.parametrize("path, value, error, message", WRONG_VALUES,
                         ids=[f"{'.'.join(map(str, p))}={'del' if v is DELETE else repr(v)}"
                              for p, v, _, _ in WRONG_VALUES])
def test_yaml_rejects_wrong_values_naming_the_field(tmp_path, path, value, error, message):
    # the first three used to raise a bare TypeError from a comparison, and
    # the missing id one naming VehicleSpec.__init__; an id of 5 or "" used
    # to load, and [1] to raise a bare TypeError (unhashable); x = .inf on
    # sv2 ran a "successful" episode, v_des = .inf failed mid-run on a
    # non-finite matrix, and w_info = -.inf passed its ">= -inf" check
    data = merge_yaml_dict(tmp_path)
    section = data
    for key in path[:-1]:
        section = section[key]
    if value is DELETE:
        del section[path[-1]]
    else:
        section[path[-1]] = value
    with pytest.raises(error, match=rf"^{re.escape(message)}$"):
        load_dict(tmp_path, data)


REQUIRED = {VehicleSpec: {"vehicle_id": "sv"},
            ScenarioConfig: {"vehicles": default_merge_scenario(5.0).vehicles}}


@pytest.mark.parametrize("cls", [*SETTINGS, ScenarioConfig], ids=lambda cls: cls.__name__)
def test_settings_are_frozen(cls):
    # a field assigned after its check used to stick: episode max_cycles =
    # 2.5 then failed in range() mid-run, and planner = "magic" at the first cycle
    obj = cls(**REQUIRED.get(cls, {}))
    name = fields(cls)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(obj, name, getattr(obj, name))


# --- the settings layer as one property ------------------------------------------

def file_dict(cfg):
    """cfg as a scenario file holds it: asdict, with the vehicles as a list."""
    data = asdict(cfg)
    data["vehicles"] = list(data["vehicles"])
    return data


def leaves(data, path=()):
    """The (path, value) of every leaf of a scenario dict, as a file holds it."""
    items = enumerate(data) if isinstance(data, list) else data.items()
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaves(value, (*path, key))
        else:
            yield (*path, key), value


def section_of(data, path):
    """A leaf's path as an error names it: "sim dt", "model idm s0",
    "vehicles[1] params length", and a vehicle's own fields by its id."""
    if path[0] != "vehicles":
        return " ".join(path)
    i, rest = path[1], path[2:]
    if rest[0] in ("params", "vehicle_id"):
        return " ".join((f"vehicles[{i}]", *rest))
    return f"vehicle {data['vehicles'][i]['vehicle_id']!r} {rest[0]}"


def with_leaf(data, path, value):
    data = copy.deepcopy(data)
    section = data
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return data


@st.composite
def valid_configs(draw):
    """A canonical scenario with a few numbers scaled or recounted, and any
    planner, seed and Monte Carlo mode."""
    data = file_dict(draw(st.sampled_from([
        default_merge_scenario(5.0), default_merge_scenario(10.0, truth_modes="polite"),
        empty_lane_scenario(8.0)])))
    numbers = [(p, v) for p, v in leaves(data)
               if isinstance(v, (int, float)) and not isinstance(v, bool)]
    for path, value in draw(st.lists(st.sampled_from(numbers), max_size=6)):
        new = draw(st.integers(1, 12)) if isinstance(value, int) \
            else value * draw(st.floats(0.5, 2.0))
        data = with_leaf(data, path, new)
    data["planner"] = draw(st.sampled_from(PLANNER_KINDS))
    data["seed"] = draw(st.integers(0, 2 ** 32 - 1))
    data["montecarlo"]["mode"] = draw(st.sampled_from(MONTE_CARLO_MODES))
    try:
        return from_dict(data)
    except ValueError:   # a scaled number broke a bound, such as d_lo < d_hi
        assume(False)


@settings(max_examples=100, deadline=None)
@given(cfg=valid_configs(), data=st.data())
def test_settings_round_trip_and_reject_any_wrong_kind_leaf(tmp_path_factory, cfg, data):
    assert from_dict(asdict(cfg)) == cfg
    path = tmp_path_factory.mktemp("scenario") / "scenario.yaml"
    save_scenario(cfg, path)
    assert load_scenario(path) == cfg

    # any one leaf of the wrong kind is rejected, naming the leaf's section
    as_dict = file_dict(cfg)
    leaf, value = data.draw(st.sampled_from(list(leaves(as_dict))), label="leaf")
    wrong = [None, [1.0], math.inf, -math.inf]
    if leaf[-1] == "y":
        wrong.remove(None)   # the lane center
    if not isinstance(value, str):
        wrong.append("fast")
    bad = data.draw(st.sampled_from(wrong), label="value")
    with pytest.raises((ValueError, TypeError)) as exc:
        from_dict(with_leaf(as_dict, leaf, bad))
    assert section_of(as_dict, leaf) in str(exc.value)
