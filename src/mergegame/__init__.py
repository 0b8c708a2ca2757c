"""Game-theoretic lane-merge behavior planning and closed-loop traffic simulation."""

from .actions import (
    DecisionSequence,
    EgoDecision,
    GapChoice,
    LateralDecision,
    SvAction,
    enumerate_ego_sequences,
    lateral_decision_set,
)
from .closed_loop import (
    BehaviorMode,
    EpisodeTrace,
    Outcome,
    run_episode,
    run_episode_batch,
    run_monte_carlo,
    truth_sv_accel,
    write_trace_csv,
)
from .control import (
    IdmSettings,
    PdGains,
    PurePursuitParams,
    gap_reference,
    idm_accel,
    pd_longitudinal,
    pure_pursuit,
    virtual_gap_distance,
)
from .costs import Belief, CostWeights, GameMatrix, belief_entropy, update_belief
from .dynamics import VehicleParams, step_bicycle
from .forward_sim import SimConfig, PlannerModel, simulate_batch
from .game import (
    Equilibrium,
    EquilibriumKind,
    Player,
    Selection,
    find_pure_nash,
    select_action,
    stackelberg,
)
from .planner import CycleResult, plan_cycle
from .scenario import (
    ScenarioConfig,
    VehicleSpec,
    default_merge_scenario,
    empty_lane_scenario,
    load_scenario,
    packed_lane_scenario,
    save_scenario,
)
from .world import LaneGeometry, WorldSnapshot

__version__ = "0.1.0"
