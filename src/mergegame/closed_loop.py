"""Receding-horizon closed loop against a surrounding-vehicle truth model,
plus the open-loop equilibrium statistics protocol and planner-comparison batches.

Each cycle of an episode runs in one pass:
  1. yield the world to the driver: the episode is a generator that yields
     the truth state, its beliefs, cfg and its root, and is sent back the
     CycleResult that plan_cycle gives for them;
  2. execute: one decision period of substeps against the truth world, with
     every vehicle's (a, delta) for the window in one (substeps, V, 2) array,
     the chosen rollout's ego inputs copied in and truth_sv_accel filling the
     others substep by substep;
  3. observe: unless the window ended the episode, the partner's belief is
     updated from its column of that array against the two traces that its
     column of the game predicted.

_drive runs such a job, an episode or a Monte Carlo instance, to its end and
is the module's one caller of plan_cycle.

The episode's record is an EpisodeTrace: a CycleRecord per planning cycle, a
step row per vehicle and substep (the state it starts the substep in and the
command it executes, fields named by STEP_FIELDS), and the states of every
vehicle after the substep that ended the episode. write_trace_jsonl writes it
as JSON lines, one record per line, each naming its kind in its "record"
field: "cycle", "step", and one closing "end" record with the outcome and
those end states. Floats are written in their shortest round-trip form, so
reading the file back gives the trace's values bit for bit.

The truth model differs from the planner's rollout model on purpose: real
surrounding vehicles anticipate the ego with a constant-velocity projection and
react only once it comes laterally close, with the reaction range set by their
behavior mode (polite vehicles react to a probing ego, selfish ones only once
it is nearly on their lane). Their car following is the planner's modified IDM
(control.idm_accel) with no lateral discount.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .actions import ROOT
from .bounds import check_integer
from .control import IdmSettings, idm_accel, leader_inputs, virtual_gap_distance
from .costs import Belief, GameMatrix, update_belief
from .dynamics import rects_penetrate, step_bicycle
from .planner import CycleResult, plan_cycle
from .scenario import ScenarioConfig

__all__ = [
    "Outcome",
    "CycleRecord",
    "EpisodeTrace",
    "MonteCarloStats",
    "truth_sv_accel",
    "run_episode",
    "run_episode_batch",
    "aggregate_episodes",
    "run_monte_carlo",
    "STEP_FIELDS",
    "write_trace_jsonl",
]


class Outcome(Enum):
    SUCCESS = "success"
    COLLISION = "collision"
    TIMEOUT = "timeout"


def truth_sv_accel(states: np.ndarray, sv: np.ndarray, leader_idx: np.ndarray, ego: int,
                   v0: np.ndarray, lane_y: np.ndarray, reach: np.ndarray,
                   idm: IdmSettings, a_max: np.ndarray) -> np.ndarray:
    """Ground-truth accelerations of the surrounding vehicles sv, all at once.

    states (V, 4) holds every vehicle; leader_idx (V,) each vehicle's physical
    leader (-1 for none); v0, lane_y, reach and a_max (n,) each vehicle's
    desired speed, lane center, lateral reaction range (its mode's fraction of
    the lane width) and actuation limit. Plain car following against the
    physical leader, with kappa = 0; when the ego is level or ahead and within
    the reaction range of a vehicle's lane center, that vehicle also brakes
    for the ego's constant-velocity projection onto its lane and the more
    cautious of the two commands wins. Both are saturated by idm_accel, so
    the result lies within each vehicle's limits.
    """
    x, y, v = states[sv, 0], states[sv, 1], states[sv, 3]
    d_lead, v_lead, has_lead = leader_inputs(states.T, x, y, leader_idx[sv], 0.0)
    a = idm_accel(v, v_lead, d_lead, has_lead, v0, idm, a_max)
    ex, ey, eth, ev = states[ego]
    d_ego = virtual_gap_distance(ex, lane_y, x, y, 0.0)
    a_ego = idm_accel(v, ev * np.cos(eth), d_ego, True, v0, idm, a_max)
    reacts = (np.abs(ey - lane_y) <= reach) & (ex >= x)
    return np.where(reacts, np.minimum(a, a_ego), a)


# The fields of a step row, in order: the vehicle's state at the start of the
# substep and its command, as executed, for that substep
STEP_FIELDS = ("cycle", "t", "vehicle_id", "x", "y", "theta", "v", "a", "delta")


@dataclass
class CycleRecord:
    cycle: int
    t0: float
    beliefs: dict[str, tuple[float, float]]
    row: int
    col: int
    kind: str
    fallback_used: bool
    social_cost: float
    sequence: str
    partner_id: str | None
    nash_cells: list[tuple[int, int]]
    game: GameMatrix | None = None


@dataclass
class EpisodeTrace:
    """One episode: its outcome, a CycleRecord per planning cycle, its step
    rows (tuples of STEP_FIELDS; empty unless recorded), and end_states, each
    vehicle's (x, y, theta, v) after the substep that ended the episode, as
    plain floats keyed by vehicle id in roster order."""

    outcome: Outcome
    time_to_merge: float | None
    cycles: list[CycleRecord]
    steps: list[tuple]
    seed: int
    planner: str
    end_states: dict[str, list[float]]


def _ego_hits_anyone(states: np.ndarray, ego: int, half_len: np.ndarray,
                     half_wid: np.ndarray) -> bool:
    """Whether the ego's footprint penetrates any other vehicle's; touching does not count.

    One separating-axis test of the ego against every other vehicle at once;
    half_len and half_wid (V,) are the footprints' half dimensions.
    """
    others = np.arange(len(states)) != ego
    ex, ey, eth = states[ego, :3]
    return bool(rects_penetrate(
        ex, ey, eth, half_len[ego], half_wid[ego],
        states[others, 0], states[others, 1], states[others, 2], half_len[others],
        half_wid[others],
    ).any())


def _drive(job, cfg: ScenarioConfig, *args):
    """Run the generator job(cfg, *args) to its end, planning every
    (world, beliefs, cfg, root) it yields with plan_cycle and sending it the
    result; return what the job returns."""
    gen, res = job(cfg, *args), None
    try:
        while True:
            res = plan_cycle(*gen.send(res))
    except StopIteration as stop:
        return stop.value


def run_episode(cfg: ScenarioConfig, planner: str | None = None,
                record_steps: bool = True, record_games: bool = False) -> EpisodeTrace:
    """Plan-execute-observe loop until the ego merges, collides, or runs out of road.

    Each cycle is the one pass the module docstring lays out: plan, execute
    the first decision period of the chosen ego trajectory against the truth
    world, and update the partner's belief from that window. Fully
    deterministic for a fixed config and seed. planner, if given, replaces
    cfg.planner (the benchmark's episodes pass it).
    """
    if planner is not None:
        cfg = replace(cfg, planner=planner)
    return _drive(_episode, cfg, record_steps, record_games)


def _episode(cfg: ScenarioConfig, record_steps: bool = False, record_games: bool = False):
    """run_episode's loop as a job for _drive: yields each cycle's
    (world, beliefs, cfg, root), is sent its CycleResult, returns the
    EpisodeTrace."""
    rng = np.random.default_rng(cfg.seed)
    base = cfg.initial_world()
    states = base.states.copy()
    jitter = rng.uniform(-cfg.episode.speed_jitter, cfg.episode.speed_jitter, base.n_vehicles)
    states[:, 3] = np.maximum(states[:, 3] + jitter, 0.0)

    ids, e, V = base.ids, base.ego_index, base.n_vehicles
    dt, substeps, period = cfg.sim.dt, cfg.sim.substeps, cfg.sim.decision_period
    lanes = cfg.lanes
    sv = np.flatnonzero(np.arange(V) != e)
    v0, sv_a_max = base.v_des[sv], base.a_max[sv]
    sv_lane_y = lanes.nearest_center(base.states[sv, 1])
    frac = {"polite": cfg.episode.polite_lateral_frac,
            "selfish": cfg.episode.selfish_lateral_frac}
    sv_reach = np.array([frac[cfg.vehicles[i].mode] for i in sv]) * lanes.width
    beliefs = cfg.initial_beliefs()

    root = ROOT
    outcome, ttm = None, None   # running out of cycles is a timeout
    t = 0.0   # from the substep count, never a running sum of dt, which drifts
    cycles: list[CycleRecord] = []
    rows: list[tuple] = []

    for cycle in range(cfg.episode.max_cycles):
        world = replace(base, states=states.copy())
        res: CycleResult = yield world, beliefs, cfg, root
        cycles.append(CycleRecord(
            cycle=cycle, t0=t,
            beliefs={vid: (b.p_assert, b.p_yield) for vid, b in beliefs.items()},
            row=res.row, col=res.col, kind=res.kind, fallback_used=res.fallback_used,
            social_cost=float(res.game.sv_weighted[res.row, res.col] + res.game.ev[res.row, res.col]),
            sequence=str(res.chosen_sequence), partner_id=res.partner_id,
            nash_cells=[eq.cell() for eq in res.nash_cells],
            game=res.game if record_games else None,
        ))

        # (a, delta) of every vehicle at each substep of the window
        rollout = res.rollout
        cmd = np.zeros((substeps, V, 2))
        cmd[:, e] = rollout.column_inputs(res.col, e)[res.row, :substeps]
        leader_idx = world.leader_indices(include_ego=False)

        for s in range(substeps):
            cmd[s, sv, 0] = truth_sv_accel(states, sv, leader_idx, e, v0, sv_lane_y, sv_reach,
                                           cfg.model.idm, sv_a_max)
            if record_steps:
                rows.extend((cycle, t, vid, *x, *u)
                            for vid, x, u in zip(ids, states.tolist(), cmd[s].tolist()))
            states = np.column_stack(step_bicycle(*states.T, *cmd[s].T, dt, base.wheelbase))
            t = (cycle * substeps + s + 1) / substeps * period
            if _ego_hits_anyone(states, e, base.half_len, base.half_wid):
                outcome = Outcome.COLLISION
            elif abs(states[e, 1] - lanes.target_center) <= cfg.episode.success_lateral_tol \
                    and abs(states[e, 2]) <= cfg.episode.success_heading_tol:
                outcome, ttm = Outcome.SUCCESS, t
            elif states[e, 0] > lanes.merge_end:
                outcome = Outcome.TIMEOUT
            if outcome is not None:
                break
        if outcome is not None:
            break
        root = res.chosen_sequence[0]
        p = rollout.partners[res.col]
        if p >= 0:
            # the partner's observed accelerations against the traces its column predicted
            pred_assert, pred_yield = rollout.column_inputs(res.col, p)[:, :substeps, 0]
            b = beliefs[ids[p]]
            pa, py = update_belief(b.p_assert, b.p_yield, cmd[:, p, 0], pred_assert, pred_yield,
                                   cfg.beliefs.sigma_accel)
            beliefs[ids[p]] = Belief(float(pa), float(py))

    return EpisodeTrace(outcome=outcome or Outcome.TIMEOUT, time_to_merge=ttm, cycles=cycles,
                        steps=rows, seed=cfg.seed, planner=cfg.planner,
                        end_states=dict(zip(ids, states.tolist())))


# --- batches -------------------------------------------------------------------

def _map_seeded(job, cfg: ScenarioConfig, seed: int, n: int, workers: int) -> list:
    """_drive(job, c) for cfg with each of n seeds spawned from seed, in seed
    order, across worker processes when workers > 1 (0 and 1 run serially)."""
    check_integer("batch", n=n, workers=workers)
    if n < 1:
        raise ValueError(f"need at least one instance, got n = {n}")
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    cfgs = [replace(cfg, seed=int(s.generate_state(1)[0] % (2 ** 31))) for s in
            np.random.SeedSequence(seed).spawn(n)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # only a pool needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_drive, [job] * n, cfgs,
                                 chunksize=max(1, n // (workers * 8))))
    return [_drive(job, c) for c in cfgs]


def run_episode_batch(cfg: ScenarioConfig, n: int, workers: int = 0) -> list[EpisodeTrace]:
    """n independent episodes of cfg.planner, with per-episode seeds spawned
    from cfg.seed, each traced without its steps."""
    return _map_seeded(_episode, cfg, cfg.seed, n, workers)


def aggregate_episodes(traces: list[EpisodeTrace]) -> dict:
    n = len(traces)
    if n < 1:
        raise ValueError("need at least one episode")
    succ = [t for t in traces if t.outcome == Outcome.SUCCESS]
    coll = [t for t in traces if t.outcome == Outcome.COLLISION]
    out = {
        "episodes": n,
        "success_rate": len(succ) / n,
        "collision_rate": len(coll) / n,
        "timeout_rate": (n - len(succ) - len(coll)) / n,
        "mean_time_to_merge": float(np.mean([t.time_to_merge for t in succ])) if succ else None,
    }
    return out


# --- open-loop Monte Carlo protocol ---------------------------------------------

@dataclass
class MonteCarloStats:
    n: int
    seed: int
    resampled: int
    nash_fraction: float
    selected_matches_se_ev: float
    selected_matches_se_sv: float
    selected_matches_any_se: float
    yield_fraction_ne: float
    yield_fraction_se_ev: float
    yield_fraction_se_sv: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "resampled": self.resampled,
            "nash_fraction": self.nash_fraction,
            "selected_matches": {
                "se_ev": self.selected_matches_se_ev,
                "se_sv": self.selected_matches_se_sv,
                "any": self.selected_matches_any_se,
            },
            "yield_fraction": {
                "ne": self.yield_fraction_ne,
                "se_ev": self.yield_fraction_se_ev,
                "se_sv": self.yield_fraction_se_sv,
            },
        }


# Draws of a perturbed initial state before an instance is given up: the jitter
# box of the ego then lies (almost) wholly inside another vehicle.
MAX_INSTANCE_DRAWS = 1000


def _mc_instance(cfg: ScenarioConfig):
    """One open-loop instance as a job for _drive: yields the one perturbed
    world to plan, is sent its CycleResult, returns the instance's record."""
    rng = np.random.default_rng(cfg.seed)
    base = cfg.initial_world()
    e = base.ego_index
    for draws in range(1, MAX_INSTANCE_DRAWS + 1):
        states = base.states.copy()
        states[e, 0] += rng.uniform(-cfg.montecarlo.position_jitter, cfg.montecarlo.position_jitter)
        states[e, 3] = max(0.0, states[e, 3] + rng.uniform(-cfg.montecarlo.speed_jitter,
                                                           cfg.montecarlo.speed_jitter))
        if not _ego_hits_anyone(states, e, base.half_len, base.half_wid):
            break
    else:
        raise ValueError(f"Monte Carlo instance seed {cfg.seed}: the ego overlapped another "
                         f"vehicle in all {MAX_INSTANCE_DRAWS} draws of its initial state")
    resampled = draws - 1
    world = replace(base, states=states)
    res = yield world, cfg.initial_beliefs(), cfg, ROOT
    has_nash = len(res.nash_cells) > 0
    sel = (res.row, res.col)
    return {
        "resampled": resampled,
        "has_nash": has_nash,
        "selected": sel,
        "se_ev": res.se_ev.cell(),
        "se_sv": res.se_sv.cell(),
    }


def run_monte_carlo(cfg: ScenarioConfig, n: int, seed: int | None = None,
                    workers: int = 0) -> MonteCarloStats:
    """Open-loop protocol over n instances: perturb the ego's initial
    longitudinal position and speed, build one cost matrix per instance, and
    compare the equilibrium concepts. Every instance plans with the "nash"
    planner, whatever cfg.planner is. Initial states that overlap are
    resampled and counted."""
    seed = cfg.seed if seed is None else seed
    results = _map_seeded(_mc_instance, replace(cfg, planner="nash"), seed, n, workers)

    with_nash = [r for r in results if r["has_nash"]]
    def frac(pred, pool):
        return sum(1 for r in pool if pred(r)) / len(pool) if pool else 0.0

    return MonteCarloStats(
        n=n, seed=seed,
        resampled=sum(r["resampled"] for r in results),
        nash_fraction=len(with_nash) / n,
        selected_matches_se_ev=frac(lambda r: r["selected"] == r["se_ev"], with_nash),
        selected_matches_se_sv=frac(lambda r: r["selected"] == r["se_sv"], with_nash),
        selected_matches_any_se=frac(
            lambda r: r["selected"] in (r["se_ev"], r["se_sv"]), with_nash),
        yield_fraction_ne=frac(lambda r: r["selected"][0] == 1, with_nash),
        yield_fraction_se_ev=frac(lambda r: r["se_ev"][0] == 1, results),
        yield_fraction_se_sv=frac(lambda r: r["se_sv"][0] == 1, results),
    )


# --- trace output -----------------------------------------------------------------

def write_trace_jsonl(trace: EpisodeTrace, path) -> None:
    """Write trace as JSON lines: a "cycle" record per CycleRecord (every
    field but game), a "step" record per step row, and one "end" record with
    the outcome, time to merge, planner, seed and the end states."""
    import json   # only a trace file needs it

    state_fields = STEP_FIELDS[3:7]
    with open(path, "w") as fh:
        for rec in trace.cycles:
            fields = {k: v for k, v in vars(rec).items() if k != "game"}
            fh.write(json.dumps({"record": "cycle", **fields}) + "\n")
        for row in trace.steps:
            fh.write(json.dumps({"record": "step", **dict(zip(STEP_FIELDS, row))}) + "\n")
        fh.write(json.dumps({
            "record": "end", "outcome": trace.outcome.value, "time_to_merge": trace.time_to_merge,
            "planner": trace.planner, "seed": trace.seed,
            "states": {vid: dict(zip(state_fields, x)) for vid, x in trace.end_states.items()},
        }) + "\n")
