import numpy as np
import pytest

from mergegame.actions import DecisionSequence, EgoDecision, GapChoice, LateralDecision
from mergegame.dynamics import VehicleParams
from mergegame.scenario import packed_lane_scenario
from mergegame.world import LaneGeometry, WorldSnapshot

from helpers import gap_ids

G0, G1, G2 = GapChoice.GAP_0, GapChoice.GAP_1, GapChoice.GAP_2
LK, LC = LateralDecision.LANE_KEEP, LateralDecision.LEFT_CHANGE


def make_world(rows, ego_id="ego"):
    """rows: list of (id, x, y, v)."""
    ids = tuple(r[0] for r in rows)
    states = np.array([[r[1], r[2], 0.0, r[3]] for r in rows])
    return WorldSnapshot(
        ids=ids, states=states,
        params=tuple(VehicleParams() for _ in rows),
        v_des=np.full(len(rows), 10.0),
        lanes=LaneGeometry(),
        ego_index=ids.index(ego_id),
    )


CANONICAL = [
    ("ego", 0.0, 0.0, 8.0),
    ("sv0", 20.0, 0.0, 5.0),   # merge-lane leader
    ("sv1", 8.0, 3.5, 8.0),    # nearest ahead on target lane
    ("sv2", -4.0, 3.5, 8.0),   # nearest behind
    ("sv3", -16.0, 3.5, 8.0),
]


def test_gap_topology_canonical():
    gaps = gap_ids(make_world(CANONICAL))
    assert gaps == {G0: ("sv0", None), G1: (None, "sv1"), G2: ("sv1", "sv2")}


def test_gap_topology_two_ahead():
    rows = [("ego", 0.0, 0.0, 8.0), ("a", 10.0, 3.5, 8.0), ("b", 25.0, 3.5, 8.0),
            ("c", -9.0, 3.5, 8.0)]
    assert gap_ids(make_world(rows)) == {G0: (None, None), G1: ("b", "a"), G2: ("a", "c")}


def test_gap_topology_nobody_ahead():
    rows = [("ego", 0.0, 0.0, 8.0), ("a", -6.0, 3.5, 8.0), ("b", -20.0, 3.5, 8.0)]
    gaps = gap_ids(make_world(rows))
    assert gaps[G1] == (None, "a")
    assert gaps[G2] == ("a", "b")


def test_gap_topology_empty_target_lane():
    rows = [("ego", 0.0, 0.0, 8.0), ("sv0", 15.0, 0.0, 5.0)]
    gaps = gap_ids(make_world(rows))
    assert gaps[G1] == gaps[G2] == (None, None)


def test_gap_table_holds_vehicle_indices():
    world = make_world(CANONICAL)
    table = world.resolve_gaps(world.leader_indices())
    sv0, sv1, sv2 = (world.index_of(v) for v in ("sv0", "sv1", "sv2"))
    assert table.shape == (3, 2) and table.dtype == np.intp
    assert table.tolist() == [[sv0, -1], [-1, sv1], [sv1, sv2]]


def test_merged_ego_follows_target_lane():
    rows = [("ego", 0.0, 3.5, 8.0), ("a", 12.0, 3.5, 8.0), ("b", -10.0, 3.5, 8.0)]
    assert gap_ids(make_world(rows))[G0] == ("a", None)


def test_leader_indices():
    w = make_world(CANONICAL)
    leaders = w.leader_indices()
    ids = list(w.ids)
    assert leaders[ids.index("ego")] == ids.index("sv0")
    assert leaders[ids.index("sv2")] == ids.index("sv1")
    assert leaders[ids.index("sv3")] == ids.index("sv2")
    assert leaders[ids.index("sv1")] == -1
    assert leaders[ids.index("sv0")] == -1


def test_leader_indices_can_exclude_ego():
    rows = [("ego", 5.0, 0.0, 8.0), ("rear", -10.0, 0.0, 8.0), ("front", 30.0, 0.0, 8.0)]
    w = make_world(rows)
    with_ego = w.leader_indices(include_ego=True)
    without = w.leader_indices(include_ego=False)
    assert with_ego[1] == 0       # rear vehicle follows the ego
    assert without[1] == 2        # or the front vehicle when the ego is invisible


def brute_force_leaders(world, include_ego):
    """The nearest same-lane vehicle strictly ahead; the lowest index wins a tie."""
    n = world.n_vehicles
    centers = [world.lanes.nearest_center(float(world.states[k, 1])) for k in range(n)]
    out = np.full(n, -1, dtype=int)
    for i in range(n):
        best, best_dx = -1, np.inf
        for j in range(n):
            if j == i or (not include_ego and j == world.ego_index) or centers[j] != centers[i]:
                continue
            dx = world.states[j, 0] - world.states[i, 0]
            if 0.0 < dx < best_dx:
                best, best_dx = j, dx
        out[i] = best
    return out


@pytest.mark.parametrize("include_ego", [True, False])
def test_leader_indices_match_brute_force(include_ego):
    packed = packed_lane_scenario().initial_world()
    # equal-dx ties on both lanes; a vehicle exactly between the two lane
    # centers belongs to the current lane; a level vehicle is never a leader
    ties = make_world([
        ("a", 10.0, 3.5, 8.0), ("b", 10.0, 3.5, 8.0), ("ego", 0.0, 0.0, 8.0),
        ("c", 10.0, 0.0, 8.0), ("mid", 10.0, 1.75, 8.0), ("d", 0.0, 3.5, 8.0),
        ("e", -5.0, 1.75, 8.0), ("f", 0.0, 0.0, 8.0),
    ])
    for world in (packed, ties):
        got = world.leader_indices(include_ego=include_ego)
        assert got.dtype == brute_force_leaders(world, include_ego).dtype
        assert np.array_equal(got, brute_force_leaders(world, include_ego))
    leaders = ties.leader_indices(include_ego=include_ego)
    ids = list(ties.ids)
    assert leaders[ids.index("d")] == ids.index("a")
    assert leaders[ids.index("f")] == ids.index("c")
    assert leaders[ids.index("e")] == (ids.index("ego") if include_ego else ids.index("f"))


def test_interaction_partner_last_gap_rule():
    # the partner is the rear bound of the gap of the last step that targets a
    # lane-change gap; a sequence that keeps to the current lane has none
    gaps = gap_ids(make_world(CANONICAL))
    seq = DecisionSequence((EgoDecision(G1, LK), EgoDecision(G2, LC), EgoDecision(G2, LC)))
    assert seq.partner_gap == G2 and gaps[seq.partner_gap][1] == "sv2"
    seq2 = DecisionSequence((EgoDecision(G2, LC), EgoDecision(G1, LC), EgoDecision(G0, LK)))
    assert seq2.partner_gap == G1 and gaps[seq2.partner_gap][1] == "sv1"
    seq3 = DecisionSequence((EgoDecision(G0, LK),) * 3)
    assert seq3.partner_gap is None


def test_probe_line_between_centers():
    lanes = LaneGeometry(current_center=0.0, target_center=3.5, width=3.5)
    assert lanes.probe_line == pytest.approx(1.75)
    assert lanes.nearest_center(1.0) == 0.0
    assert lanes.nearest_center(2.0) == 3.5


def scalar_nearest_center(lanes, y):
    if abs(y - lanes.current_center) <= abs(y - lanes.target_center):
        return lanes.current_center
    return lanes.target_center


@pytest.mark.parametrize("current, target", [(0.0, 3.5), (3.5, 0.0), (-1.0, 2.0)])
def test_nearest_center_on_arrays_is_the_scalar_rule(current, target):
    # a tie, at the probe line, goes to the current lane
    lanes = LaneGeometry(current_center=current, target_center=target)
    probe = lanes.probe_line
    assert abs(probe - current) == abs(probe - target)
    y = np.concatenate(([probe, np.nextafter(probe, -np.inf), np.nextafter(probe, np.inf),
                         current, target, -np.inf, np.inf],
                        np.random.default_rng(0).uniform(-10.0, 10.0, 200)))
    got = lanes.nearest_center(y)
    assert got.shape == y.shape
    assert got.tolist() == [scalar_nearest_center(lanes, yi) for yi in y.tolist()]
    assert got[0] == current
    assert lanes.nearest_center(probe) == current


def test_world_validation():
    with pytest.raises(ValueError):
        WorldSnapshot(ids=("a",), states=np.zeros((2, 4)),
                      params=(VehicleParams(),), v_des=np.zeros(1), lanes=LaneGeometry())


def test_world_index_is_not_a_constructor_argument():
    # the id index is built from ids; a passed one would be dropped unseen
    args = dict(ids=("a", "b"), states=np.zeros((2, 4)), params=(VehicleParams(),) * 2,
                v_des=np.ones(2), lanes=LaneGeometry())
    assert WorldSnapshot(**args).index_of("b") == 1
    with pytest.raises(TypeError):
        WorldSnapshot(**args, _index={"a": 1, "b": 0})
