"""A world's gap table read back as vehicle ids, so that gap-topology tests
state their expected bounds by name."""

from mergegame.actions import GapChoice


def gap_ids(world):
    """{GapChoice: (front id, rear id)} of world.resolve_gaps on the
    planner's leader chain, None where a bound is missing; the rear id is the
    gap's interaction partner."""
    table = world.resolve_gaps(world.leader_indices())
    return {g: tuple(world.ids[v] if v >= 0 else None for v in table[g].tolist())
            for g in GapChoice}

