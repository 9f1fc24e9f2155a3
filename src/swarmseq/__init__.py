"""Multi-robot behavior sequencing with finite-time barrier QP filters."""

from .barriers import (
    Collision,
    Connectivity,
    FcbfParams,
    KeepWithin,
    ObstacleAvoid,
    RowBlock,
    class_k,
    constraint_row,
    settling_time_bound,
    team_settling_bound,
)
from .geometry import (
    Domain,
    InteractionGraph,
    Obstacle,
    is_cycle_graph,
    is_spanning_subgraph,
    proximity_graph,
    voronoi_cell,
)
from .mission import BehaviorSpec, MissionPlan, builtin_scenario, parse_mission, serialize_mission, validate
from .qp import QpProblem, QpSolution, RowLayout, solve
from .sim import DelaySpec, RunRecord, SimConfig, run, write_outputs

__version__ = "0.1.0"
