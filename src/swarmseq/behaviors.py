"""Coordinated behavior controllers, their graph requirements, and completion tests.

Each behavior maps a robot's own state plus neighbor states to a nominal
velocity command for a single integrator. The commands here are nominal
only: the barrier QP may override them, and the simulator saturates them to
the speed limit (scatter in particular grows without bound otherwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Domain,
    GeometryError,
    InteractionGraph,
    induced_subgraph_is_cycle,
    is_cycle_graph,
    voronoi_centroids,
)
from .geometry import RobotState


class BehaviorError(ValueError):
    """Behavior evaluated against inconsistent inputs (missing neighbor, bad graph)."""


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _edge_key(i, j):
    return (min(i, j), max(i, j))


# --- behavior parameter variants --------------------------------------------


@dataclass(frozen=True)
class Rendezvous:
    pass


@dataclass(frozen=True)
class Scatter:
    pass


@dataclass(frozen=True)
class Formation:
    """Maintain prescribed inter-robot distances on the required edges."""

    distances: dict = field(default_factory=dict)  # (i, j) sorted tuple -> meters

    def __post_init__(self):
        object.__setattr__(
            self, "distances", {_edge_key(*k): float(v) for k, v in self.distances.items()}
        )

    def distance(self, i, j):
        key = _edge_key(i, j)
        if key not in self.distances:
            raise BehaviorError(f"no target distance for edge {key}")
        return self.distances[key]


@dataclass(frozen=True)
class LeaderFollower:
    """Formation kept by followers while the leader steers to a goal.

    The leader runs pure goal seeking; followers alone maintain the shape.
    """

    leader: int
    goal: tuple
    gain: float
    distances: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "goal", (float(self.goal[0]), float(self.goal[1])))
        object.__setattr__(
            self, "distances", {_edge_key(*k): float(v) for k, v in self.distances.items()}
        )
        if self.gain <= 0:
            raise BehaviorError("leader gain must be positive")

    def distance(self, i, j):
        key = _edge_key(i, j)
        if key not in self.distances:
            raise BehaviorError(f"no target distance for edge {key}")
        return self.distances[key]


@dataclass(frozen=True)
class CyclicPursuit:
    """Chase rotated neighbor offsets around a cycle graph."""

    angle: float


@dataclass(frozen=True)
class Lattice:
    """Hold a common spacing against all robots currently in sensing range."""

    spacing: float

    def __post_init__(self):
        if self.spacing <= 0:
            raise BehaviorError("lattice spacing must be positive")


@dataclass(frozen=True)
class Coverage:
    """Move to the centroid of the robot's Voronoi cell in the given domain."""

    domain: Domain


@dataclass(frozen=True)
class GoToGoal:
    """Proportional drive to per-robot goals; robots without a goal hold position."""

    goals: dict = field(default_factory=dict)  # robot -> (x, y)
    gain: float = 1.0

    def __post_init__(self):
        object.__setattr__(
            self,
            "goals",
            {int(i): (float(g[0]), float(g[1])) for i, g in self.goals.items()},
        )
        if self.gain <= 0:
            raise BehaviorError("goal gain must be positive")


@dataclass(frozen=True)
class Containment:
    """Rotate around cycle neighbors while the ring drifts toward a goal point."""

    angle: float
    goal: tuple
    gain: float

    def __post_init__(self):
        object.__setattr__(self, "goal", (float(self.goal[0]), float(self.goal[1])))
        if self.gain <= 0:
            raise BehaviorError("containment gain must be positive")


@dataclass(frozen=True)
class CompositeGroup:
    robots: tuple
    controller: object
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "robots", tuple(sorted(int(r) for r in self.robots)))
        object.__setattr__(self, "edges", tuple(_edge_key(*e) for e in self.edges))


@dataclass(frozen=True)
class Composite:
    """Different controllers on disjoint robot subsets within one behavior step."""

    groups: tuple

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))

    def group_of(self, robot):
        for g in self.groups:
            if robot in g.robots:
                return g
        raise BehaviorError(f"robot {robot} belongs to no composite group")


# --- completion predicates ---------------------------------------------------


@dataclass(frozen=True)
class ControlNormBelow:
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise BehaviorError("completion threshold must be positive")


@dataclass(frozen=True)
class ElapsedTime:
    duration: float

    def __post_init__(self):
        if self.duration <= 0:
            raise BehaviorError("completion duration must be positive")


@dataclass(frozen=True)
class GoalReached:
    goal: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "goal", (float(self.goal[0]), float(self.goal[1])))
        if self.radius <= 0:
            raise BehaviorError("completion radius must be positive")


def is_complete(pred, nominal_u, elapsed, state):
    if isinstance(pred, ControlNormBelow):
        return float(np.linalg.norm(nominal_u)) < pred.epsilon
    if isinstance(pred, ElapsedTime):
        return elapsed >= pred.duration
    if isinstance(pred, GoalReached):
        return float(np.linalg.norm(state.position - np.asarray(pred.goal))) <= pred.radius
    raise BehaviorError(f"unknown completion predicate {pred!r}")


# --- control laws ------------------------------------------------------------


def _neighbor_positions(neighbor_states, required):
    by_id = {s.id: s.position for s in neighbor_states}
    missing = [j for j in required if j not in by_id]
    if missing:
        raise BehaviorError(f"missing neighbor state for robots {missing}")
    return [(j, by_id[j]) for j in required]


def _formation_sum(me, my_pos, pairs, dist_of):
    u = np.zeros(2)
    for j, pj in pairs:
        diff = my_pos - pj
        theta = dist_of(me, j)
        u += (float(diff @ diff) - theta * theta) * (pj - my_pos)
    return u


def nominal_control(behavior, me, my_state, neighbor_states, required_neighbors):
    """Nominal velocity command for robot ``me`` under the active behavior.

    ``required_neighbors`` are the neighbors the behavior's graph prescribes;
    lattice and coverage instead consume every state handed to them (their
    interaction set is whoever is currently in range / in the same cell
    region, which the caller supplies).
    """
    my_pos = my_state.position

    if isinstance(behavior, Rendezvous):
        pairs = _neighbor_positions(neighbor_states, required_neighbors)
        return sum((pj - my_pos for _, pj in pairs), np.zeros(2))

    if isinstance(behavior, Scatter):
        pairs = _neighbor_positions(neighbor_states, required_neighbors)
        return sum((my_pos - pj for _, pj in pairs), np.zeros(2))

    if isinstance(behavior, Formation):
        pairs = _neighbor_positions(neighbor_states, required_neighbors)
        return _formation_sum(me, my_pos, pairs, behavior.distance)

    if isinstance(behavior, LeaderFollower):
        pairs = _neighbor_positions(neighbor_states, required_neighbors)
        if me == behavior.leader:
            return behavior.gain * (np.asarray(behavior.goal) - my_pos)
        return _formation_sum(me, my_pos, pairs, behavior.distance)

    if isinstance(behavior, CyclicPursuit):
        pairs = _neighbor_positions(neighbor_states, required_neighbors)
        rot = rotation(behavior.angle)
        return sum((rot @ (pj - my_pos) for _, pj in pairs), np.zeros(2))

    if isinstance(behavior, Lattice):
        u = np.zeros(2)
        theta2 = behavior.spacing**2
        for s in neighbor_states:
            diff = my_pos - s.position
            u += (float(diff @ diff) - theta2) * (s.position - my_pos)
        return u

    if isinstance(behavior, Coverage):
        centroid = _coverage_centroid(behavior.domain, my_state, neighbor_states)
        return centroid - my_pos

    if isinstance(behavior, GoToGoal):
        goal = behavior.goals.get(me)
        if goal is None:
            return np.zeros(2)
        return behavior.gain * (np.asarray(goal) - my_pos)

    if isinstance(behavior, Containment):
        pairs = _neighbor_positions(neighbor_states, required_neighbors)
        rot = rotation(behavior.angle)
        u = sum((rot @ (pj - my_pos) for _, pj in pairs), np.zeros(2))
        return u + behavior.gain * (np.asarray(behavior.goal) - my_pos)

    if isinstance(behavior, Composite):
        group = behavior.group_of(me)
        group_required = [j for j in required_neighbors if j in group.robots]
        group_states = [s for s in neighbor_states if s.id in group.robots]
        return nominal_control(group.controller, me, my_state, group_states, group_required)

    raise BehaviorError(f"unknown behavior {behavior!r}")


def _coverage_centroid(domain, my_state, neighbor_states):
    """Centroid of my cell among the cell-sharing robots, clipped to the domain.

    Positions are nudged into the rectangle first: transient boundary
    overshoot from the safety filter must not kill the tessellation.
    """
    eps = 1e-9

    def clamp(s):
        x = min(max(s.position[0], domain.xmin + eps), domain.xmax - eps)
        y = min(max(s.position[1], domain.ymin + eps), domain.ymax - eps)
        return RobotState(s.id, np.array([x, y]))

    sites = [clamp(my_state)] + [clamp(s) for s in neighbor_states]
    centroids = voronoi_centroids(sites, domain)
    return centroids[0]


# --- requirement validation ---------------------------------------------------


def _triangle_violations(graph, dist_of, label):
    out = []
    verts = range(1, graph.n + 1)
    for i in verts:
        for j in verts:
            for k in verts:
                if not (i < j < k):
                    continue
                if graph.has_edge(i, j) and graph.has_edge(j, k) and graph.has_edge(i, k):
                    a, b, c = dist_of(i, j), dist_of(j, k), dist_of(i, k)
                    if a > b + c or b > a + c or c > a + b:
                        out.append(
                            f"{label}: triangle inequality fails on ({i},{j},{k}): "
                            f"{a:g}, {b:g}, {c:g}"
                        )
    return out


def _distance_violations(graph, distances, delta, label):
    out = []
    missing = [e for e in graph.sorted_edges() if e not in distances]
    if missing:
        out.append(f"{label}: required edges without target distance: {missing}")
        return out
    for e, theta in sorted(distances.items()):
        if theta <= 0:
            out.append(f"{label}: nonpositive distance {theta:g} on edge {e}")
        elif theta > delta:
            out.append(f"{label}: distance {theta:g} on edge {e} exceeds sensing range {delta:g}")

    def dist_of(i, j):
        return distances[_edge_key(i, j)]

    out.extend(_triangle_violations(graph, dist_of, label))
    return out


def validate_requirements(behavior, required_graph, delta):
    """Structural feasibility checks for one behavior; violations are data."""
    out = []
    if isinstance(behavior, CyclicPursuit):
        try:
            if not is_cycle_graph(required_graph):
                out.append("cyclic pursuit: required graph is not a cycle")
        except GeometryError as exc:
            out.append(f"cyclic pursuit: {exc}")
    elif isinstance(behavior, Containment):
        try:
            if not is_cycle_graph(required_graph):
                out.append("containment: required graph is not a cycle")
        except GeometryError as exc:
            out.append(f"containment: {exc}")
    elif isinstance(behavior, Formation):
        out.extend(_distance_violations(required_graph, behavior.distances, delta, "formation"))
    elif isinstance(behavior, LeaderFollower):
        out.extend(
            _distance_violations(required_graph, behavior.distances, delta, "leader-follower")
        )
        if not (1 <= behavior.leader <= required_graph.n):
            out.append(f"leader-follower: leader index {behavior.leader} out of range")
    elif isinstance(behavior, Lattice):
        if behavior.spacing > delta:
            out.append(
                f"lattice: spacing {behavior.spacing:g} exceeds sensing range {delta:g}"
            )
    elif isinstance(behavior, Composite):
        out.extend(_composite_violations(behavior, required_graph, delta))
    return out


def _composite_violations(behavior, required_graph, delta):
    out = []
    seen = set()
    for g in behavior.groups:
        overlap = seen & set(g.robots)
        if overlap:
            out.append(f"composite: robots {sorted(overlap)} appear in more than one group")
        seen |= set(g.robots)
    edge_union = set()
    for g in behavior.groups:
        for a, b in g.edges:
            if a not in g.robots or b not in g.robots:
                out.append(f"composite: group edge ({a},{b}) leaves its group")
        edge_union |= set(g.edges)
    if edge_union != set(required_graph.edges):
        out.append(
            "composite: union of group edges does not match the required graph"
        )
    for g in behavior.groups:
        ctrl = g.controller
        if isinstance(ctrl, (CyclicPursuit, Containment)):
            label = "cyclic pursuit" if isinstance(ctrl, CyclicPursuit) else "containment"
            try:
                if not induced_subgraph_is_cycle(required_graph, g.robots):
                    out.append(f"composite {label}: group {g.robots} edges are not a cycle")
            except GeometryError as exc:
                out.append(f"composite {label}: {exc}")
        elif isinstance(ctrl, (Formation, LeaderFollower)):
            label = "formation" if isinstance(ctrl, Formation) else "leader-follower"
            try:
                sub = InteractionGraph.from_edges(required_graph.n, g.edges)
            except GeometryError as exc:
                out.append(f"composite {label}: {exc}")
                continue
            out.extend(_distance_violations(sub, ctrl.distances, delta, f"composite {label}"))
        elif isinstance(ctrl, Lattice):
            if ctrl.spacing > delta:
                out.append(f"composite lattice: spacing {ctrl.spacing:g} exceeds {delta:g}")
        elif isinstance(ctrl, Composite):
            out.append("composite: nested composites are not supported")
    return out
