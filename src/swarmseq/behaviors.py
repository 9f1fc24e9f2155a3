"""Coordinated behavior controllers, their graph requirements, and completion tests.

Each controller class owns its behavior: its YAML name (``yaml``), what its
law reads besides the robot's own position (``reads``), its control law
(``control``) and its requirement checks (``violations``). Each field's
``metadata`` gives its YAML form: a converter ``kind`` and, where it differs
from the field's name, its ``key`` (``mission`` holds the converters). A
field with a default may be left out of the YAML.

A law maps a robot's own position plus its partners' ids and positions, in
ascending id order, to a nominal velocity command for a single integrator.
The commands here are nominal only: the barrier QP may override them, and
the simulator saturates them to the speed limit (scatter in particular grows
without bound otherwise). Each completion predicate owns ``done``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Domain,
    GeometryError,
    InteractionGraph,
    RobotState,
    induced_subgraph_is_cycle,
    voronoi_centroids,
)

# what a controller's law reads: the neighbors its behavior's graph
# prescribes, every robot in sensing range, or every robot whose position
# the robot knows (sensed, oracle or cached message)
REQUIRED = "required"
IN_RANGE = "in_range"
KNOWN = "known"


class BehaviorError(ValueError):
    """Behavior evaluated against inconsistent inputs (missing neighbor, bad graph)."""


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _edge_key(i, j):
    return (min(i, j), max(i, j))


def _yaml(kind, key=None, **kw):
    """A field whose YAML form is converter ``kind`` under ``key`` (default: the field's name)."""
    return field(metadata={"kind": kind, "key": key}, **kw)


def nominal_control(controller, me, x, ids, positions):
    """Nominal velocity command for robot ``me`` at ``x`` under ``controller``,
    given the partners it reads (``controller.reads(me)``) as ids and
    positions in ascending id order."""
    return controller.control(me, x, ids, positions)


# --- controllers --------------------------------------------------------------


class Controller:
    """A behavior's controller: its law reads the required neighbors unless
    it says otherwise, and it has no requirements beyond its graph."""

    yaml = ""

    @property
    def label(self):
        return self.yaml.replace("_", " ")

    def reads(self, me):
        return REQUIRED

    def violations(self, graph, robots, delta):
        """Structural feasibility checks on the required ``graph`` of the
        ``robots`` running this controller; violations are data."""
        return []


@dataclass(frozen=True)
class Rendezvous(Controller):
    yaml = "rendezvous"

    def control(self, me, x, ids, positions):
        return sum((pj - x for pj in positions), np.zeros(2))


@dataclass(frozen=True)
class Scatter(Controller):
    yaml = "scatter"

    def control(self, me, x, ids, positions):
        return sum((x - pj for pj in positions), np.zeros(2))


class _Shape(Controller):
    """Prescribed inter-robot distances on the required edges, and the
    formation law that holds them."""

    def _key_distances(self):
        object.__setattr__(
            self, "distances", {_edge_key(*k): float(v) for k, v in self.distances.items()}
        )

    def distance(self, i, j):
        key = _edge_key(i, j)
        if key not in self.distances:
            raise BehaviorError(f"no target distance for edge {key}")
        return self.distances[key]

    def control(self, me, x, ids, positions):
        u = np.zeros(2)
        for j, pj in zip(ids, positions):
            diff = x - pj
            theta = self.distance(me, j)
            u += (float(diff @ diff) - theta * theta) * (pj - x)
        return u

    def violations(self, graph, robots, delta):
        label = self.label
        missing = [e for e in graph.sorted_edges() if e not in self.distances]
        if missing:
            return [f"{label}: required edges without target distance: {missing}"]
        out = []
        for e, theta in sorted(self.distances.items()):
            if theta <= 0:
                out.append(f"{label}: nonpositive distance {theta:g} on edge {e}")
            elif theta > delta:
                out.append(f"{label}: distance {theta:g} on edge {e} exceeds sensing range {delta:g}")
        verts = range(1, graph.n + 1)
        for i in verts:
            for j in verts:
                for k in verts:
                    if not (i < j < k):
                        continue
                    if graph.has_edge(i, j) and graph.has_edge(j, k) and graph.has_edge(i, k):
                        a, b, c = self.distance(i, j), self.distance(j, k), self.distance(i, k)
                        if a > b + c or b > a + c or c > a + b:
                            out.append(
                                f"{label}: triangle inequality fails on ({i},{j},{k}): "
                                f"{a:g}, {b:g}, {c:g}"
                            )
        return out


@dataclass(frozen=True)
class Formation(_Shape):
    """Maintain prescribed inter-robot distances on the required edges."""

    yaml = "formation"
    distances: dict = _yaml("distances")  # (i, j) sorted tuple -> meters

    def __post_init__(self):
        self._key_distances()


@dataclass(frozen=True)
class LeaderFollower(_Shape):
    """Formation kept by followers while the leader steers to a goal.

    The leader runs pure goal seeking; followers alone maintain the shape.
    """

    yaml = "leader_follower"
    label = "leader-follower"
    leader: int = _yaml("int")
    goal: tuple = _yaml("vec")
    distances: dict = _yaml("distances")
    gain: float = _yaml("num", default=1.0)

    def __post_init__(self):
        object.__setattr__(self, "goal", (float(self.goal[0]), float(self.goal[1])))
        self._key_distances()
        if self.gain <= 0:
            raise BehaviorError("leader gain must be positive")

    def control(self, me, x, ids, positions):
        if me == self.leader:
            return self.gain * (np.asarray(self.goal) - x)
        return super().control(me, x, ids, positions)

    def violations(self, graph, robots, delta):
        out = super().violations(graph, robots, delta)
        if self.leader not in robots:
            out.append(f"{self.label}: leader index {self.leader} out of range")
        return out


@dataclass(frozen=True)
class CyclicPursuit(Controller):
    """Chase rotated neighbor offsets around a cycle graph."""

    yaml = "cyclic_pursuit"
    angle: float = _yaml("num")

    def control(self, me, x, ids, positions):
        rot = rotation(self.angle)
        return sum((rot @ (pj - x) for pj in positions), np.zeros(2))

    def violations(self, graph, robots, delta):
        try:
            if not induced_subgraph_is_cycle(graph, robots):
                return [f"{self.label}: required graph is not a cycle"]
        except GeometryError as exc:
            return [f"{self.label}: {exc}"]
        return []


@dataclass(frozen=True)
class Containment(CyclicPursuit):
    """Rotate around cycle neighbors while the ring drifts toward a goal point."""

    yaml = "containment"
    goal: tuple = _yaml("vec")
    gain: float = _yaml("num", default=1.0)

    def __post_init__(self):
        object.__setattr__(self, "goal", (float(self.goal[0]), float(self.goal[1])))
        if self.gain <= 0:
            raise BehaviorError("containment gain must be positive")

    def control(self, me, x, ids, positions):
        u = super().control(me, x, ids, positions)
        return u + self.gain * (np.asarray(self.goal) - x)


@dataclass(frozen=True)
class Lattice(Controller):
    """Hold a common spacing against all robots currently in sensing range."""

    yaml = "lattice"
    spacing: float = _yaml("num")

    def __post_init__(self):
        if self.spacing <= 0:
            raise BehaviorError("lattice spacing must be positive")

    def reads(self, me):
        return IN_RANGE

    def control(self, me, x, ids, positions):
        u = np.zeros(2)
        theta2 = self.spacing**2
        for pj in positions:
            diff = x - pj
            u += (float(diff @ diff) - theta2) * (pj - x)
        return u

    def violations(self, graph, robots, delta):
        if self.spacing > delta:
            return [f"{self.label}: spacing {self.spacing:g} exceeds sensing range {delta:g}"]
        return []


@dataclass(frozen=True)
class Coverage(Controller):
    """Move to the centroid of the robot's Voronoi cell in the given domain."""

    yaml = "coverage"
    domain: Domain = _yaml("bounds", "coverage_bounds")

    def reads(self, me):
        return KNOWN

    def control(self, me, x, ids, positions):
        """Toward the centroid of my cell among the robots I know, clipped to
        the domain. Positions are nudged into the rectangle first: transient
        boundary overshoot from the safety filter must not kill the
        tessellation."""
        d, eps = self.domain, 1e-9

        def site(i, p):
            return RobotState(
                i,
                np.array([min(max(p[0], d.xmin + eps), d.xmax - eps),
                          min(max(p[1], d.ymin + eps), d.ymax - eps)]),
            )

        sites = [site(me, x)] + [site(j, pj) for j, pj in zip(ids, positions)]
        return voronoi_centroids(sites, d)[0] - x


@dataclass(frozen=True)
class GoToGoal(Controller):
    """Proportional drive to per-robot goals; robots without a goal hold position."""

    yaml = "go_to_goal"
    goals: dict = _yaml("goals")  # robot -> (x, y)
    gain: float = _yaml("num", default=1.0)

    def __post_init__(self):
        object.__setattr__(
            self,
            "goals",
            {int(i): (float(g[0]), float(g[1])) for i, g in self.goals.items()},
        )
        if self.gain <= 0:
            raise BehaviorError("goal gain must be positive")

    def control(self, me, x, ids, positions):
        goal = self.goals.get(me)
        if goal is None:
            return np.zeros(2)
        return self.gain * (np.asarray(goal) - x)

    def violations(self, graph, robots, delta):
        outside = sorted(i for i in self.goals if i not in robots)
        return [f"{self.label}: goals for robots {outside} out of range"] if outside else []


@dataclass(frozen=True)
class CompositeGroup:
    robots: tuple
    controller: Controller
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "robots", tuple(sorted(int(r) for r in self.robots)))
        object.__setattr__(self, "edges", tuple(sorted(_edge_key(*e) for e in self.edges)))


@dataclass(frozen=True)
class Composite(Controller):
    """Different controllers on disjoint robot subsets within one behavior
    step; each robot's law, inputs and checks are its group's controller's."""

    yaml = "composite"
    groups: tuple = _yaml("groups")

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))

    def group_of(self, robot):
        for g in self.groups:
            if robot in g.robots:
                return g
        raise BehaviorError(f"robot {robot} belongs to no composite group")

    def reads(self, me):
        return self.group_of(me).controller.reads(me)

    def control(self, me, x, ids, positions):
        group = self.group_of(me)
        mine = [k for k, j in enumerate(ids) if j in group.robots]
        return group.controller.control(me, x, [ids[k] for k in mine], [positions[k] for k in mine])

    def violations(self, graph, robots, delta):
        out = []
        seen = set()
        for g in self.groups:
            overlap = seen & set(g.robots)
            if overlap:
                out.append(f"composite: robots {sorted(overlap)} appear in more than one group")
            seen |= set(g.robots)
        edge_union = set()
        for g in self.groups:
            for a, b in g.edges:
                if a not in g.robots or b not in g.robots:
                    out.append(f"composite: group edge ({a},{b}) leaves its group")
            edge_union |= set(g.edges)
        if edge_union != set(graph.edges):
            out.append("composite: union of group edges does not match the required graph")
        for g in self.groups:
            if isinstance(g.controller, Composite):
                out.append("composite: nested composites are not supported")
                continue
            try:
                sub = InteractionGraph.from_edges(graph.n, g.edges)
            except GeometryError as exc:
                out.append(f"composite {g.controller.label}: {exc}")
                continue
            out.extend(
                f"composite {v} (group {g.robots})" for v in g.controller.violations(sub, g.robots, delta)
            )
        return out


# --- completion predicates ---------------------------------------------------


@dataclass(frozen=True)
class ControlNormBelow:
    yaml = "control_norm_below"
    epsilon: float = _yaml("num")

    def __post_init__(self):
        if self.epsilon <= 0:
            raise BehaviorError("completion threshold must be positive")

    def done(self, u_hat, elapsed, x):
        return float(np.linalg.norm(u_hat)) < self.epsilon


@dataclass(frozen=True)
class ElapsedTime:
    yaml = "elapsed"
    duration: float = _yaml("num")

    def __post_init__(self):
        if self.duration <= 0:
            raise BehaviorError("completion duration must be positive")

    def done(self, u_hat, elapsed, x):
        return elapsed >= self.duration


@dataclass(frozen=True)
class GoalReached:
    yaml = "goal_reached"
    goal: tuple = _yaml("vec")
    radius: float = _yaml("num")

    def __post_init__(self):
        object.__setattr__(self, "goal", (float(self.goal[0]), float(self.goal[1])))
        if self.radius <= 0:
            raise BehaviorError("completion radius must be positive")

    def done(self, u_hat, elapsed, x):
        return float(np.linalg.norm(x - np.asarray(self.goal))) <= self.radius
