"""Coordinated behavior controllers, their graph requirements, and completion tests.

Each controller class owns its behavior: its YAML name (``yaml``), what its
law reads besides the robot's own position (``reads``), its array law
(``control``), the parameters that law takes per robot (``gather``) and its
requirement checks (``violations``). Each field's ``metadata`` gives its YAML
form: a converter ``kind`` and, where it differs from the field's name, its
``key`` (``mission`` holds the converters). A field with a default may be
left out of the YAML.

A law runs once for all the robots its class drives (a ``Law``: every
instance, and every composite group's). It maps the team's positions and
those robots' partner pairs, grouped by robot in ascending partner id, to one
nominal velocity command per robot for a single integrator. A partner sum is
a left fold in ascending partner id from +0, and each dot product is written
out, a0 x0 + a1 x1 (``geometry.sq_norm``; a rotation is c d0 - s d1 and
s d0 + c d1), so each command has the bits of a loop over the robot's own
partners in Python floats, whatever BLAS numpy links. The commands are
nominal only: the barrier QP may override them, and the simulator saturates
them to the speed limit (scatter in particular grows without bound
otherwise). Each completion predicate owns ``done``, over arrays of robots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .barriers import _yaml
from .geometry import (
    Domain,
    GeometryError,
    InteractionGraph,
    check_distinct,
    clipped_cell,
    coincident,
    induced_subgraph_is_cycle,
    polygon_area_centroid,
    sq_norm,
)

# what a controller's law reads: the neighbors its behavior's graph
# prescribes, every robot in sensing range, or every robot whose position
# the robot knows (sensed, oracle or cached message)
REQUIRED = "required"
IN_RANGE = "in_range"
KNOWN = "known"


class BehaviorError(ValueError):
    """Behavior evaluated against inconsistent inputs (missing neighbor, bad graph)."""


def _edge_key(i, j):
    return (min(i, j), max(i, j))


def nominal_control(law, x, rows, cols, seen_at, fold=None):
    """Nominal velocity commands of the robots ``law.robots`` under their
    ``law``, given the team's positions ``x`` and its partner pairs: robot
    ``rows``, partner ``cols`` (indices, robot i + 1 at i; by robot, partners
    ascending) and where each robot sees its partner (``seen_at``), with the
    pairs' ``fold_index`` (built here if not given). A robot's command reads
    its own pairs only."""
    fold = fold_index(rows) if fold is None else fold
    return law.kind.control(law, x, rows, cols, seen_at, fold)[law.robots]


class Law(NamedTuple):
    """Controller class ``kind``'s law over the robots it drives in a stage:
    ``robots`` (indices, ascending), each one's ``leaf`` controller, and the
    parameters those ``gather`` by robot index: squared target distance
    ``theta2[i, j]`` to each partner, rotation (the rows (c, c) and (-s, s)
    of a turn by angle a, c = cos a and s = sin a), and goal and gain (0: none)."""

    kind: type
    robots: np.ndarray
    leaf: dict
    theta2: np.ndarray  # (n, n)
    rot: np.ndarray  # (n, 2, 2)
    goal: np.ndarray  # (n, 2)
    gain: np.ndarray  # (n, 1)

    @classmethod
    def of(cls, kind, members, reads):
        """The law over ``members``, (robot index, leaf controller) by robot,
        each reading the required partners its row of ``reads`` marks."""
        n = len(reads)
        law = cls(kind, np.array([i for i, _ in members], dtype=int), dict(members), np.zeros((n, n)),
                  np.zeros((n, 2, 2)), np.zeros((n, 2)), np.zeros((n, 1)))
        for i, leaf in members:
            leaf.gather(law, i, reads[i].nonzero()[0])
        return law


def fold_index(rows):
    """Where ``_fold`` puts each pair of the robots ``rows`` (ascending):
    (flat index, width) in a pad of rows ``width`` wide, one more than the
    largest degree. A robot's k-th pair (from 1) goes to column k of its row."""
    rank = np.arange(1, len(rows) + 1) - rows.searchsorted(rows)
    width = int(rank.max(initial=0)) + 1
    return rows * width + rank, width


def _fold(terms, n, fold):
    """Each of n robots' sum of its pairs' ``terms`` (placed by the pairs'
    ``fold_index``): a left fold from +0 in pair order, as (n, 2). A robot's
    terms follow a zero in its row of the pad; a fold from +0 never reaches
    -0, so the zeros after them add nothing."""
    flat, width = fold
    pad = np.zeros((n * width, 2))
    pad[flat] = terms
    return pad.reshape(n, width, 2).cumsum(axis=1)[:, -1]


def _spring(law, x, rows, cols, seen_at, fold):
    """Sum over each robot's partners of (|x - p|^2 - theta^2) (p - x); the
    squares of p - x have the bits of those of x - p."""
    d = seen_at - x[rows]
    return _fold((sq_norm(d) - law.theta2[rows, cols])[:, None] * d, len(x), fold)


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

    def leaf(self, me):
        """The controller whose law robot ``me`` runs, and its group's robots (None: all)."""
        return self, None

    def gather(self, law, i, partners):
        """Write robot index i's parameters, given its required ``partners``, into ``law``."""

    def violations(self, graph, robots, delta):
        """Structural feasibility checks on the required ``graph`` of the
        ``robots`` running this controller; violations are data."""
        return []


@dataclass(frozen=True)
class Rendezvous(Controller):
    yaml = "rendezvous"

    @staticmethod
    def control(law, x, rows, cols, seen_at, fold):
        return _fold(seen_at - x[rows], len(x), fold)


@dataclass(frozen=True)
class Scatter(Controller):
    yaml = "scatter"

    @staticmethod
    def control(law, x, rows, cols, seen_at, fold):
        return _fold(x[rows] - seen_at, len(x), fold)


class _Shape(Controller):
    """Prescribed inter-robot distances on the required edges, and the
    formation law that holds them."""

    def _key_distances(self):
        object.__setattr__(self, "distances", {_edge_key(*k): float(v) for k, v in self.distances.items()})

    def distance(self, i, j):
        key = _edge_key(i, j)
        if key not in self.distances:
            raise BehaviorError(f"no target distance for edge {key}")
        return self.distances[key]

    control = staticmethod(_spring)

    def gather(self, law, i, partners):
        for j in partners.tolist():
            theta = self.distance(i + 1, j + 1)
            law.theta2[i, j] = theta * theta

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
        for i, j, k in itertools.combinations(range(1, graph.n + 1), 3):
            if graph.has_edge(i, j) and graph.has_edge(j, k) and graph.has_edge(i, k):
                a, b, c = self.distance(i, j), self.distance(j, k), self.distance(i, k)
                if a > b + c or b > a + c or c > a + b:
                    out.append(f"{label}: triangle inequality fails on ({i},{j},{k}): {a:g}, {b:g}, {c:g}")
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

    def gather(self, law, i, partners):
        if i + 1 == self.leader:
            law.goal[i], law.gain[i] = self.goal, self.gain
        else:
            super().gather(law, i, partners)

    @staticmethod
    def control(law, x, rows, cols, seen_at, fold):
        return np.where(law.gain > 0, law.gain * (law.goal - x), _spring(law, x, rows, cols, seen_at, fold))

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

    def gather(self, law, i, partners):
        c, s = math.cos(self.angle), math.sin(self.angle)
        law.rot[i] = (c, c), (-s, s)

    @staticmethod
    def control(law, x, rows, cols, seen_at, fold):
        d, rot = seen_at - x[rows], law.rot.take(rows, axis=0)  # each d turned: (c d0 - s d1, s d0 + c d1)
        return _fold(rot[:, 0] * d + rot[:, 1] * d[:, ::-1], len(x), fold)

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

    def gather(self, law, i, partners):
        super().gather(law, i, partners)
        law.goal[i], law.gain[i] = self.goal, self.gain

    @staticmethod
    def control(law, x, rows, cols, seen_at, fold):
        return CyclicPursuit.control(law, x, rows, cols, seen_at, fold) + law.gain * (law.goal - x)


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

    control = staticmethod(_spring)

    def gather(self, law, i, partners):
        law.theta2[i] = self.spacing**2

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

    @staticmethod
    def control(law, x, rows, cols, seen_at, fold):
        """Toward the centroid of each robot's own cell among the robots it
        knows, clipped to its domain, one robot at a time. Positions are
        nudged into the rectangle first: transient boundary overshoot from
        the safety filter must not kill the tessellation. Robots apart that
        the nudge puts on one point (past one corner) count once."""
        u, eps = np.zeros_like(x), 1e-9
        for i in law.robots.tolist():
            d, (a, b) = law.leaf[i].domain, rows.searchsorted((i, i + 1))
            lo, hi = (d.xmin + eps, d.ymin + eps), (d.xmax - eps, d.ymax - eps)
            sites, ids = np.vstack((x[i], seen_at[a:b])), np.array([i + 1, *(cols[a:b] + 1).tolist()])
            check_distinct(sites, ids)
            nudged = np.clip(sites, lo, hi)
            first = ~coincident(nudged).any(axis=0)
            cell = clipped_cell(nudged[first], d)
            if len(cell) < 3:
                raise GeometryError("empty Voronoi cell (site outside domain?)")
            u[i] = polygon_area_centroid(cell)[1] - x[i]
        return u


@dataclass(frozen=True)
class GoToGoal(Controller):
    """Proportional drive to per-robot goals; robots without a goal hold position."""

    yaml = "go_to_goal"
    goals: dict = _yaml("goals")  # robot -> (x, y)
    gain: float = _yaml("num", default=1.0)

    def __post_init__(self):
        object.__setattr__(self, "goals", {int(i): (float(g[0]), float(g[1])) for i, g in self.goals.items()})
        if self.gain <= 0:
            raise BehaviorError("goal gain must be positive")

    def gather(self, law, i, partners):
        if i + 1 in self.goals:
            law.goal[i], law.gain[i] = self.goals[i + 1], self.gain

    @staticmethod
    def control(law, x, rows, cols, seen_at, fold):
        return np.where(law.gain > 0, law.gain * (law.goal - x), 0.0)

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

    def leaf(self, me):
        for g in self.groups:
            if me in g.robots:
                return g.controller, g.robots
        raise BehaviorError(f"robot {me} belongs to no composite group")

    def reads(self, me):
        return self.leaf(me)[0].reads(me)

    def violations(self, graph, robots, delta):
        out = []
        seen = set()
        for g in self.groups:
            overlap = seen & set(g.robots)
            if overlap:
                out.append(f"composite: robots {sorted(overlap)} appear in more than one group")
            seen |= set(g.robots)
        ungrouped, outside = set(robots) - seen, seen - set(robots)
        if ungrouped:
            out.append(f"composite: robots {sorted(ungrouped)} belong to no group")
        if outside:
            out.append(f"composite: robots {sorted(outside)} out of range")
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
            out.extend(f"composite {v} (group {g.robots})" for v in g.controller.violations(sub, g.robots, delta))
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
        return np.sqrt(sq_norm(u_hat)) < self.epsilon


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
        return np.sqrt(sq_norm(x - np.asarray(self.goal))) <= self.radius
