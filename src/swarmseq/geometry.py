"""Planar geometry: proximity graphs, graph predicates, Voronoi cells.

All positions are 2-vectors in meters. Robots are indexed 1..n throughout the
package (index 0 is never a robot).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .barriers import Connectivity, ObstacleAvoid


class GeometryError(ValueError):
    """Invalid geometric input (degenerate tessellation, bad indices, ...)."""


# the range test of ``proximity_graph``, one per range: its c = delta^2 is computed once
_in_range = functools.lru_cache(maxsize=8)(Connectivity)


def sq_norm(d):
    """The squared norm of each 2-vector on the trailing axis, d0 d0 + d1 d1."""
    t = d * d
    return t[..., 0] + t[..., 1]


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected edge set over robot indices 1..n (no self-loops); a
    ``proximity_graph`` builds its edge set from its mask on first read."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        norm = set()
        for i, j in self.edges:
            if i == j:
                raise GeometryError(f"self-loop at vertex {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise GeometryError(f"edge ({i},{j}) outside 1..{self.n}")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_edges(cls, n, edges):
        return cls(n, frozenset(tuple(e) for e in edges))

    def __getattr__(self, name):
        # only reached for a proximity graph's edges not yet read
        if name != "edges" or "mask" not in self.__dict__:
            raise AttributeError(name)
        a, b = self.mask.nonzero()
        object.__setattr__(self, "edges", frozenset((i + 1, j + 1) for i, j in zip(a.tolist(), b.tolist()) if i < j))
        return self.edges

    def has_edge(self, i, j):
        return (min(i, j), max(i, j)) in self.edges

    @functools.cached_property
    def mask(self):
        """The adjacency as an (n, n) boolean mask, robot i + 1 at index i."""
        mask = np.zeros((self.n, self.n), dtype=bool)
        for i, j in self.edges:
            mask[i - 1, j - 1] = mask[j - 1, i - 1] = True
        mask.flags.writeable = False
        return mask

    def sorted_edges(self):
        return sorted(self.edges)


@dataclass(frozen=True)
class Obstacle:
    """Ellipse (x-center)' diag(a, b) (x-center) = 1; interior is the keep-out set.

    Array ``a`` and ``b`` of shape (m,) with an (m, 2) ``center`` stack m
    ellipses, so that one barrier evaluation covers all of them.
    """

    center: np.ndarray
    a: float
    b: float
    axes: np.ndarray = field(init=False, repr=False, compare=False)  # (a, b) on the last axis

    def __post_init__(self):
        if np.any(np.asarray(self.a) <= 0) or np.any(np.asarray(self.b) <= 0):
            raise GeometryError(f"obstacle shape coefficients must be positive, got {self.a}, {self.b}")
        center = np.asarray(self.center, dtype=float).reshape(np.shape(self.a) + (2,))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "axes", np.stack((self.a, self.b), axis=-1))


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangular workspace with optional ellipsoidal obstacles."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    obstacles: tuple = ()
    obstacle_stack: Obstacle = field(init=False, repr=False, compare=False)
    _avoid: ObstacleAvoid = field(init=False, repr=False, compare=False)  # the stack's barrier

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise GeometryError("domain bounds are degenerate")
        obstacles = tuple(self.obstacles)
        object.__setattr__(self, "obstacles", obstacles)
        stack = Obstacle(
            [o.center for o in obstacles],
            np.array([o.a for o in obstacles], dtype=float),
            np.array([o.b for o in obstacles], dtype=float),
        )
        object.__setattr__(self, "obstacle_stack", stack)
        object.__setattr__(self, "_avoid", ObstacleAvoid(0, stack))

    def obstacle_values(self, x):
        """The obstacle barrier's h (below 0 inside the obstacle) at each
        position of ``x`` (..., 2) for each obstacle, (..., obstacles)."""
        return self._avoid.value(x[..., None, :] - self._avoid.center)

    @property
    def area(self):
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def contains(self, p):
        x, y = float(p[0]), float(p[1])
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def corners(self):
        return np.array(
            [
                [self.xmin, self.ymin],
                [self.xmax, self.ymin],
                [self.xmax, self.ymax],
                [self.xmin, self.ymax],
            ]
        )


def proximity_graph(positions, delta):
    """Graph with an edge wherever two robots are within sensing range.

    ``positions`` is the (n, 2) array of robots 1..n. A pair is connected
    exactly when its connectivity barrier is nonnegative, so the test is
    boundary-inclusive: a pair at distance ``delta`` is connected. One
    connectivity barrier's value reads each component's (n, n) table of
    differences at once; its robot ids do not enter the value.
    """
    if delta <= 0:
        raise GeometryError(f"delta must be positive, got {delta}")
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1:] != (2,) or not len(positions):
        raise GeometryError(f"positions must be a non-empty (n, 2) array, got {positions.shape}")
    if not np.isfinite(positions).all():
        raise GeometryError("non-finite robot position")
    d = positions.T.copy()  # contiguous components, so the differences below stream
    d = d[:, :, None] - d[:, None]
    mask = _in_range(1, 2, float(delta)).value(d.transpose(1, 2, 0)) >= 0
    mask.flat[::len(mask) + 1] = False  # the diagonal
    mask.flags.writeable = False
    # the mask is symmetric and loop-free by construction: skip __post_init__'s
    # per-edge checks, and leave the edge set to its first read
    graph = object.__new__(InteractionGraph)
    graph.__dict__.update(n=len(positions), mask=mask)
    return graph


@functools.lru_cache(maxsize=8)
def _pairs(n):
    """Robots i < j of every pair of n robots, as two read-only id arrays."""
    i, j = np.triu_indices(n, 1)
    i += 1
    j += 1
    i.flags.writeable = j.flags.writeable = False
    return i, j


def is_spanning_subgraph(required, live):
    """True iff every edge of ``required`` is present in ``live``."""
    if required.n != live.n:
        raise GeometryError(f"vertex count mismatch: {required.n} vs {live.n}")
    return required.edges <= live.edges


def is_cycle_graph(g):
    """True iff ``g`` is a single cycle: connected with every degree exactly 2."""
    return induced_subgraph_is_cycle(g, range(1, g.n + 1))


def induced_subgraph_is_cycle(g, vertices):
    """Cycle test restricted to ``vertices`` using only edges among them."""
    verts = set(vertices)
    if len(verts) < 3:
        raise GeometryError(f"a cycle needs at least 3 vertices, got {len(verts)}")
    adj = {v: set() for v in verts}
    for a, b in g.edges:
        if a in verts and b in verts:
            adj[a].add(b)
            adj[b].add(a)
    if any(len(out) != 2 for out in adj.values()):
        return False
    seen, stack = {min(verts)}, [min(verts)]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return seen == verts


def clip_polygon_halfplane(poly, normal, offset):
    """Sutherland-Hodgman clip of a convex polygon to {p : normal . p <= offset}."""
    # each vertex's signed excess once, (n0 p0 + n1 p1) - offset; a - b <= 0 exactly when a <= b
    out, m, t = [], len(poly), poly * normal
    excess = ((t[:, 0] + t[:, 1]) - offset).tolist()
    for k in range(m):
        cur, nxt = poly[k], poly[(k + 1) % m]
        dc, dn = excess[k], excess[(k + 1) % m]
        if dc <= 0:
            out.append(cur)
        if (dc <= 0) != (dn <= 0):
            out.append(cur + dc / (dc - dn) * (nxt - cur))
    return np.array(out) if out else np.empty((0, 2))


def polygon_area_centroid(poly):
    """Signed area and centroid of a simple polygon (standard shoelace forms)."""
    x = poly[:, 0]
    y = poly[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    a = 0.5 * float(np.sum(cross))
    if abs(a) < 1e-14:
        return 0.0, np.mean(poly, axis=0)
    cx = float(np.sum((x + np.roll(x, -1)) * cross)) / (6.0 * a)
    cy = float(np.sum((y + np.roll(y, -1)) * cross)) / (6.0 * a)
    return a, np.array([cx, cy])


def coincident(points):
    """Which pairs a < b of the sites ``points`` lie closer than 1e-9, as a (k, k) mask."""
    return np.triu(sq_norm(points[:, None] - points) < 1e-18, 1)


def check_distinct(points, ids):
    """Reject two of the sites ``points``, of the robots ``ids``, closer than
    1e-9: the first such pair in row-major order."""
    pairs = np.argwhere(coincident(points))
    if len(pairs):
        a, b = pairs[0].tolist()
        raise GeometryError(f"coincident robots {ids[a]} and {ids[b]}: tessellation is degenerate")


def voronoi_cell(points, ids, domain):
    """The Voronoi cell of site ``points[0]`` among the sites ``points``, a
    (k, 2) array of the robots ``ids``, clipped to the domain rectangle.

    The cell is the intersection of the rectangle with the bisector
    half-planes against every other site, in site order; taking each site
    first in turn gives cells that partition the domain exactly. Coincident
    sites and sites outside the domain are rejected, over all the sites.
    """
    check_distinct(points, ids)
    for i, p in zip(ids, points):
        if not domain.contains(p):
            raise GeometryError(f"robot {i} at {p} lies outside the domain")
    return clipped_cell(points, domain)


def clipped_cell(points, domain):
    """``voronoi_cell`` without its checks, for distinct sites in the domain."""
    pi, poly, sq = points[0], domain.corners(), sq_norm(points).tolist()
    for pj, sq_j in zip(points[1:], sq[1:]):
        if len(poly) == 0:
            break
        # points closer to pi than pj: (pj - pi) . p <= (|pj|^2 - |pi|^2) / 2
        poly = clip_polygon_halfplane(poly, pj - pi, 0.5 * (sq_j - sq[0]))
    return poly
