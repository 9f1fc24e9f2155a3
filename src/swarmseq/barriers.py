"""Finite-time convergence barrier algebra for single-integrator robots.

Every barrier here is a scalar field h over robot positions whose
superzero-level set is the constraint set: h >= 0 means satisfied. The
class-K rate gamma * sign(h) * |h|^rho gives finite-time convergence into
the set (not just asymptotic approach), with an explicit settling-time
bound, and forward invariance once inside.

Constraint rows are the single-robot linearizations used by the QP filter:
for single-integrator dynamics the admissibility condition
    dh/dt + rate(h) >= 0
restricted to robot i's input becomes  (dh/dx_i) . u_i >= -share * rate(h).
A pairwise barrier is enforced once by each of its two robots, so each takes
share 1/2 of the rate; a single-robot barrier keeps the full rate.

Every kind is a barrier of robot i about a point p: the partner's position,
the ellipse's center or the disc's center. At the offset d = x_i - p,
every barrier has one form,
    h = c + (sx (d0 d0) + sy (d1 d1)),    dh/dx_i = 2 d (sx, sy),
with (sx, sy) = ``scale``: (s, s) for the pairwise kinds, (a, b) for an
ellipse and (-1, -1) for a disc. Connectivity is c = delta^2, s = -1;
collision c = -min_sep^2, s = +1; an ellipse c = -1; keep-within
c = radius^2. Scaling by s = +-1 is exact, so for the pairwise kinds and the
disc the form is bit for bit c + s |d|^2. ``_Barrier`` writes the form once,
for the kinds and for a ``RowStack``, the rows of several kinds, so QP rows,
traces, the CSV writer and validation read the same bits. The offsets'
squares are products; libm's ``pow`` serves only the rate and the
constants c.

``value`` and ``gradient`` take the offsets and work over their trailing
2-axis, so the same call serves one robot on one tick, a whole (ticks, 2)
trajectory, and a stack of barriers of one kind: a pairwise kind whose ``j``
(or ``i``) is a sequence of robots, or an obstacle stack. The caller forms d
once. ``constraint_row`` turns one stack's offsets into a ``RowBlock``, one
row per barrier; a team's rows are one ``RowStack``, built by one
``constraint_row`` call a tick and handed to ``qp.solve`` flat, each row's
robot index read from the ``agent.TickGraph``'s layout. A row carries only
its numbers: which barrier it is, the stack's kinds say.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


def _yaml(kind, key=None, **kw):
    """A field whose YAML form is converter ``kind`` under ``key`` (default:
    the field's name; a dotted key names a nested mapping's entry)."""
    return field(metadata={"kind": kind, "key": key}, **kw)


@dataclass(frozen=True)
class FcbfParams:
    """Class-K rate parameters: exponent rho in [0, 1), gain gamma > 0."""

    rho: float = _yaml("num", default=0.5)
    gamma: float = _yaml("num", default=1.0)

    def __post_init__(self):
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


def class_k(h, params):
    """Signed-power class-K rate: gamma * sign(h) * |h|^rho, with sign(0) = 0.

    Elementwise over an array of h. The power is libm's ``pow``
    (``np.float_power``), as in Python's ``abs(h) ** rho``; numpy's ``**``
    differs from it in the last bit for some inputs.
    """
    h = np.asarray(h, dtype=float)
    rate = np.float_power(np.abs(h), params.rho, out=np.empty(h.shape))
    np.copysign(rate, h, out=rate)
    rate *= params.gamma
    rate[h == 0.0] = 0.0
    return rate[()]


def settling_time_bound(h0, params):
    """Upper bound on the time to reach h >= 0 from h0; zero if already inside."""
    if h0 >= 0.0:
        return 0.0
    return abs(h0) ** (1.0 - params.rho) / (params.gamma * (1.0 - params.rho))


def team_settling_bound(entries, params):
    """Worst settling bound over (edge, h0) entries; only violated ones count."""
    worst = 0.0
    for _, h0 in entries:
        if h0 < 0.0:
            worst = max(worst, settling_time_bound(h0, params))
    return worst


# --- barrier kinds ---------------------------------------------------------


# the scales of the kinds whose h falls (within) or grows (apart) with
# distance, read-only since every barrier of a kind shares one
_WITHIN, _APART = np.full(2, -1.0), np.full(2, 1.0)
_WITHIN.flags.writeable = _APART.flags.writeable = False


class _Barrier:
    """The one form of every barrier: at the offset d = x_i - p of robot i
    from its point p, h = c + (sx (d0 d0) + sy (d1 d1)) and dh/dx_i =
    2 d (sx, sy), with (sx, sy) the last axis of ``scale``. A subclass
    gives ``c`` and ``scale``, each one value or one per barrier of a stack,
    broadcasting against d's leading axes."""

    def value(self, d):
        t = d * d  # (d0 d0, d1 d1), then scaled in place
        t *= self.scale
        return self.c + (t[..., 0] + t[..., 1])

    def gradient(self, d):
        return 2.0 * d * self.scale


class _Pairwise(_Barrier):
    """A barrier h = c + s |x_i - x_j|^2 on robots i and j, about p = x_j,
    half of it enforced by each; scale is (s, s), and the gradient in x_j is
    the negation of dh/dx_i. Connectivity and collision are two choices of c
    and s, and a ``RowStack`` takes them per barrier. ``i`` and ``j`` are one
    robot or one sequence each; p, the partner's position, is a tick's, so
    ``center`` is None."""

    share = 0.5
    center = None

    def __post_init__(self):
        if np.equal(self.i, self.j).any():
            raise ValueError(f"{type(self).__name__.lower()} barrier needs two distinct robots")


@dataclass(frozen=True)
class Connectivity(_Pairwise):
    """h = delta^2 - |x_i - x_j|^2: robots i and j within sensing range."""

    i: int
    j: int
    delta: float

    hard = False
    scale = _WITHIN

    @functools.cached_property
    def c(self):
        # libm's pow (float_power), as Python's delta**2, also for a per-row
        # delta array, where numpy's ** 2 would multiply
        return np.float_power(self.delta, 2)


@dataclass(frozen=True)
class Collision(_Pairwise):
    """h = |x_i - x_j|^2 - min_sep^2: robots i and j at least min_sep apart."""

    i: int
    j: int
    min_sep: float

    hard = True
    scale = _APART

    @property
    def c(self):
        return -(self.min_sep**2)


@dataclass(frozen=True)
class ObstacleAvoid(_Barrier):
    """h = (x_i - o)' diag(a, b) (x_i - o) - 1: robot i outside an ellipse,
    about p = o (``center``) with c = -1 and scale (a, b).

    The obstacle may be a stack of ellipses (see ``Domain.obstacle_stack``);
    ``center`` and ``scale`` then hold one entry per obstacle, or one per
    ellipse that the 1-based ``index`` array selects from the stack.
    """

    i: int
    obstacle: Obstacle
    index: object = None

    hard = True
    share = 1.0
    c = -1.0

    def __post_init__(self):
        m = slice(None) if self.index is None else np.asarray(self.index) - 1
        self.__dict__.update(center=self.obstacle.center[m], scale=self.obstacle.axes[m])


@dataclass(frozen=True)
class KeepWithin(_Barrier):
    """h = radius^2 - |x_i - center|^2: robot i inside a disc (anchor
    constraint), about p = ``center`` with c = radius^2 and scale (-1, -1)."""

    yaml = "keep_within"
    i: int = _yaml("int", "robot")
    center: tuple = _yaml("vec")
    radius: float = _yaml("num")

    hard = False
    share = 1.0
    scale = _WITHIN

    def __post_init__(self):
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        if self.radius <= 0:
            raise ValueError("keep-within radius must be positive")
        object.__setattr__(self, "c", self.radius**2)


@dataclass(frozen=True)
class RowStack(_Barrier):
    """Barriers of several kinds as one stack, the rows of ``kinds`` in
    order, the pairwise kinds first: row r is robot ``i[r]``'s barrier about
    a point p[r], with its kind's c[r] and scale[r], and its own ``share``
    and ``hard`` flag. A pairwise row's p is the partner's position, which a
    tick gives; the other rows' p are ``center``. The form is the kinds' own,
    so each row's value and gradient are its kind's bit for bit."""

    kinds: tuple
    i: np.ndarray
    center: np.ndarray  # (rows past the pairwise ones, 2)
    c: np.ndarray
    scale: np.ndarray
    share: np.ndarray
    hard: np.ndarray

    @classmethod
    def of(cls, kinds):
        """The rows of ``kinds``, kind by kind, each a stack of its own: one
        row per point of a kind's ``center``, read as (-1, 2), or for a
        pairwise kind (``center`` None) one per pair of its ``i`` and ``j``
        broadcast. Each kind's i, c and scale broadcast to its rows."""
        points = [None if kind.center is None else np.reshape(kind.center, (-1, 2)) for kind in kinds]
        sizes = [np.broadcast(kind.i, kind.j).size if p is None else len(p) for kind, p in zip(kinds, points)]

        def rows(name, *shape):
            return np.concatenate([np.full((n, *shape), getattr(kind, name)) for kind, n in zip(kinds, sizes)])

        center = np.concatenate([np.empty((0, 2)), *(p for p in points if p is not None)])
        return cls(tuple(kinds), rows("i"), center, rows("c"), rows("scale", 2), rows("share"), rows("hard"))


@dataclass(frozen=True)
class RowBlock:
    """Rows normals[r] . u >= offsets[r] on one robot's input, or on the
    inputs of a team's stack (row r on robot ``kind.i[r]``'s), as arrays
    normals (k, 2), offsets (k,) and the hard mask (k,), or one flag for the
    rows of one barrier kind."""

    normals: np.ndarray
    offsets: np.ndarray
    hard: np.ndarray


def constraint_row(kind, params, d):
    """Rows (dh/dx_i) . u_i >= -share * rate(h) on the input of robot
    ``kind.i``, one per barrier of the kind's stack, in C order.

    ``d`` holds the offsets x_i - p of the barriers' robots from their
    points p (for a pairwise kind the positions of its ``j`` robots, for a
    ``RowStack`` its rows' points), broadcasting against the kind's stack;
    h and the gradient are both read from it. ``kind.i`` is one robot or,
    for a team's rows, an id array broadcasting against the barrier values.
    """
    h = kind.value(d)
    k = h.size
    return RowBlock(kind.gradient(d).reshape(k, 2), -kind.share * class_k(h.reshape(k), params), kind.hard)
