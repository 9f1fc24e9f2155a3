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

Each barrier kind owns its value and gradient. Both work over the trailing
2-axis of position arrays, so the same method serves one robot on one tick,
a whole (ticks, 2) trajectory, and a stack of barriers of one kind: a
pairwise kind whose ``j`` (or ``i``) is a sequence of robots, or an obstacle
stack. Every barrier squares distances with ``sq_dist`` (``at_sq_dist``
takes them as given). ``constraint_row`` turns one stack's values into a
``RowBlock``, one row per barrier; a stack whose ``i`` is an array of robots
gives a team's rows, which ``agent.RowPlan`` places robot by robot. A row
carries only its numbers: which barrier it is, the stack's kinds say.

Every kind is a barrier of robot i about a point p: the partner's position,
the ellipse's center or the disc's center. Its gradient is
2 (x_i - p) * (sx, sy), with (sx, sy) = (s, s) for the pairwise kinds,
(a, b) for an ellipse and (-1, -1) for a disc. Connectivity and collision
are one pairwise form, h = c + s |x_i - x_j|^2: connectivity is
c = delta^2, s = -1 and collision c = -min_sep^2, s = +1; keep-within is
the same form with c = radius^2, s = -1. So a team's rows of every kind are
one ``RowStack``, built by one ``constraint_row`` call a tick, each row bit
for bit its kind's own.
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


def sq_dist(d):
    """|d|^2 over the trailing 2-axis.

    Written elementwise rather than as a BLAS dot, so that a single tick and a
    whole trajectory round alike.
    """
    return d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]


def _pairs_a_robot_with_itself(i, j):
    """For robots i and j, one robot i and a tuple j, or id arrays paired elementwise."""
    same = i in j if isinstance(j, tuple) else i == j
    return same if isinstance(same, bool) else bool(same.any())


class _Pairwise:
    """A barrier h = c + s |x_i - x_j|^2 on robots i and j, half of it
    enforced by each; dh/dx_i is 2 s (x_i - x_j). Connectivity and collision
    are two choices of c and s, and a ``RowStack`` takes them per barrier."""

    share = 0.5

    def __post_init__(self):
        if _pairs_a_robot_with_itself(self.i, self.j):
            raise ValueError(f"{type(self).__name__.lower()} barrier needs two distinct robots")

    def at_sq_dist(self, sq):
        return self.c + self.s * sq

    def value(self, xi, xj):
        return self.at_sq_dist(sq_dist(xi - xj))

    def gradient(self, xi, xj):
        """dh/dx_i; the gradient in x_j is its negation."""
        return (2.0 * np.asarray(self.s))[..., None] * (xi - xj)

    def stacked(self):
        """The barriers as ``RowStack`` rows, (i, p, c, scale) one entry per
        barrier (``i`` and ``j`` one robot or one sequence each); p, the
        partner's position, is a tick's (None)."""
        n = np.broadcast(self.i, self.j).size
        return np.full(n, self.i), None, np.full(n, self.c), np.full((n, 2), np.asarray(self.s)[..., None])


@dataclass(frozen=True)
class Connectivity(_Pairwise):
    """h = delta^2 - |x_i - x_j|^2: robots i and j within sensing range."""

    i: int
    j: int
    delta: float

    hard = False
    s = -1.0

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
    s = 1.0

    @property
    def c(self):
        return -(self.min_sep**2)


@dataclass(frozen=True)
class ObstacleAvoid:
    """h = (x_i - o)' diag(a, b) (x_i - o) - 1: robot i outside an ellipse.

    The obstacle may be a stack of ellipses (see ``Domain.obstacle_stack``);
    the value then broadcasts over them, one entry per obstacle, or over the
    ellipses that the 1-based ``index`` array selects from the stack.
    """

    i: int
    obstacle: Obstacle
    index: object = None

    hard = True
    share = 1.0

    @functools.cached_property
    def _ellipses(self):
        """The center, a, b and axes of the obstacles, the selected ones if
        ``index`` is given; gathered once per kind object."""
        o, m = self.obstacle, self.index
        if m is None:
            return o.center, o.a, o.b, o.axes
        m = np.asarray(m) - 1
        return o.center[m], o.a[m], o.b[m], o.axes[m]

    def value(self, x):
        center, a, b, _ = self._ellipses
        v = x - center
        # squares with libm's pow (float_power), not numpy's ** 2, which
        # multiplies: the two differ in the last bit for ~0.1% of inputs, and
        # securing_a_building's tick count depends on that bit
        return a * np.float_power(v[..., 0], 2) + b * np.float_power(v[..., 1], 2) - 1.0

    def gradient(self, x):
        center, _, _, axes = self._ellipses
        return 2.0 * (x - center) * axes

    def stacked(self):
        """The barriers as ``RowStack`` rows, (i, p, c, scale) one entry per
        barrier (``i`` one robot or one per selected ellipse): the ellipse's
        center and its (a, b). A row's value is the ellipse's (``value``),
        which squares with ``pow``; c is NaN, so a stack's value for the row
        is NaN until the caller writes the ellipse's in, and a row built
        without it fails the QP's finite-coefficient check."""
        center, _, _, axes = self._ellipses
        return np.full(len(center), self.i), center, np.full(len(center), np.nan), axes


@dataclass(frozen=True)
class KeepWithin:
    """h = radius^2 - |x_i - center|^2: robot i inside a disc (anchor constraint)."""

    yaml = "keep_within"
    i: int = _yaml("int", "robot")
    center: tuple = _yaml("vec")
    radius: float = _yaml("num")

    hard = False
    share = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        if self.radius <= 0:
            raise ValueError("keep-within radius must be positive")

    def value(self, x):
        return self.radius**2 - sq_dist(x - self.center)

    def gradient(self, x):
        return -2.0 * (x - self.center)

    def stacked(self):
        """The barrier as one ``RowStack`` row, (i, p, c, scale)."""
        return np.array([self.i]), np.array([self.center]), np.array([self.radius**2]), np.array([[-1.0, -1.0]])


@dataclass(frozen=True)
class RowStack:
    """Barriers of several kinds as one stack, the rows of ``kinds`` in
    order, the pairwise kinds first: row r is robot ``i[r]``'s barrier about
    a point p[r], with h = c[r] + s[r] |x_i - p[r]|^2 (s the first column of
    ``scale``), its gradient 2 (x_i - p[r]) * scale[r] and its own ``share``
    and ``hard`` flag. A pairwise row's p is the partner's position, which a
    tick gives; the other rows' p are ``center``. Scaling by s = +-1 is exact
    and a + (-b) is a - b, so each row's gradient is its kind's own bit for
    bit, and so is each row's value but an ellipse's (see ``value``)."""

    kinds: tuple
    i: np.ndarray
    center: np.ndarray  # (rows past the pairwise ones, 2)
    c: np.ndarray
    scale: np.ndarray
    share: np.ndarray
    hard: np.ndarray

    @classmethod
    def of(cls, kinds):
        """The rows of ``kinds``, kind by kind, each a stack of its own."""
        i, p, c, scale = zip(*(kind.stacked() for kind in kinds))
        sizes = [len(a) for a in i]
        center = np.concatenate([np.empty((0, 2)), *(a for a in p if a is not None)])
        return cls(tuple(kinds), np.concatenate(i), center, np.concatenate(c), np.concatenate(scale),
                   np.repeat([kind.share for kind in kinds], sizes), np.repeat([kind.hard for kind in kinds], sizes))

    def value(self, x, p):
        """c + s |x - p|^2 for every row, at x_i = ``x`` and the rows' points
        ``p``: the value of each row whose scale is (s, s). An ellipse row's
        value is NaN here; its kind's ``value`` is the caller's to write in."""
        return self.c + self.scale[:, 0] * sq_dist(x - p)

    def gradient(self, x, p):
        return 2.0 * (x - p) * self.scale


@dataclass(frozen=True)
class RowBlock:
    """Rows normals[r] . u >= offsets[r] on one robot's input, or on the
    inputs of a team's stack (row r on robot ``kind.i[r]``'s), as arrays
    normals (k, 2), offsets (k,) and the hard mask (k,), or one flag for the
    rows of one barrier kind."""

    normals: np.ndarray
    offsets: np.ndarray
    hard: np.ndarray


def constraint_row(kind, params, h, *positions):
    """Rows (dh/dx_i) . u_i >= -share * rate(h) on the input of robot
    ``kind.i``, one per barrier of the kind's stack, in C order.

    ``h`` holds the barriers' values at ``positions`` as an array (``kind.value``
    of them, or the same numbers from an earlier pass). ``positions`` are x_i,
    then for a pairwise kind the positions of its ``j`` robots, or for a
    ``RowStack`` its rows' points p, broadcasting together. ``kind.i`` is one
    robot or, for a team's rows, an id array broadcasting against the barrier
    values.
    """
    k = h.size
    return RowBlock(kind.gradient(*positions).reshape(k, 2), -kind.share * class_k(h.reshape(k), params), kind.hard)
