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
stack. Every barrier squares distances with ``sq_dist``. ``constraint_row``
turns one such stack into a ``RowBlock``, one row per barrier; a stack whose
``i`` is an array of robots gives a team's rows, one robot per row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class FcbfParams:
    """Class-K rate parameters: exponent rho in [0, 1), gain gamma > 0."""

    rho: float = 0.5
    gamma: float = 1.0

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


@dataclass(frozen=True)
class Connectivity:
    """h = delta^2 - |x_i - x_j|^2: robots i and j within sensing range."""

    i: int
    j: int
    delta: float

    hard = False
    share = 0.5

    def __post_init__(self):
        if _pairs_a_robot_with_itself(self.i, self.j):
            raise ValueError("connectivity barrier needs two distinct robots")

    def value(self, xi, xj):
        # libm's pow (float_power), as Python's delta**2, also for a per-row
        # delta array, where numpy's ** 2 would multiply
        return np.float_power(self.delta, 2) - sq_dist(xi - xj)

    def gradient(self, xi, xj):
        """dh/dx_i; the gradient in x_j is its negation."""
        return -2.0 * (xi - xj)


@dataclass(frozen=True)
class Collision:
    """h = |x_i - x_j|^2 - min_sep^2: robots i and j at least min_sep apart."""

    i: int
    j: int
    min_sep: float

    hard = True
    share = 0.5

    def __post_init__(self):
        if _pairs_a_robot_with_itself(self.i, self.j):
            raise ValueError("collision barrier needs two distinct robots")

    def value(self, xi, xj):
        return sq_dist(xi - xj) - self.min_sep**2

    def gradient(self, xi, xj):
        """dh/dx_i; the gradient in x_j is its negation."""
        return 2.0 * (xi - xj)


@dataclass(frozen=True)
class ObstacleAvoid:
    """h = (x_i - o)' diag(a, b) (x_i - o) - 1: robot i outside an ellipse.

    The obstacle may be a stack of ellipses (see ``Domain.obstacle_stack``);
    the value then broadcasts over them, one entry per obstacle.
    """

    i: int
    obstacle: Obstacle

    hard = True
    share = 1.0

    def value(self, x):
        o = self.obstacle
        v = x - o.center
        # squares with libm's pow (float_power), not numpy's ** 2, which
        # multiplies: the two differ in the last bit for ~0.1% of inputs, and
        # securing_a_building's tick count depends on that bit
        return o.a * np.float_power(v[..., 0], 2) + o.b * np.float_power(v[..., 1], 2) - 1.0

    def gradient(self, x):
        o = self.obstacle
        return 2.0 * (x - o.center) * np.stack((o.a, o.b), axis=-1)


@dataclass(frozen=True)
class KeepWithin:
    """h = radius^2 - |x_i - center|^2: robot i inside a disc (anchor constraint)."""

    i: int
    center: tuple
    radius: float

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


@dataclass(frozen=True)
class RowBlock:
    """Rows normals[r] . u >= offsets[r] on robot inputs, as arrays normals
    (k, 2), offsets (k,) and the hard mask (k,), with each row's identity:
    its barrier class ``kinds[r]``, and ``others[r]``, the other robot of a
    pairwise barrier, else the row's 1-based index in its kind's stack (the
    obstacle index for ``Domain.obstacle_stack``).

    ``robot`` is the robot whose input the rows act on: one id for a block of
    one robot's rows, or a (k,) array with each row's robot for a team's.
    """

    robot: int
    normals: np.ndarray
    offsets: np.ndarray
    hard: np.ndarray
    others: np.ndarray
    kinds: tuple

    def __len__(self):
        return len(self.offsets)

    @property
    def owners(self):
        """The robot of each row, as a (k,) array."""
        return np.full(len(self), self.robot) if np.ndim(self.robot) == 0 else self.robot

    def take(self, index):
        """The rows at ``index`` (an integer array), in that order."""
        robot = self.robot if np.ndim(self.robot) == 0 else self.robot[index]
        return RowBlock(robot, self.normals[index], self.offsets[index], self.hard[index],
                        self.others[index], tuple(self.kinds[k] for k in index))

    @classmethod
    def concat(cls, blocks):
        """The rows of a sequence of blocks, in order; all must be one robot's."""
        robots = {b.robot for b in blocks}
        if len(robots) > 1:
            raise ValueError(f"rows reference multiple robots: {sorted(robots)}")
        if len(blocks) == 1:
            return blocks[0]
        return replace(cls.team(blocks), robot=robots.pop() if robots else 0)

    @classmethod
    def team(cls, blocks):
        """The rows of blocks of any robots, in order, as one block with the
        robot of each row."""
        if not blocks:
            return cls(np.empty(0, int), np.empty((0, 2)), np.empty(0), np.empty(0, bool),
                       np.empty(0, int), ())
        owners = np.concatenate([b.owners for b in blocks])
        arrays = zip(*((b.normals, b.offsets, b.hard, b.others) for b in blocks))
        return cls(owners, *map(np.concatenate, arrays), sum((b.kinds for b in blocks), ()))


def constraint_row(kind, params, *positions):
    """Rows (dh/dx_i) . u_i >= -share * rate(h) on the input of robot
    ``kind.i``, one per barrier of the kind's stack, in C order.

    ``positions`` are x_i, then for a pairwise kind the positions of its
    ``j`` robots, broadcasting together. ``kind.i`` is one robot or, for a
    team's rows, an id array broadcasting against the barrier values.
    """
    h = kind.value(*positions)
    shape = h.shape or (1,)
    k = h.size
    others = getattr(kind, "j", None)
    if others is None:
        others = np.arange(1, shape[-1] + 1)  # the index in the kind's stack
    robot = kind.i if np.ndim(kind.i) == 0 else _per_row(kind.i, shape)
    return RowBlock(
        robot,
        kind.gradient(*positions).reshape(k, 2),
        -kind.share * class_k(h.reshape(k), params),
        np.full(k, kind.hard),
        _per_row(others, shape),
        (type(kind),) * k,
    )


def _per_row(values, shape):
    """``values`` broadcast to the shape of a stack's barrier values, flat."""
    values = np.asarray(values)
    if values.shape != shape:
        values = np.broadcast_to(values, shape)
    return values.reshape(-1)
