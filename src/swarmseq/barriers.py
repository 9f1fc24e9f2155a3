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
2-axis of position arrays, so the same method serves one robot on one tick
and a whole (ticks, 2) trajectory; every barrier squares distances with
``sq_dist``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Signed-power class-K rate: gamma * sign(h) * |h|^rho, with sign(0) = 0."""
    if h == 0.0:
        return 0.0
    return params.gamma * math.copysign(abs(h) ** params.rho, h)


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


@dataclass(frozen=True)
class Connectivity:
    """h = delta^2 - |x_i - x_j|^2: robots i and j within sensing range."""

    i: int
    j: int
    delta: float

    hard = False
    share = 0.5

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("connectivity barrier needs two distinct robots")

    def value(self, xi, xj):
        return self.delta**2 - sq_dist(xi - xj)

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
        if self.i == self.j:
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
        return 2.0 * (x - o.center) * (o.a, o.b)


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
class ConstraintRow:
    """Affine inequality normal . u >= offset on one robot's control input."""

    robot: int
    normal: np.ndarray
    offset: float
    source: object
    hard: bool

    def __post_init__(self):
        normal = self.normal
        if not (
            isinstance(normal, np.ndarray) and normal.dtype == np.float64 and normal.shape == (2,)
        ):
            normal = np.asarray(normal, dtype=float).reshape(2)
            object.__setattr__(self, "normal", normal)
        if not (
            math.isfinite(normal[0]) and math.isfinite(normal[1]) and math.isfinite(self.offset)
        ):
            raise ValueError("constraint row has non-finite coefficients")

    def satisfied_by(self, u, tol=1e-9):
        return float(self.normal @ u) >= self.offset - tol


def constraint_row(kind, params, *positions):
    """Row (dh/dx_i) . u_i >= -share * rate(h) on robot ``kind.i``'s input.

    ``positions`` are x_i, then x_j for a pairwise kind.
    """
    return ConstraintRow(
        robot=kind.i,
        normal=kind.gradient(*positions),
        offset=-kind.share * class_k(float(kind.value(*positions)), params),
        source=kind,
        hard=kind.hard,
    )
