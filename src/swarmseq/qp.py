"""Minimally invasive control filter: project nominal inputs onto barrier rows.

Solves, for every robot of a team,

    minimize    |u_hat - u|^2
    subject to  a_r . u >= b_r   for every constraint row r of the robot
                |u|_inf <= speed_limit

The objective is strictly convex, so each minimizer is unique. In the plane
it is the nominal itself, the projection onto one violated row, or a vertex
of two rows (see ``oracle_solve``). ``solve`` tries these in stages for the
whole team at once, each stage on the robots the earlier ones left unsolved:

  1. the nominal, when it satisfies every row;
  2. the best projection onto one violated row that lands in the polygon
     (a half-space projection inside the polygon is the polygon's);
  3. the best vertex of two rows, at least one of them violated, that lies
     in the polygon and has non-negative multipliers (Cramer's rule).

The rows arrive in a ``RowLayout``, the layout ``solve`` works on: one
layout row per robot holding its rows, then pad rows 0 . u >= -1, which never
bind, up to the team's largest row count, then the four speed-box rows. The
padding happens when the rows are assembled (``agent.RowPlan.fill`` writes
each row straight into its place), so the solver neither gathers nor pads.
A layout holds numbers only; which barrier each row is, the row plan says.
``quiet`` runs the first stage on a team's rows before they are laid out,
flat. Every dot product is written out as a0*x0 + a1*x1, so a robot's answer
is bitwise the same in any team. ``oracle_solve`` independently enumerates the
active sets of a team of one robot; tests require the two to agree to 1e-6.

A robot with no feasible candidate is re-solved with quadratically penalized
slacks on its soft rows; hard rows (collision, obstacle) and the speed box
are never relaxed. Eliminating the slacks leaves a convex piecewise
quadratic, one quadratic for each set of soft rows the input violates. On
one piece the problem is a projection in another metric, which the same
staged pass solves after a change of variables (``_penalized``); the pieces
to try are read off the crossings of the soft rows' and the box's lines
(``_candidates``), for all the stuck robots at once. If the hard rows alone
admit no input, the robot freezes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

SLACK_PENALTY = 1e4
MAX_ROWS = 64  # per robot; desk-scale cap

_FEAS_TOL = 1e-9
_SIDE = 1e-10  # how far off its lines a relaxation candidate's point lies, in row units

# worst first: a team's status is that of its worst robot
_STATUSES = ("infeasible_hard", "relaxed", "optimal")
_BOX_NORMALS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
_BOX_NORMALS.flags.writeable = False


@dataclass(frozen=True)
class RowLayout:
    """Every robot's rows in the solver's layout, one layout row per robot.

    Robot ``robots[r]``'s ``counts[r]`` rows fill columns 0..counts[r]-1 of
    ``normals`` (n, width + 4, 2) and ``offsets`` (n, width + 4), pad rows
    0 . u >= -1 the columns up to ``width``, the largest count, and the speed
    box, which ``QpProblem`` writes, the last four. ``hard`` marks the rows a
    relaxation keeps: hard rows, pad rows and the box.
    """

    robots: np.ndarray
    counts: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    hard: np.ndarray

    @classmethod
    def empty(cls, robots, counts):
        """A layout of pad rows only, for ``counts[r]`` rows of ``robots[r]``."""
        shape = (len(counts), int(counts.max(initial=0)) + 4)
        return cls(robots, counts, np.zeros(shape + (2,)), np.full(shape, -1.0), np.ones(shape, dtype=bool))

    @property
    def width(self):
        return self.offsets.shape[1] - 4

    def __len__(self):
        return int(self.counts.sum())


@dataclass(frozen=True)
class QpProblem:
    """A team's QPs: ``rows`` a ``RowLayout`` and ``nominal`` (n, 2), each
    robot's input. Coefficients must be finite, and no robot may have more
    than MAX_ROWS rows.
    """

    nominal: np.ndarray
    rows: RowLayout
    speed_limit: float

    def __post_init__(self):
        nom, rows = np.asarray(self.nominal, dtype=float), self.rows
        width = rows.width
        _check(nom, (len(rows.counts), 2), self.speed_limit, width)
        rows.normals[:, width:] = _BOX_NORMALS
        rows.offsets[:, width:] = -self.speed_limit
        _check_rows(rows.normals, rows.offsets, self.speed_limit)
        object.__setattr__(self, "nominal", nom)


def _check(nominal, shape, speed_limit, width):
    """A ``QpProblem``'s checks before its rows', in its order."""
    if nominal.shape != shape:
        raise ValueError(f"nominal input has shape {nominal.shape}, expected {shape}")
    if not np.isfinite(nominal).all():
        raise ValueError("nominal input is not finite")
    if not speed_limit > 0:
        raise ValueError("speed limit must be positive")
    if width > MAX_ROWS:
        raise ValueError(f"too many rows ({width}) for one robot; cap is {MAX_ROWS}")


def _check_rows(normals, offsets, speed_limit):
    """A ``QpProblem``'s last check: finite rows, the speed box's too."""
    if not (np.isfinite(normals).all() and np.isfinite(offsets).all() and math.isfinite(speed_limit)):
        raise ValueError("constraint row has non-finite coefficients")


@dataclass(frozen=True)
class QpSolution:
    """The solution of a ``QpProblem``, shaped like it.

    ``u`` is (n, 2), each robot's input. ``multipliers`` and
    ``slacks`` are shaped like the layout's offsets, (n, width + 4): every
    row's multiplier, the speed box's in the last four columns, and every
    soft row's slack, zero on the other rows. ``statuses`` has one status per
    robot and ``status`` is the worst of them.
    """

    u: np.ndarray
    status: str  # optimal | relaxed | infeasible_hard
    statuses: tuple
    multipliers: np.ndarray
    slacks: np.ndarray


@functools.lru_cache(maxsize=16)
def _pairs(width):
    """Row indices p < q of every pair of ``width`` rows, read-only."""
    p, q = np.triu_indices(width, 1)
    p.flags.writeable = q.flags.writeable = False
    return p, q


def _project(u, normals, offsets):
    """Projections of each robot's u[r] onto {x : normals[r] x >= offsets[r]}.

    ``normals`` is (n, k, 2) and ``offsets`` (n, k), the same row count for
    every robot. Returns (found, x, lam): whether a candidate was found (the
    polygon is not empty), the projection, and the multipliers of the rows.
    """
    n, width = offsets.shape
    a0, a1 = normals[..., 0], normals[..., 1]
    slack, viol = row_slack(u[:, :1], u[:, 1:], a0, a1, offsets)
    found = ~viol.any(axis=1)
    x = u.copy()
    lam = np.zeros((n, width))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for stage in (_single_row_stage, _row_pair_stage):
            todo = (~found).nonzero()[0]
            if not len(todo):
                break
            uu, a0_, a1_, b, s, v = (w[todo] for w in (u, a0, a1, offsets, slack, viol))
            ok, x0, x1, rows, lams = stage(uu, a0_, a1_, b, s, v)
            # the feasible candidate nearest the nominal, the first on ties;
            # feasibility is checked on the candidates still ok only
            rr, cc = ok.nonzero()
            c0, c1 = x0[rr, cc], x1[rr, cc]
            slack_c = a0_[rr] * c0[:, None] + a1_[rr] * c1[:, None] - b[rr]
            ok[rr, cc] = (slack_c >= -_FEAS_TOL).all(axis=1)
            d0, d1 = x0 - uu[:, :1], x1 - uu[:, 1:]
            obj = np.where(ok, d0 * d0 + d1 * d1, np.inf)
            best = obj.argmin(axis=1)
            i = (obj[np.arange(len(best)), best] < np.inf).nonzero()[0]
            r, best = todo[i], best[i]
            x[r, 0], x[r, 1] = x0[i, best], x1[i, best]
            for k, lam_k in zip(rows, lams):
                lam[r, k[best]] = np.maximum(lam_k[i, best], 0.0)
            found[r] = True
    return found, x, lam


def row_slack(u0, u1, a0, a1, b):
    """The first stage's test: the slacks a0*u0 + a1*u1 - b of rows a . u >= b
    at inputs (u0, u1), and which of them the inputs violate."""
    slack = a0 * u0 + a1 * u1 - b
    return slack, slack < -_FEAS_TOL


def quiet(nominal, slots, normals, offsets, speed_limit, template):
    """The solution of a team's problem whose first stage finds every robot,
    without laying out its rows, else None.

    Row k, ``normals[k]`` . u >= ``offsets[k]``, is a row of the robot at
    slot ``slots[k]``, and ``template`` is the layout the rows fill: its
    width and robot count. Every nominal that satisfies all its rows and the
    speed box is its robot's answer, with status ``optimal`` and zero
    multipliers and slacks, as ``solve`` gives it. Before it answers, it runs
    every check of a ``QpProblem`` of the laid-out rows and raises its
    ``ValueError``; a team it leaves to ``solve`` may be checked only there.
    """
    nominal = np.asarray(nominal, dtype=float)
    _check(nominal, (len(template.counts), 2), speed_limit, template.width)
    # the box first: it rejects most teams that are not quiet, and reads only
    # the checked nominal. Its rows (+-1, 0) . u >= -speed_limit and
    # (0, +-1) . u >= -speed_limit have the slacks speed_limit +- u, bit for bit
    if (speed_limit - np.abs(nominal) < -_FEAS_TOL).any():
        return None
    _check_rows(normals, offsets, speed_limit)
    u = nominal[slots]
    if row_slack(u[:, 0], u[:, 1], normals[:, 0], normals[:, 1], offsets)[1].any():
        return None
    shape = template.offsets.shape
    return QpSolution(nominal.copy(), "optimal", ("optimal",) * len(nominal), np.zeros(shape), np.zeros(shape))


def _single_row_stage(u, a0, a1, b, slack, viol):
    """Candidates (robot, row): the projection onto each violated row, with
    its multiplier."""
    t = -slack / (a0 * a0 + a1 * a1)
    return viol, u[:, :1] + t * a0, u[:, 1:] + t * a1, (np.arange(b.shape[1]),), (t,)


def _row_pair_stage(u, a0, a1, b, slack, viol):
    """Candidates (robot, pair p < q of rows, at least one violated): the
    vertex where both rows bind, if its multipliers are non-negative."""
    p, q = _pairs(b.shape[1])
    ap0, ap1, aq0, aq1 = a0[:, p], a1[:, p], a0[:, q], a1[:, q]
    bp, bq = b[:, p], b[:, q]
    det = ap0 * aq1 - ap1 * aq0
    x0 = (bp * aq1 - ap1 * bq) / det
    x1 = (ap0 * bq - bp * aq0) / det
    d0, d1 = x0 - u[:, :1], x1 - u[:, 1:]
    lp = (d0 * aq1 - aq0 * d1) / det
    lq = (ap0 * d1 - d0 * ap1) / det
    ok = (viol[:, p] | viol[:, q]) & (det != 0) & (lp >= -_FEAS_TOL) & (lq >= -_FEAS_TOL)
    return ok, x0, x1, (p, q), (lp, lq)


def solve(problem):
    """Unique minimizer of |u_hat - u|^2 over the rows and the speed box, for
    every robot of the problem (see the module docstring for the stages).

    A robot whose rows are inconsistent gets the slack relaxation of its soft
    rows (``relaxed``), or a zero input with status ``infeasible_hard`` when
    even its hard rows admit no input.
    """
    rows, nominal = problem.rows, problem.nominal
    found, u, lam = _project(nominal, rows.normals, rows.offsets)
    statuses = np.full(len(nominal), "optimal", dtype=object)
    slacks = np.zeros(rows.hard.shape)
    stuck = (~found).nonzero()[0]
    if len(stuck):
        relaxed, u[stuck], lam[stuck], slacks[stuck] = _relax(rows, nominal[stuck], stuck)
        statuses[stuck] = np.where(relaxed, "relaxed", "infeasible_hard")
    statuses = tuple(statuses.tolist())

    return QpSolution(
        u=u,
        status=next((s for s in _STATUSES if s in statuses), "optimal"),
        statuses=statuses,
        multipliers=lam,
        slacks=slacks,
    )


def _relax(rows, nominal, stuck):
    """The slack relaxation of the layout's robots ``stuck``: the minimizer u*
    of F(u) = |u - u_hat|^2 + SLACK_PENALTY * sum_s max(0, b_s - a_s.u)^2 over
    the hard rows and the box, s running over the soft rows. u* also minimizes
    F_S, F with the max dropped and s running over the set S of soft rows that
    u* violates; ``_penalized`` solves F_S for each candidate S of
    ``_candidates``.

    Returns (relaxed, u, lam, slacks), the last two shaped like the layout:
    whether the robot's hard rows admit an input, its input (zero if not),
    and its rows' multipliers and slacks.
    """
    hard, normals, offsets = rows.hard[stuck], rows.normals[stuck], rows.offsets[stuck]
    n, width = hard.shape
    robots, column = np.arange(n)[:, None], np.arange(width)
    # each robot's k soft rows, then its box: the lines the candidates' corners
    # lie on; and its own hard rows with the box. Both keep the column order.
    k = max(1, width - int(hard.sum(axis=1).min()))
    soft_cols = np.argsort(hard, axis=1, kind="stable")[:, :k]
    lines = np.concatenate([soft_cols, np.tile(column[-4:], (n, 1))], axis=1)
    keep = hard & ((column < rows.counts[stuck, None]) | (column >= rows.width))
    hard_cols = np.argsort(~keep, axis=1, kind="stable")[:, :int(keep.sum(axis=1).max())]
    is_line, is_hard = ~hard[robots, lines] | (lines >= rows.width), keep[robots, hard_cols]
    a0, a1 = np.where(is_line[..., None], normals[robots, lines], 0.0).transpose(2, 0, 1)
    b = np.where(is_line, offsets[robots, lines], 0.0)
    hard_normals = np.where(is_hard[..., None], normals[robots, hard_cols], 0.0)
    hard_offsets = np.where(is_hard, offsets[robots, hard_cols], -1.0)

    owner, pattern = _candidates(a0, a1, b)
    a0, a1, b = a0[:, :k], a1[:, :k], b[:, :k]
    terms = SLACK_PENALTY * np.stack([a0 * a0, a0 * a1, a1 * a1, b * a0, b * a1], axis=-1)
    at = nominal[owner]
    ok, x, mu = _penalized(at, terms[owner], pattern, hard_normals[owner], hard_offsets[owner])
    d, resid = x - at, b[owner] - (a0[owner] * x[:, :1] + a1[owner] * x[:, 1:])
    over = np.maximum(resid, 0.0)
    cost = np.where(ok, (d * d).sum(axis=1) + SLACK_PENALTY * _fold(over * over), np.inf)
    # a candidate whose answer violates exactly its own set meets the
    # optimality conditions of F, so it is u*. Each robot takes its cheapest
    # such candidate, else its cheapest, the first on ties; the first n
    # candidates, the empty sets, are the projections onto the hard rows alone
    violates = resid > 0.0
    own = ok & (violates == pattern).all(axis=1)
    order = np.lexsort((cost, ~own, owner))
    best = order[np.searchsorted(owner[order], np.arange(n))]
    relaxed, u, mu = ok[:n] & ok[best], x[best], mu[best]
    # at a hard vertex several sets give one u with different multipliers, and
    # none may be its own: solve the winner again with the set it violates
    redo = (relaxed & ~own[best]).nonzero()[0]
    if len(redo):
        found, u[redo], mu[redo] = _penalized(
            nominal[redo], terms[redo], violates[best[redo]], hard_normals[redo], hard_offsets[redo])
        relaxed[redo] &= found

    u[~relaxed] = 0.0
    lam = np.zeros(hard.shape)
    lam[robots, hard_cols] = mu
    resid = offsets - (normals[..., 0] * u[:, :1] + normals[..., 1] * u[:, 1:])
    slacks = np.where(hard, 0.0, np.maximum(0.0, resid))
    lam = np.where(relaxed[:, None], np.where(hard, lam, SLACK_PENALTY * slacks), 0.0)
    return relaxed, u, lam, slacks


@functools.lru_cache(maxsize=16)
def _patterns(k):
    """For k soft rows and the four box rows, read-only: each pair p < q of
    the k + 4 lines four times, both violated, p only, q only and neither
    (a box row only satisfied), with the shifts of b_p and b_q that move the
    crossing ``_SIDE`` onto those sides; the soft rows each candidate forces
    and their values; and each soft row's bit of a set's key.
    """
    p, q = (np.repeat(r, 4) for r in _pairs(k + 4))
    way_p, way_q = (np.tile(w, len(p) // 4) for w in ([True, True, False, False], [True, False, True, False]))
    inside = ~(way_p & (p >= k) | way_q & (q >= k))  # the box taken one way only
    p, q, way_p, way_q = p[inside], q[inside], way_p[inside], way_q[inside]
    eye = np.eye(k + 4, dtype=bool)[:, :k]
    force, value = eye[p] | eye[q], eye[p] & way_p[:, None] | eye[q] & way_q[:, None]
    shift_p, shift_q = np.where(way_p, -_SIDE, _SIDE), np.where(way_q, -_SIDE, _SIDE)
    bits = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
    for a in (p, q, shift_p, shift_q, force, value, bits):
        a.flags.writeable = False
    return p, q, shift_p, shift_q, force, value, bits


def _candidates(a0, a1, b):
    """Candidate sets of violated soft rows, ``pattern`` (m, k), for robots
    ``owner`` (m,), no robot's set twice: first each robot's empty set, then
    the sets of each crossing of two of its lines, its soft rows' then the
    box's, the last four of the (n, k + 4) rows given.

    The soft lines cut the box into convex cells, one set each, and two lines
    cross at a corner of each. The point ``_SIDE`` off both lines into the
    cell takes the cell's set, also from a third line through the corner,
    whose side there is rounding noise. Parallel lines do not cross, and a
    zero row has no line.
    """
    n, k = b.shape[0], b.shape[1] - 4
    p, q, shift_p, shift_q, force, value, bits = _patterns(k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ap0, ap1, aq0, aq1 = a0[:, p], a1[:, p], a0[:, q], a1[:, q]
        bp, bq = b[:, p] + shift_p, b[:, q] + shift_q
        det = ap0 * aq1 - ap1 * aq0
        x0, x1 = (bp * aq1 - ap1 * bq) / det, (ap0 * bq - bp * aq0) / det
        side = b[:, None, :k] - (a0[:, None, :k] * x0[..., None] + a1[:, None, :k] * x1[..., None]) > 0.0
        owner, c = np.isfinite(x0 + x1).nonzero()
    pattern = np.concatenate([np.zeros((n, k), dtype=bool), np.where(force[c], value[c], side[owner, c])])
    owner = np.concatenate([np.arange(n), owner])
    key = pattern @ bits
    order = np.lexsort((key, owner))
    o, key = owner[order], key[order]
    keep = np.sort(order[np.concatenate([[True], (o[1:] != o[:-1]) | (key[1:] != key[:-1])])])
    return owner[keep], pattern[keep]


def _fold(terms):
    """Sums over axis 1, a left fold; + 0.0 turns a -0 sum into +0, as more +0 terms would."""
    return terms.cumsum(axis=1)[:, -1] + 0.0


def _penalized(nominal, terms, pattern, normals, offsets):
    """Minimizers of |u - u_hat|^2 + SLACK_PENALTY * sum_{s in S} (b_s - a_s.u)^2
    over {u : normals u >= offsets}, S marked by each row of ``pattern``, and
    ``terms`` each soft row's SLACK_PENALTY * (a0 a0, a0 a1, a1 a1, b a0, b a1).

    The objective is |L^T u - L^-1 c|^2 plus a constant, with H = I + w sum
    a a^T = L L^T and c = u_hat + w sum b a; so ``_project`` solves it in
    v = L^T u, on the rows (L^-1 a).v >= b, with the same multipliers. L is
    the 2x2 Cholesky factor, written out. Returns (found, u, multipliers).
    """
    h = _fold(np.where(pattern[..., None], terms, 0.0))
    l00 = np.sqrt(h[:, 0] + 1.0)
    l10 = h[:, 1] / l00
    l11 = np.sqrt(h[:, 2] + 1.0 - l10 * l10)
    n0 = normals[..., 0] / l00[:, None]
    n1 = (normals[..., 1] - l10[:, None] * n0) / l11[:, None]
    t0 = (h[:, 3] + nominal[:, 0]) / l00
    t1 = (h[:, 4] + nominal[:, 1] - l10 * t0) / l11
    found, v, lam = _project(np.column_stack([t0, t1]), np.stack([n0, n1], axis=-1), offsets)
    u1 = v[:, 1] / l11
    return found, np.column_stack([(v[:, 0] - l10 * u1) / l00, u1]), lam


def kkt_residuals(problem, solution):
    """Stationarity, dual-feasibility, and complementarity residuals of the
    problem of a team of one robot (``ValueError`` for a larger team).

    For status ``relaxed`` the checked optimality system is that of the
    slack-extended problem: soft rows are credited their reported slack, so
    the same stationarity expression (u - u_hat) = sum(lam * a) applies.
    Complementarity is reported scale-invariantly, |lam * resid| / (1 + lam),
    so the large penalty multipliers of relaxed rows do not inflate a
    machine-precision residual.
    """
    normals, offsets, _, nominal = _one_robot(problem)
    u, lam = solution.u[0], solution.multipliers[0]
    resid = normals @ u - offsets
    if solution.status == "relaxed":
        resid += solution.slacks[0]
    grad = u - nominal - lam @ normals
    return {
        "stationarity": float(np.max(np.abs(grad))),
        "primal": max(0.0, float(np.max(-resid))),
        "dual": max(0.0, float(np.max(-lam))),
        "complementarity": float(np.max(np.abs(lam * resid) / (1.0 + np.abs(lam)))),
    }


def _one_robot(problem):
    """The one robot's row of a team of one, every column (its rows, pad
    rows and the box), as (normals, offsets, hard, nominal)."""
    rows = problem.rows
    if len(rows.counts) != 1:
        raise ValueError(f"expected one robot's problem, got a team of {len(rows.counts)}")
    return rows.normals[0], rows.offsets[0], rows.hard[0], problem.nominal[0]


def oracle_solve(problem):
    """Active-set enumeration reference solver, exact up to floating point,
    for the problem of a team of one robot (``ValueError`` for a larger team).

    Candidate active sets of size at most two suffice in the plane: at the
    optimum, u* - u_hat lies in the cone of the active normals, and any
    vector in a finitely generated cone in R^2 is a nonnegative combination
    of at most two generators.
    """
    normals, offsets, hard, _ = _one_robot(problem)
    nrows = int(problem.rows.counts[0])
    if nrows > 12:
        raise ValueError(f"oracle enumeration capped at 12 rows, got {nrows}")

    soft = np.flatnonzero(~hard)
    lam = np.zeros((1, len(offsets)))
    slacks = np.zeros((1, len(offsets)))
    cand = _enumerate(problem, relax=False)
    if cand is not None:
        u, lam[0] = cand
        return QpSolution(u[None], "optimal", ("optimal",), lam, slacks)

    cand = _enumerate(problem, relax=True)
    if cand is None:
        # the frozen robot's input is zero
        slacks[0, soft] = np.maximum(0.0, offsets[soft])
        return QpSolution(np.zeros((1, 2)), "infeasible_hard", ("infeasible_hard",), lam, slacks)

    u, lam[0, hard] = cand
    slacks[0, soft] = np.maximum(0.0, offsets[soft] - normals[soft] @ u)
    lam[0, soft] = SLACK_PENALTY * slacks[0, soft]
    return QpSolution(u[None], "relaxed", ("relaxed",), lam, slacks)


def _enumerate(problem, relax):
    """Reference minimizer of one robot's problem by enumeration, with
    (``relax``) or without the slack relaxation of its soft rows.

    Eliminating the optimal slacks xi_s = max(0, b_s - a_s.u) leaves
        F(u) = |u - u_hat|^2 + w * sum_s max(0, b_s - a_s.u)^2
    to be minimized over the hard rows and the box; without relaxation, every
    row is a constraint and there is no sum. For each guess of which soft rows
    are violated, F is a plain quadratic; each active set of at most two
    constraint rows gives a candidate (a KKT solve), and the candidate
    consistent with its guess, feasible and with non-negative multipliers,
    of least F wins. Returns (u, the constraint rows' multipliers), or None
    when no candidate is feasible.
    """
    w = SLACK_PENALTY
    all_normals, all_offsets, hard, nominal = _one_robot(problem)
    soft = ~hard if relax else np.zeros(len(hard), dtype=bool)
    soft_normals, soft_offsets = all_normals[soft], all_offsets[soft]
    normals, offsets = all_normals[~soft], all_offsets[~soft]
    m, ns = len(normals), len(soft_offsets)
    subsets = [[], *map(list, combinations(range(m), 1)), *map(list, combinations(range(m), 2))]
    best = None
    for mask in range(1 << ns):
        pattern = np.array([mask >> s & 1 for s in range(ns)], dtype=bool)
        hess = np.eye(2) + w * soft_normals[pattern].T @ soft_normals[pattern]
        lin = nominal + w * soft_offsets[pattern] @ soft_normals[pattern]
        for sub in subsets:
            nmat = normals[sub].reshape(len(sub), 2)
            kkt = np.zeros((2 + len(sub), 2 + len(sub)))
            kkt[:2, :2], kkt[:2, 2:], kkt[2:, :2] = hess, -nmat.T, nmat
            try:
                sol = np.linalg.solve(kkt, np.concatenate([lin, offsets[sub]]))
            except np.linalg.LinAlgError:
                continue
            u, mu = sol[:2], sol[2:]
            over = soft_offsets - soft_normals @ u
            if ((mu < -_FEAS_TOL).any() or (m and (normals @ u - offsets).min() < -1e-8)
                    or np.where(pattern, over < -1e-8, over > 1e-8).any()):
                continue
            over = np.maximum(over, 0.0)
            obj = float((u - nominal) @ (u - nominal) + w * over @ over)
            if best is None or obj < best[0] - 1e-15:
                lam = np.zeros(m)
                lam[sub] = np.maximum(mu, 0.0)
                best = (obj, u, lam)
    return None if best is None else best[1:]
