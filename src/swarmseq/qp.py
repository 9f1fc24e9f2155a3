"""Minimally invasive control filter: project nominal inputs onto barrier rows.

Solves, for every robot of a team,

    minimize    |u_hat - u|^2
    subject to  a_r . u >= b_r   for every constraint row r of the robot
                |u|_inf <= speed_limit

The objective is strictly convex, so each minimizer is unique. In the plane
it is the nominal itself, the projection onto one violated row, or a vertex
of two rows: at the optimum, u* - u_hat lies in the cone of the active
normals, which two of them span in the plane. ``solve`` tries these in
stages for the whole team at once (``_project``), each stage's winner the
feasible candidate nearest the nominal, the first on ties, until no robot is
left:

  1. the nominal, when it satisfies every row;
  2. the projection onto one violated row that lands in the polygon (a
     half-space projection inside the polygon is the polygon's), on the
     whole team's layout as it is, where a robot that violates no row has
     no candidate;
  3. the vertex of two rows, at least one of them violated, that lies in
     the polygon and has non-negative multipliers (Cramer's rule), on the
     rows of only the robots stage 2 leaves. Each robot's rows are taken by
     ``take`` on the robot index, and the rows' p and q columns of every pair
     p < q by one ``take`` on the columns p then q, cached per width.

Each stage's feasibility test and answer read their candidates through
flat indices (``take`` and ``put``), never through 2-D fancy indexing.

A team's rows arrive flat, row k a row of the robot at index
``rows.slots[k]``, where ``rows`` is the ``RowLayout``, the read-only index
of the team's row structure. ``solve`` runs the first stage on the flat rows
(``row_slack``) and answers a team whose every nominal satisfies its rows
and the speed box with those nominals, with no layout built. Only other
teams are laid out, one layout row per robot: its rows in flat order, then
pad rows 0 . u >= -1, which never bind, up to the team's largest row count,
then the four speed-box rows. Every dot product is written out as
a0*x0 + a1*x1, so a robot's answer is bitwise the same in any team. The
tests keep an independent enumeration oracle (``tests/oracle.py``), which
must agree with ``solve`` to 1e-6.

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

import numpy as np

SLACK_PENALTY = 1e4
MAX_ROWS = 64  # per robot; desk-scale cap

_FEAS_TOL = 1e-9
_SIDE = 1e-10  # how far off its lines a relaxation candidate's point lies, in row units

_BOX_NORMALS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
_BOX_NORMALS.flags.writeable = False


@dataclass(frozen=True)
class RowLayout:
    """The read-only index of a team's row structure. Row k is a row of the
    robot at index ``slots[k]``, at the flat cell ``cells[k]`` of the (n,
    width + 4) layout: robot r's ``counts[r]`` rows in columns 0.., in flat
    order, pad rows 0 . u >= -1 up to ``width``, the largest count, then the
    speed box. ``hard`` marks the cells a relaxation keeps: hard rows, pad
    rows and the box.
    """

    slots: np.ndarray
    cells: np.ndarray
    counts: np.ndarray
    hard: np.ndarray

    @classmethod
    def of(cls, slots, hard, n):
        """The index of the rows of a team of n, row k robot ``slots[k]``'s, hard where ``hard[k]``."""
        slots = np.array(slots, dtype=int)
        counts = np.bincount(slots, minlength=n)
        order = slots.argsort(kind="stable")
        columns = np.empty(len(slots), dtype=int)
        columns[order] = np.arange(len(slots)) - slots[order].searchsorted(slots[order])
        mask = np.ones((n, int(counts.max(initial=0)) + 4), dtype=bool)
        mask[slots, columns] = hard
        cells = slots * mask.shape[1] + columns
        for a in (slots, cells, counts, mask):
            a.flags.writeable = False
        return cls(slots, cells, counts, mask)

    @property
    def width(self):
        return self.hard.shape[1] - 4

    def __len__(self):
        return len(self.slots)


@dataclass(frozen=True)
class QpProblem:
    """A team's QPs: ``nominal`` (n, 2), each robot's input, and the flat
    rows ``normals`` (R, 2) and ``offsets`` (R,), row k normals[k] . u >=
    offsets[k] a row of the robot at index ``rows.slots[k]`` of the
    ``RowLayout`` ``rows``. Coefficients must be finite, and no robot may
    have more than MAX_ROWS rows.
    """

    nominal: np.ndarray
    rows: RowLayout
    normals: np.ndarray
    offsets: np.ndarray
    speed_limit: float

    def __post_init__(self):
        nominal, normals = np.asarray(self.nominal, dtype=float), np.asarray(self.normals, dtype=float)
        offsets = np.asarray(self.offsets, dtype=float)
        shape, width, limit = (len(self.rows.counts), 2), self.rows.width, self.speed_limit
        if nominal.shape != shape:
            raise ValueError(f"nominal input has shape {nominal.shape}, expected {shape}")
        if not np.isfinite(nominal).all():
            raise ValueError("nominal input is not finite")
        if not limit > 0:
            raise ValueError("speed limit must be positive")
        if width > MAX_ROWS:
            raise ValueError(f"too many rows ({width}) for one robot; cap is {MAX_ROWS}")
        if not (np.isfinite(normals).all() and np.isfinite(offsets).all() and math.isfinite(limit)):
            raise ValueError("constraint row has non-finite coefficients")
        for name, a in (("nominal", nominal), ("normals", normals), ("offsets", offsets)):
            object.__setattr__(self, name, a)

    def laid_out(self):
        """The rows in a fresh layout, normals (n, width + 4, 2) and offsets
        (n, width + 4): each row in its cell, pad rows, then the speed box."""
        rows = self.rows
        normals, offsets = np.zeros(rows.hard.shape + (2,)), np.full(rows.hard.shape, -1.0)
        normals.reshape(-1, 2)[rows.cells], offsets.reshape(-1)[rows.cells] = self.normals, self.offsets
        normals[:, rows.width:], offsets[:, rows.width:] = _BOX_NORMALS, -self.speed_limit
        return normals, offsets


@dataclass(frozen=True)
class QpSolution:
    """The solution of a ``QpProblem``, shaped like it.

    ``u`` is (n, 2), each robot's input. ``multipliers`` and
    ``slacks`` are shaped like the layout, (n, width + 4): every
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
    """Row indices p < q of every pair of ``width`` rows, and p then q as
    one array, read-only."""
    p, q = np.triu_indices(width, 1)
    pq = np.concatenate((p, q))
    p.flags.writeable = q.flags.writeable = pq.flags.writeable = False
    return p, q, pq


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
    x, lam = u.copy(), np.zeros((n, width))
    if found.all():
        return found, x, lam
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the one-row stage, on the whole team: the projection onto each
        # violated row, with its multiplier
        t = -slack / (a0 * a0 + a1 * a1)
        x0, x1 = u[:, :1] + t * a0, u[:, 1:] + t * a1
        won, best = _nearest(viol.copy(), x0, x1, u, a0, a1, offsets)
        r = won.nonzero()[0]
        cell = r * width + best.take(r)
        x[r, 0], x[r, 1] = x0.take(cell), x1.take(cell)
        lam.put(cell, np.maximum(t.take(cell), 0.0))
        found |= won
        todo = (~found).nonzero()[0]
        if not len(todo):
            return found, x, lam
        # the vertex stage, on the robots left: the vertex of each pair p < q
        # of rows, at least one violated, if its multipliers are non-negative;
        # each gather takes the rows' p and q columns at once
        p, q, pq = _pairs(width)
        k = len(p)
        uu, a0, a1, b = u.take(todo, 0), a0.take(todo, 0), a1.take(todo, 0), offsets.take(todo, 0)
        (ap0, aq0), (ap1, aq1), (bp, bq) = ((a[:, :k], a[:, k:]) for a in (c.take(pq, 1) for c in (a0, a1, b)))
        vp = viol.take(todo, 0).take(pq, 1)
        det = ap0 * aq1 - ap1 * aq0
        x0, x1 = (bp * aq1 - ap1 * bq) / det, (ap0 * bq - bp * aq0) / det
        d0, d1 = x0 - uu[:, :1], x1 - uu[:, 1:]
        lp, lq = (d0 * aq1 - aq0 * d1) / det, (ap0 * d1 - d0 * ap1) / det
        ok = (vp[:, :k] | vp[:, k:]) & (det != 0) & (lp >= -_FEAS_TOL) & (lq >= -_FEAS_TOL)
        won, best = _nearest(ok, x0, x1, uu, a0, a1, b)
        i = won.nonzero()[0]
        best = best.take(i)
        cell, r = i * k + best, todo.take(i)
        x[r, 0], x[r, 1] = x0.take(cell), x1.take(cell)
        lam.put(r * width + p.take(best), np.maximum(lp.take(cell), 0.0))
        lam.put(r * width + q.take(best), np.maximum(lq.take(cell), 0.0))
        found[r] = True
    return found, x, lam


def _nearest(ok, x0, x1, u, a0, a1, b):
    """Each robot's candidate nearest its u[r] that meets all its rows a0, a1,
    b, the first on ties: (whether it has one, the column of it). Robot r's
    candidates are (x0[r, c], x1[r, c]) for c where ``ok[r, c]``; ``ok`` is
    overwritten with their feasibility, checked on them only. The candidates
    and their robots' rows are gathered through flat indices."""
    cell = ok.reshape(-1).nonzero()[0]
    rr = cell // ok.shape[1]
    c0, c1 = x0.take(cell)[:, None], x1.take(cell)[:, None]
    ok.put(cell, (a0.take(rr, 0) * c0 + a1.take(rr, 0) * c1 - b.take(rr, 0) >= -_FEAS_TOL).all(axis=1))
    d0, d1 = x0 - u[:, :1], x1 - u[:, 1:]
    return ok.any(axis=1), np.where(ok, d0 * d0 + d1 * d1, np.inf).argmin(axis=1)


def row_slack(u0, u1, a0, a1, b):
    """The first stage's test: the slacks a0*u0 + a1*u1 - b of rows a . u >= b
    at inputs (u0, u1), and which of them the inputs violate."""
    slack = a0 * u0 + a1 * u1 - b
    return slack, slack < -_FEAS_TOL


def solve(problem):
    """Unique minimizer of |u_hat - u|^2 over the rows and the speed box, for
    every robot of the problem (see the module docstring for the stages).

    A team whose every nominal satisfies its rows and the box gets them, with
    status ``optimal`` and zero multipliers and slacks, as the stages give
    them, from its flat rows. A robot whose rows are inconsistent gets the
    slack relaxation of its soft rows (``relaxed``), or a zero input with
    status ``infeasible_hard`` when even its hard rows admit no input.
    """
    nominal, rows, limit = problem.nominal, problem.rows, problem.speed_limit
    # the box first: it rejects most teams the first stage leaves, and reads
    # only the nominals. Its rows (+-1, 0) . u >= -limit and (0, +-1) . u >=
    # -limit have the slacks limit +- u, bit for bit
    if not (limit - np.abs(nominal) < -_FEAS_TOL).any():
        u, normals = nominal.take(rows.slots, axis=0), problem.normals
        if not row_slack(u[:, 0], u[:, 1], normals[:, 0], normals[:, 1], problem.offsets)[1].any():
            shape = rows.hard.shape
            return QpSolution(nominal.copy(), "optimal", ("optimal",) * len(nominal), np.zeros(shape), np.zeros(shape))
    return _staged(problem)


def _staged(problem):
    """``solve``'s stages on the problem's rows, laid out."""
    rows, nominal = problem.rows, problem.nominal
    normals, offsets = problem.laid_out()
    found, u, lam = _project(nominal, normals, offsets)
    slacks = np.zeros(rows.hard.shape)
    statuses = ["optimal"] * len(nominal)
    stuck = (~found).nonzero()[0]
    if len(stuck):
        relaxed, u[stuck], lam[stuck], slacks[stuck] = _relax(rows, normals, offsets, nominal[stuck], stuck)
        for r, ok in zip(stuck.tolist(), relaxed.tolist()):
            statuses[r] = "relaxed" if ok else "infeasible_hard"
    # a team's status is that of its worst robot
    status = "optimal" if not len(stuck) else "relaxed" if relaxed.all() else "infeasible_hard"
    return QpSolution(u, status, tuple(statuses), lam, slacks)


def _relax(rows, normals, offsets, nominal, stuck):
    """The slack relaxation of the laid-out robots ``stuck``: the minimizer u*
    of F(u) = |u - u_hat|^2 + SLACK_PENALTY * sum_s max(0, b_s - a_s.u)^2 over
    the hard rows and the box, s running over the soft rows. u* also minimizes
    F_S, F with the max dropped and s running over the set S of soft rows that
    u* violates; ``_penalized`` solves F_S for each candidate S of
    ``_candidates``.

    Returns (relaxed, u, lam, slacks), the last two shaped like the layout:
    whether the robot's hard rows admit an input, its input (zero if not),
    and its rows' multipliers and slacks.
    """
    hard, normals, offsets = rows.hard[stuck], normals[stuck], offsets[stuck]
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
    p, q = (np.repeat(r, 4) for r in _pairs(k + 4)[:2])
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
