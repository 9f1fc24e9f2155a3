"""Minimally invasive control filter: project nominal inputs onto barrier rows.

Solves, for one robot or for every robot of a team,

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
padding happens when the rows are assembled (``agent.team_rows`` writes each
row straight into its place), so the solver neither gathers nor pads. Every
dot product is written out as a0*x0 + a1*x1, so a robot's answer is bitwise
the same in any team. ``oracle_solve`` independently enumerates the active
sets of one robot's problem; tests require the two to agree to 1e-6.

A robot with no feasible candidate is re-solved with quadratically penalized
slacks on its soft rows by a dual active-set iteration; hard rows
(collision, obstacle) and the speed box are never relaxed. If the hard rows
alone admit no input, the robot freezes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .barriers import RowBlock

SLACK_PENALTY = 1e4
MAX_ROWS = 64  # per robot; desk-scale cap

_FEAS_TOL = 1e-9
_DUAL_TOL = 1e-10
_ZERO_STEP_TOL = 1e-12

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
    relaxation keeps: hard rows, pad rows and the box. Each row's identity
    stays with the named blocks placed, and ``block`` reads it back.
    """

    robots: np.ndarray
    counts: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    hard: np.ndarray
    placed: list = field(default_factory=list, repr=False)  # (slots, columns, block)

    @classmethod
    def empty(cls, robots, counts):
        """A layout of pad rows only, for ``counts[r]`` rows of ``robots[r]``."""
        shape = (len(counts), int(counts.max(initial=0)) + 4)
        return cls(robots, counts, np.zeros(shape + (2,)), np.full(shape, -1.0), np.ones(shape, dtype=bool))

    @classmethod
    def of(cls, blocks):
        """One robot's rows per block, robot by robot."""
        layout = cls.empty(np.array([b.robot for b in blocks], dtype=int),
                           np.array([len(b) for b in blocks], dtype=int))
        for r, b in enumerate(blocks):
            layout.place(np.full(len(b), r), np.arange(len(b)), b)
        return layout

    def place(self, slots, columns, block):
        """Write ``block``'s rows into the layout, row k at (slots[k], columns[k])."""
        self.normals[slots, columns] = block.normals
        self.offsets[slots, columns] = block.offsets
        self.hard[slots, columns] = block.hard
        self.placed.append((slots, columns, block))

    def block(self, r):
        """The rows of the layout's robot r, with their identity, as a ``RowBlock``."""
        m = self.counts[r]
        kinds, others = [None] * m, np.zeros(m, dtype=int)
        for slots, columns, placed in self.placed:
            for k in np.flatnonzero(np.equal(slots, r)) if placed.kinds is not None else ():
                kinds[columns[k]], others[columns[k]] = placed.kinds[k], placed.others[k]
        return RowBlock(int(self.robots[r]), self.normals[r, :m], self.offsets[r, :m], self.hard[r, :m],
                        others, tuple(kinds))

    @property
    def width(self):
        return self.offsets.shape[1] - 4

    def __len__(self):
        return int(self.counts.sum())


@dataclass(frozen=True)
class QpProblem:
    """A team's QPs: ``rows`` a ``RowLayout`` and ``nominal`` (n, 2), each
    robot's input; or one robot's: ``nominal`` (2,) and ``rows`` one
    ``RowBlock`` or a sequence of them, laid out as a team of one.
    Coefficients must be finite, and no robot may have more than MAX_ROWS rows.
    """

    nominal: np.ndarray
    rows: RowLayout
    speed_limit: float

    def __post_init__(self):
        nom = np.asarray(self.nominal, dtype=float)
        rows = self.rows
        if not isinstance(rows, RowLayout):  # one robot's blocks, laid out as a team of one
            rows = RowLayout.of([rows if isinstance(rows, RowBlock) else RowBlock.concat(rows)])
        shape = (len(rows.counts), 2) if rows is self.rows else (2,)
        if nom.shape != shape:
            raise ValueError(f"nominal input has shape {nom.shape}, expected {shape}")
        if not np.isfinite(nom).all():
            raise ValueError("nominal input is not finite")
        if not self.speed_limit > 0:
            raise ValueError("speed limit must be positive")
        width = rows.width
        if width > MAX_ROWS:
            raise ValueError(f"too many rows ({width}) for one robot; cap is {MAX_ROWS}")
        rows.normals[:, width:] = _BOX_NORMALS
        rows.offsets[:, width:] = -self.speed_limit
        if not (np.isfinite(rows.normals).all() and np.isfinite(rows.offsets).all()):
            raise ValueError("constraint row has non-finite coefficients")
        object.__setattr__(self, "nominal", nom)
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class QpSolution:
    """The solution of a ``QpProblem``, shaped like it.

    ``u`` is (n, 2) for a team and (2,) for one robot. ``multipliers`` and
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


def _stack(problem, include_soft=True):
    """A one-robot problem's rows, then its box, as (normals, offsets)."""
    keep = slice(None) if include_soft else problem.rows.hard[0]
    return problem.rows.normals[0, keep], problem.rows.offsets[0, keep]


def _dual_active_set(target, gdiag, normals, offsets, max_iter=None):
    """Least-distance projection in the diag(gdiag) metric onto {a.x >= b}.

    Starts from the unconstrained optimum and repeatedly activates the most
    violated row, taking full primal steps when possible and dropping active
    rows whose multiplier would turn negative otherwise. Returns (x, lam)
    with lam aligned to ``normals``, or None when the rows are inconsistent.
    """
    m = len(normals)
    if max_iter is None:
        max_iter = 50 + 10 * m
    ginv = 1.0 / gdiag
    x = target.astype(float).copy()
    active = []
    lam_active = []

    for _ in range(max_iter):
        slack = normals @ x - offsets if m else np.empty(0)
        p = int(np.argmin(slack)) if m else -1
        if m == 0 or slack[p] >= -_FEAS_TOL:
            lam = np.zeros(m)
            for idx, w in enumerate(active):
                lam[w] = lam_active[idx]
            return x, lam
        n_plus = normals[p]
        lam_plus = 0.0
        for _ in range(max_iter):
            if active:
                nmat = normals[active].T  # d x q
                gram = nmat.T @ (ginv[:, None] * nmat)
                try:
                    r = np.linalg.solve(gram, nmat.T @ (ginv * n_plus))
                except np.linalg.LinAlgError:
                    r = np.linalg.lstsq(gram, nmat.T @ (ginv * n_plus), rcond=None)[0]
                z = ginv * (n_plus - nmat @ r)
            else:
                r = np.empty(0)
                z = ginv * n_plus
            znorm = float(n_plus @ z)

            viol = offsets[p] - float(n_plus @ x)
            t_full = viol / znorm if znorm > _ZERO_STEP_TOL else np.inf
            t_drop = np.inf
            blocker = -1
            for idx in range(len(active)):
                if r[idx] > _DUAL_TOL:
                    cand = lam_active[idx] / r[idx]
                    if cand < t_drop:
                        t_drop = cand
                        blocker = idx
            t = min(t_full, t_drop)
            if not np.isfinite(t):
                return None  # violated row lies in the span of the active set: infeasible
            if znorm > _ZERO_STEP_TOL:
                x = x + t * z
            for idx in range(len(active)):
                lam_active[idx] -= t * r[idx]
            lam_plus += t
            if t_full <= t_drop:
                active.append(p)
                lam_active.append(lam_plus)
                break
            del active[blocker], lam_active[blocker]
    raise RuntimeError("active-set iteration failed to terminate")


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
    slack = a0 * u[:, :1] + a1 * u[:, 1:] - offsets
    viol = slack < -_FEAS_TOL
    found = ~viol.any(axis=1)
    x = u.copy()
    lam = np.zeros((n, width))
    with np.errstate(divide="ignore", invalid="ignore"):
        for stage in (_single_row_stage, _row_pair_stage):
            todo = (~found).nonzero()[0]
            if not len(todo):
                break
            uu, a0_, a1_, b, s, v = (w.take(todo, axis=0) for w in (u, a0, a1, offsets, slack, viol))
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
            flat = best + np.arange(0, obj.size, obj.shape[1])
            won = obj.take(flat) < np.inf
            r, flat, best = todo[won], flat[won], best[won]
            x[r, 0], x[r, 1] = x0.take(flat), x1.take(flat)
            for k, lam_k in zip(rows, lams):
                lam[r, k.take(best)] = np.maximum(lam_k.take(flat), 0.0)
            found[r] = True
    return found, x, lam


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
    rows = problem.rows
    nominal = problem.nominal.reshape(-1, 2)
    width = rows.width

    found, u, lam = _project(nominal, rows.normals, rows.offsets)
    statuses = ["optimal"] * len(nominal)
    slacks = np.zeros(rows.hard.shape)
    stuck = (~found).nonzero()[0]
    if len(stuck):
        # the hard rows and the box alone, soft rows masked as pad rows
        soft = ~rows.hard[stuck]
        hard_ok, _, _ = _project(
            nominal[stuck],
            np.where(soft[..., None], 0.0, rows.normals[stuck]),
            np.where(soft, -1.0, rows.offsets[stuck]),
        )
        for r, ok in zip(stuck.tolist(), hard_ok.tolist()):
            if ok:
                mine = np.r_[:rows.counts[r], width:width + 4]  # its rows, then its box
                relax = ~rows.hard[r, mine]
                x, lam[r, mine] = _relaxed_solve(nominal[r], rows.normals[r, mine], rows.offsets[r, mine], relax)
                u[r] = x[:2]
                slacks[r, mine[relax]] = np.maximum(0.0, x[2:])
                statuses[r] = "relaxed"
            else:
                u[r] = 0.0
                slacks[r] = np.where(rows.hard[r], 0.0, np.maximum(0.0, rows.offsets[r]))
                statuses[r] = "infeasible_hard"

    return QpSolution(
        u=u[0] if problem.nominal.ndim == 1 else u,
        status=next((s for s in _STATUSES if s in statuses), "optimal"),
        statuses=tuple(statuses),
        multipliers=lam,
        slacks=slacks,
    )


def _relaxed_solve(nominal, normals, offsets, soft):
    """Re-solve one robot's QP, its rows and box given as ``normals`` (m, 2)
    and ``offsets`` (m,), with slack variables xi on the rows ``soft`` marks:
    a.u + xi >= b, xi >= 0, penalized by SLACK_PENALTY * xi^2. The other rows
    stay exact. Returns (x, lam): x is u then the slacks, lam the multipliers
    of the m rows."""
    soft = np.flatnonzero(soft)
    m, ns = len(offsets), len(soft)
    target = np.zeros(2 + ns)
    target[:2] = nominal
    gdiag = np.ones(2 + ns)
    gdiag[2:] = SLACK_PENALTY
    # the rows, then xi >= 0; soft row soft[s] carries slack s
    slack = np.arange(ns)
    a = np.zeros((m + ns, 2 + ns))
    a[:m, :2] = normals
    a[soft, 2 + slack] = 1.0
    a[m + slack, 2 + slack] = 1.0
    res = _dual_active_set(target, gdiag, a, np.concatenate([offsets, np.zeros(ns)]))
    if res is None:
        raise RuntimeError("relaxed problem infeasible despite feasible hard rows")
    return res[0], res[1][:m]


def kkt_residuals(problem, solution):
    """Stationarity, dual-feasibility, and complementarity residuals of one
    robot's problem.

    For status ``relaxed`` the checked optimality system is that of the
    slack-extended problem: soft rows are credited their reported slack, so
    the same stationarity expression (u - u_hat) = sum(lam * a) applies.
    Complementarity is reported scale-invariantly, |lam * resid| / (1 + lam),
    so the large penalty multipliers of relaxed rows do not inflate a
    machine-precision residual.
    """
    u = solution.u
    normals, offsets = _stack(problem)
    lam = solution.multipliers[0]
    resid = normals @ u - offsets
    if solution.status == "relaxed":
        resid += solution.slacks[0]
    grad = u - problem.nominal - lam @ normals
    return {
        "stationarity": float(np.max(np.abs(grad))),
        "primal": max(0.0, float(np.max(-resid))),
        "dual": max(0.0, float(np.max(-lam))),
        "complementarity": float(np.max(np.abs(lam * resid) / (1.0 + np.abs(lam)))),
    }


def oracle_solve(problem):
    """Active-set enumeration reference solver, exact up to floating point.

    Candidate active sets of size at most two suffice in the plane: at the
    optimum, u* - u_hat lies in the cone of the active normals, and any
    vector in a finitely generated cone in R^2 is a nonnegative combination
    of at most two generators.
    """
    rows = problem.rows.block(0)
    nrows = len(rows)
    if nrows > 12:
        raise ValueError(f"oracle enumeration capped at 12 rows, got {nrows}")

    soft = np.flatnonzero(~rows.hard)
    normals, offsets = _stack(problem)
    lam = np.zeros((1, nrows + 4))
    slacks = np.zeros((1, nrows + 4))
    cand = _enumerate_projection(problem.nominal, normals, offsets)
    if cand is not None:
        u, lam[0] = cand
        return QpSolution(u, "optimal", ("optimal",), lam, slacks)

    h_normals, h_offsets = _stack(problem, include_soft=False)
    if _enumerate_projection(problem.nominal, h_normals, h_offsets) is None:
        # the frozen robot's input is zero
        slacks[0, soft] = np.maximum(0.0, rows.offsets[soft])
        return QpSolution(np.zeros(2), "infeasible_hard", ("infeasible_hard",), lam, slacks)

    u, hardbox_mu = _enumerate_relaxed(problem)
    slacks[0, soft] = np.maximum(0.0, rows.offsets[soft] - rows.normals[soft] @ u)
    lam[0, problem.rows.hard[0]] = hardbox_mu
    lam[0, soft] = SLACK_PENALTY * slacks[0, soft]
    return QpSolution(u, "relaxed", ("relaxed",), lam, slacks)


def _enumerate_projection(target, normals, offsets):
    """Projection of target onto {a.x >= b} by enumerating active sets <= 2.

    Returns (x, lam) for the best KKT-consistent candidate, or None when no
    candidate is feasible (empty polyhedron).
    """
    m = len(normals)
    best = None
    subsets = [(), *combinations(range(m), 1), *combinations(range(m), 2)]
    for sub in subsets:
        if not sub:
            x = target.copy()
            lam_sub = np.empty(0)
        else:
            nmat = normals[list(sub)]  # q x 2
            gram = nmat @ nmat.T
            rhs = offsets[list(sub)] - nmat @ target
            try:
                lam_sub = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(lam_sub < -_FEAS_TOL):
                continue
            x = target + nmat.T @ lam_sub
        if m and np.min(normals @ x - offsets) < -1e-8:
            continue
        obj = float((x - target) @ (x - target))
        if best is None or obj < best[0] - 1e-15:
            lam = np.zeros(m)
            for pos, k in enumerate(sub):
                lam[k] = max(0.0, float(lam_sub[pos]))
            best = (obj, x, lam)
    if best is None:
        return None
    return best[1], best[2]


def _enumerate_relaxed(problem):
    """Reference for the slack-relaxed problem via soft-row activity patterns.

    Eliminating the optimal slacks xi_s = max(0, b_s - a_s.u) leaves
        F(u) = |u - u_hat|^2 + w * sum_s max(0, b_s - a_s.u)^2
    to be minimized over the hard rows and the box. For each guess of which
    soft rows are violated, F restricted to that pattern is a plain quadratic;
    enumerate hard/box active sets of size <= 2 for each and keep the
    pattern-consistent candidate with the smallest true objective.
    """
    w = SLACK_PENALTY
    rows = problem.rows.block(0)
    soft = ~rows.hard
    soft_normals, soft_offsets = rows.normals[soft], rows.offsets[soft]
    hard_normals, hard_offsets = _stack(problem, include_soft=False)
    mh = len(hard_normals)

    def true_objective(u):
        val = float((u - problem.nominal) @ (u - problem.nominal))
        for a, b in zip(soft_normals, soft_offsets):
            val += w * max(0.0, b - float(a @ u)) ** 2
        return val

    best = None
    ns = len(soft_offsets)
    for mask in range(1 << ns):
        pattern = [s for s in range(ns) if mask >> s & 1]
        hess = np.eye(2)
        lin = problem.nominal.copy()
        for s in pattern:
            a = soft_normals[s]
            hess = hess + w * np.outer(a, a)
            lin = lin + w * soft_offsets[s] * a
        subsets = [(), *combinations(range(mh), 1), *combinations(range(mh), 2)]
        for sub in subsets:
            if not sub:
                try:
                    u = np.linalg.solve(hess, lin)
                except np.linalg.LinAlgError:
                    continue
                mu_sub = np.empty(0)
            else:
                nmat = hard_normals[list(sub)]
                q = len(sub)
                kkt = np.zeros((2 + q, 2 + q))
                kkt[:2, :2] = hess
                kkt[:2, 2:] = -nmat.T
                kkt[2:, :2] = nmat
                rhs = np.concatenate([lin, hard_offsets[list(sub)]])
                try:
                    sol = np.linalg.solve(kkt, rhs)
                except np.linalg.LinAlgError:
                    continue
                u = sol[:2]
                mu_sub = sol[2:]
                if np.any(mu_sub < -_FEAS_TOL):
                    continue
            if mh and np.min(hard_normals @ u - hard_offsets) < -1e-8:
                continue
            ok = True
            for s in range(ns):
                resid = soft_offsets[s] - float(soft_normals[s] @ u)
                if s in pattern:
                    if resid < -1e-8:
                        ok = False
                        break
                elif resid > 1e-8:
                    ok = False
                    break
            if not ok:
                continue
            obj = true_objective(u)
            if best is None or obj < best[0] - 1e-15:
                mu = np.zeros(mh)
                for pos, k in enumerate(sub):
                    mu[k] = max(0.0, float(mu_sub[pos]))
                best = (obj, u, mu)
    if best is None:
        raise RuntimeError("relaxed enumeration found no candidate")
    return best[1], best[2]
