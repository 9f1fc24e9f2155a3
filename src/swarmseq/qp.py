"""Minimally invasive control filter: project a nominal input onto barrier rows.

Solves, per robot,

    minimize    |u_hat - u|^2
    subject to  a_r . u >= b_r   for every constraint row r
                |u|_inf <= speed_limit

The objective is strictly convex, so the minimizer is unique. Two independent
routes are provided: ``solve`` runs a dual active-set iteration (add the most
violated row, drop rows whose multiplier would go negative; exact termination
for strictly convex objectives), while ``oracle_solve`` enumerates candidate
active sets and keeps the KKT-consistent one. Tests require the two to agree
to 1e-6 on random instances.

Infeasible instances are re-solved with quadratically penalized slacks on the
soft rows; hard rows (collision, obstacle) and the speed box are never
relaxed. If the hard rows alone admit no input, the robot freezes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .barriers import RowBlock

SLACK_PENALTY = 1e4

_FEAS_TOL = 1e-9
_DUAL_TOL = 1e-10
_ZERO_STEP_TOL = 1e-12


@dataclass(frozen=True)
class QpProblem:
    """One robot's QP; ``rows``, given as one ``RowBlock`` or a sequence of
    them, is kept as one block, whose coefficients must be finite."""

    nominal: np.ndarray
    rows: RowBlock
    speed_limit: float

    def __post_init__(self):
        nom = self.nominal
        if not (isinstance(nom, np.ndarray) and nom.dtype == np.float64 and nom.shape == (2,)):
            nom = np.asarray(nom, dtype=float).reshape(2)
            object.__setattr__(self, "nominal", nom)
        if not (math.isfinite(nom[0]) and math.isfinite(nom[1])):
            raise ValueError("nominal input is not finite")
        if self.speed_limit <= 0:
            raise ValueError("speed limit must be positive")
        rows = self.rows if isinstance(self.rows, RowBlock) else RowBlock.concat(self.rows)
        if len(rows) > 64:
            raise ValueError(f"too many rows ({len(rows)}); desk-scale cap is 64")
        if not (np.isfinite(rows.normals).all() and np.isfinite(rows.offsets).all()):
            raise ValueError("constraint row has non-finite coefficients")
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class QpSolution:
    u: np.ndarray
    slacks: tuple
    status: str  # optimal | relaxed | infeasible_hard
    row_multipliers: tuple = ()
    box_multipliers: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float).reshape(2))


def _box_rows(limit):
    """The speed box |u|_inf <= limit as four inequality rows a.u >= b."""
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return normals, np.array((-limit,) * 4)


def _stack(problem, include_soft=True):
    rows = problem.rows
    normals, offsets = rows.normals, rows.offsets
    if not include_soft:
        normals, offsets = normals[rows.hard], offsets[rows.hard]
    bn, bo = _box_rows(problem.speed_limit)
    return np.concatenate([normals, bn]), np.concatenate([offsets, bo])


def _dual_active_set(target, gdiag, normals, offsets, max_iter=None):
    """Least-distance projection in the diag(gdiag) metric onto {a.x >= b}.

    Starts from the unconstrained optimum and repeatedly activates the most
    violated row, taking full primal steps when possible and dropping active
    rows whose multiplier would turn negative otherwise. Returns (x, lam)
    with lam aligned to ``normals``, or None when the rows are inconsistent.
    """
    d = len(target)
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


def _soft_indices(problem):
    return np.flatnonzero(~problem.rows.hard)


def _split_multipliers(lam, nrows):
    """(row multipliers, box multipliers) from a multiplier vector that
    lists the rows first, then the four box rows."""
    return tuple(lam[:nrows].tolist()), tuple(lam[nrows:nrows + 4].tolist())


def _zero_input_slacks(problem, soft):
    """Slacks of the soft rows at u = 0, the frozen robot's input."""
    return tuple(max(0.0, b) for b in problem.rows.offsets[soft].tolist())


def solve(problem):
    """Unique minimizer of |u_hat - u|^2 over the rows and the speed box.

    Falls back to slack relaxation of the soft rows when the full set is
    inconsistent, and to a zero input with status ``infeasible_hard`` when
    even the hard rows admit no input.
    """
    nrows = len(problem.rows)
    normals, offsets = _stack(problem)
    res = _dual_active_set(problem.nominal, np.ones(2), normals, offsets)
    if res is not None:
        x, lam = res
        row_mult, box_mult = _split_multipliers(lam, nrows)
        return QpSolution(
            u=x,
            slacks=(0.0,) * (nrows - int(np.count_nonzero(problem.rows.hard))),
            status="optimal",
            row_multipliers=row_mult,
            box_multipliers=box_mult,
        )

    soft = _soft_indices(problem)
    h_normals, h_offsets = _stack(problem, include_soft=False)
    hard_res = _dual_active_set(problem.nominal, np.ones(2), h_normals, h_offsets)
    if hard_res is None:
        return QpSolution(
            u=np.zeros(2), slacks=_zero_input_slacks(problem, soft), status="infeasible_hard"
        )

    x, lam = _relaxed_solve(problem, soft)
    row_mult, box_mult = _split_multipliers(lam, nrows)
    return QpSolution(
        u=x[:2],
        slacks=tuple(np.maximum(0.0, x[2:]).tolist()),
        status="relaxed",
        row_multipliers=row_mult,
        box_multipliers=box_mult,
    )


def _relaxed_solve(problem, soft):
    """Re-solve with slack variables xi on soft rows: a.u + xi >= b, xi >= 0,
    penalized by SLACK_PENALTY * xi^2. Hard rows and the box stay exact."""
    rows = problem.rows
    m = len(rows)
    ns = len(soft)
    dim = 2 + ns
    target = np.zeros(dim)
    target[:2] = problem.nominal
    gdiag = np.ones(dim)
    gdiag[2:] = SLACK_PENALTY

    # rows, then the box, then xi >= 0; soft row soft[s] carries slack s
    bn, bo = _box_rows(problem.speed_limit)
    normals = np.zeros((m + 4 + ns, dim))
    normals[:m, :2] = rows.normals
    normals[m:m + 4, :2] = bn
    slack = np.arange(ns)
    normals[soft, 2 + slack] = 1.0
    normals[m + 4 + slack, 2 + slack] = 1.0
    offsets = np.concatenate([rows.offsets, bo, np.zeros(ns)])

    res = _dual_active_set(target, gdiag, normals, offsets)
    if res is None:
        raise RuntimeError("relaxed problem infeasible despite feasible hard rows")
    return res


def kkt_residuals(problem, solution):
    """Stationarity, dual-feasibility, and complementarity residuals.

    For status ``relaxed`` the checked optimality system is that of the
    slack-extended problem: soft rows are credited their reported slack, so
    the same stationarity expression (u - u_hat) = sum(lam * a) applies.
    Complementarity is reported scale-invariantly, |lam * resid| / (1 + lam),
    so the large penalty multipliers of relaxed rows do not inflate a
    machine-precision residual.
    """
    rows = problem.rows
    u = solution.u
    normals, offsets = _stack(problem)
    lam = np.array(solution.row_multipliers + tuple(solution.box_multipliers), dtype=float)
    resid = normals @ u - offsets
    if solution.status == "relaxed":
        resid[:len(rows)][~rows.hard] += solution.slacks
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
    rows = problem.rows
    nrows = len(rows)
    if nrows > 12:
        raise ValueError(f"oracle enumeration capped at 12 rows, got {nrows}")

    soft = _soft_indices(problem)
    normals, offsets = _stack(problem)
    cand = _enumerate_projection(problem.nominal, normals, offsets)
    if cand is not None:
        x, lam = cand
        row_mult, box_mult = _split_multipliers(lam, nrows)
        return QpSolution(
            u=x,
            slacks=(0.0,) * len(soft),
            status="optimal",
            row_multipliers=row_mult,
            box_multipliers=box_mult,
        )

    h_normals, h_offsets = _stack(problem, include_soft=False)
    if _enumerate_projection(problem.nominal, h_normals, h_offsets) is None:
        return QpSolution(
            u=np.zeros(2), slacks=_zero_input_slacks(problem, soft), status="infeasible_hard"
        )

    u, hardbox_mu = _enumerate_relaxed(problem)
    slacks = np.maximum(0.0, rows.offsets[soft] - rows.normals[soft] @ u)
    row_mult = np.zeros(nrows)
    nhard = nrows - len(soft)
    row_mult[rows.hard] = hardbox_mu[:nhard]
    row_mult[soft] = SLACK_PENALTY * slacks
    return QpSolution(
        u=u,
        slacks=tuple(slacks.tolist()),
        status="relaxed",
        row_multipliers=tuple(row_mult.tolist()),
        box_multipliers=tuple(hardbox_mu[nhard:nhard + 4].tolist()),
    )


def _enumerate_projection(target, normals, offsets):
    """Projection of target onto {a.x >= b} by enumerating active sets <= 2.

    Returns (x, lam) for the best KKT-consistent candidate, or None when no
    candidate is feasible (empty polyhedron).
    """
    m = len(normals)
    best = None
    subsets = [()]
    subsets += [(i,) for i in range(m)]
    subsets += list(combinations(range(m), 2))
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
    soft = ~problem.rows.hard
    soft_normals, soft_offsets = problem.rows.normals[soft], problem.rows.offsets[soft]
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
        subsets = [()]
        subsets += [(i,) for i in range(mh)]
        subsets += list(combinations(range(mh), 2))
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
