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

Each robot's rows are padded to a common count with rows 0 . u >= -1, which
never bind, and followed by the four speed-box rows. Every dot product is
written out as a0*x0 + a1*x1, so a robot's answer is bitwise the same in any
team. ``oracle_solve`` independently enumerates the active sets of one
robot's problem; tests require the two to agree to 1e-6.

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
class QpProblem:
    """One robot's QP, or a team's.

    For one robot (``robots`` None), ``nominal`` is its (2,) input and every
    row acts on it; ``rows`` may be one ``RowBlock`` or a sequence of one
    robot's blocks, kept as one block. For a team, ``nominal`` is (n, 2),
    ``robots`` the n robot ids in ascending order, and each row acts on the
    input of its ``rows.robot``. Coefficients must be finite, and no robot
    may have more than MAX_ROWS rows.
    """

    nominal: np.ndarray
    rows: RowBlock
    speed_limit: float
    robots: tuple | None = None
    slots: np.ndarray = field(init=False, repr=False, compare=False)  # each row's robot index

    def __post_init__(self):
        nom = np.asarray(self.nominal, dtype=float)
        shape = (2,) if self.robots is None else (len(self.robots), 2)
        if nom.shape != shape:
            raise ValueError(f"nominal input has shape {nom.shape}, expected {shape}")
        if not np.isfinite(nom).all():
            raise ValueError("nominal input is not finite")
        if self.speed_limit <= 0:
            raise ValueError("speed limit must be positive")
        rows = self.rows if isinstance(self.rows, RowBlock) else RowBlock.concat(self.rows)
        if self.robots is None:
            slots = np.zeros(len(rows), dtype=int)
        else:
            # with ascending ids, a row whose slot holds its robot is placed right
            robots = np.asarray(self.robots)
            slots = np.searchsorted(robots, rows.owners)
            if np.any(slots >= len(robots)) or np.any(robots[slots] != rows.owners):
                raise ValueError("rows reference robots outside the team, or the team is not ascending")
        if len(rows) and np.bincount(slots).max() > MAX_ROWS:
            raise ValueError(f"too many rows ({np.bincount(slots).max()}) for one robot; cap is {MAX_ROWS}")
        if not (np.isfinite(rows.normals).all() and np.isfinite(rows.offsets).all()):
            raise ValueError("constraint row has non-finite coefficients")
        object.__setattr__(self, "nominal", nom)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "slots", slots)


@dataclass(frozen=True)
class QpSolution:
    """The solution of a ``QpProblem``, shaped like it.

    For a team, ``u`` is (n, 2), ``box_multipliers`` has one 4-tuple per
    robot, ``statuses`` one status per robot, and ``status`` is the worst of
    them; ``slacks`` lists the soft rows and ``row_multipliers`` every row, in
    row order.
    """

    u: np.ndarray
    slacks: tuple
    status: str  # optimal | relaxed | infeasible_hard
    row_multipliers: tuple = ()
    box_multipliers: tuple = (0.0, 0.0, 0.0, 0.0)
    statuses: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if not self.statuses:
            object.__setattr__(self, "statuses", (self.status,))


def _box_rows(limit):
    """The speed box |u|_inf <= limit as four inequality rows a.u >= b."""
    return _BOX_NORMALS, np.array((-limit,) * 4)


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
    n = len(nominal)
    slots = problem.slots

    # each robot's rows in order, then pad rows, then the box: (n, width + 4)
    order = np.argsort(slots, kind="stable")
    slot = slots[order]
    counts = np.bincount(slots, minlength=n)
    width = int(counts.max(initial=0))
    pos = np.arange(len(slot)) - (np.cumsum(counts) - counts)[slot]
    normals = np.zeros((n, width + 4, 2))
    offsets = np.full((n, width + 4), -1.0)
    normals[slot, pos] = rows.normals[order]
    offsets[slot, pos] = rows.offsets[order]
    normals[:, width:] = _BOX_NORMALS
    offsets[:, width:] = -problem.speed_limit

    found, u, lam = _project(nominal, normals, offsets)
    statuses = ["optimal"] * n
    slacks = np.zeros(len(rows))
    stuck = (~found).nonzero()[0]
    if len(stuck):
        # the hard rows and the box alone, soft rows masked as pad rows
        soft = np.zeros((n, width + 4), dtype=bool)
        soft[slot, pos] = ~rows.hard[order]
        soft = soft[stuck]
        hard_ok, _, _ = _project(
            nominal[stuck],
            np.where(soft[..., None], 0.0, normals[stuck]),
            np.where(soft, -1.0, offsets[stuck]),
        )
        for r, ok in zip(stuck.tolist(), hard_ok.tolist()):
            mine = (slots == r).nonzero()[0]
            m = len(mine)
            if ok:
                x, lam_r = _relaxed_solve(nominal[r], rows.take(mine), problem.speed_limit)
                u[r] = x[:2]
                lam[r, :m] = lam_r[:m]
                lam[r, width:] = lam_r[m:m + 4]
                slacks[mine[~rows.hard[mine]]] = np.maximum(0.0, x[2:])
                statuses[r] = "relaxed"
            else:
                u[r] = 0.0
                slacks[mine] = np.maximum(0.0, rows.offsets[mine])
                statuses[r] = "infeasible_hard"

    row_mult = np.empty(len(rows))
    row_mult[order] = lam[slot, pos]
    box_mult = lam[:, width:].tolist()
    single = problem.robots is None
    return QpSolution(
        u=u[0] if single else u,
        slacks=tuple(slacks[~rows.hard].tolist()),
        status=next((s for s in _STATUSES if s in statuses), "optimal"),
        row_multipliers=tuple(row_mult.tolist()),
        box_multipliers=tuple(box_mult[0]) if single else tuple(map(tuple, box_mult)),
        statuses=tuple(statuses),
    )


def _relaxed_solve(nominal, rows, speed_limit):
    """Re-solve one robot's QP with slack variables xi on its soft rows:
    a.u + xi >= b, xi >= 0, penalized by SLACK_PENALTY * xi^2. Hard rows and
    the box stay exact. Returns (x, lam): x is u then the slacks, lam lists
    the rows, then the box, then xi >= 0."""
    soft = np.flatnonzero(~rows.hard)
    m = len(rows)
    ns = len(soft)
    dim = 2 + ns
    target = np.zeros(dim)
    target[:2] = nominal
    gdiag = np.ones(dim)
    gdiag[2:] = SLACK_PENALTY

    # rows, then the box, then xi >= 0; soft row soft[s] carries slack s
    bn, bo = _box_rows(speed_limit)
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
    """Stationarity, dual-feasibility, and complementarity residuals of one
    robot's problem.

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
