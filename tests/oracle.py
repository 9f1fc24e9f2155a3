"""The enumeration oracle: an independent reference for ``qp.solve``.

``oracle_solve`` enumerates the active sets of a team of one robot, and
``kkt_residuals`` checks a solution against the optimality conditions. The
tests require ``solve`` and the oracle to agree to 1e-6 (criterion 3). The
oracle shares no code with the solver's staged projection: it solves each
candidate's KKT system with ``np.linalg.solve``.
"""

from itertools import combinations

import numpy as np

from swarmseq.qp import _FEAS_TOL, SLACK_PENALTY, QpSolution


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
    """The one robot's rows of a team of one, laid out here: its rows, then
    the four speed-box rows, as (normals, offsets, hard, nominal)."""
    rows = problem.rows
    if len(rows.counts) != 1:
        raise ValueError(f"expected one robot's problem, got a team of {len(rows.counts)}")
    box = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    normals = np.concatenate([problem.normals.reshape(-1, 2), box])
    offsets = np.concatenate([problem.offsets, np.full(4, -problem.speed_limit)])
    return normals, offsets, rows.hard[0], problem.nominal[0]


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
