"""The batched team tick: one row assembly and one QP solve for every robot.

Each robot's rows and solution must not depend on the team it is solved in:
the team rows equal the rows of each robot's own one-robot stacks bit for
bit, and a robot's solution, status and multipliers are the same solved
alone or in any team.
"""

import math

import numpy as np
import pytest

from swarmseq.agent import OBSTACLE_ACTIVATION, RowRequest, team_rows
from swarmseq.barriers import (
    Collision,
    Connectivity,
    FcbfParams,
    KeepWithin,
    ObstacleAvoid,
    RowBlock,
    constraint_row,
)
from swarmseq.geometry import Domain, Obstacle
from swarmseq.qp import QpProblem, kkt_residuals, oracle_solve, solve


def bits(a):
    """The float64 bit patterns of an array, so that -0.0 differs from 0.0."""
    return np.asarray(a, dtype=float).view(np.int64)


def scalar_rate(h, params):
    if h == 0.0:
        return 0.0
    return params.gamma * math.copysign(abs(h) ** params.rho, h)


def own_rows(request, params, min_sep, domain):
    """One robot's rows built from its own one-robot stacks, kind by kind."""
    x = request.position
    blocks = []
    if request.partners:
        kind = Connectivity(request.robot, tuple(request.partners), request.delta)
        blocks.append(constraint_row(kind, params, x, np.array(request.partner_positions)))
    if request.colliders:
        kind = Collision(request.robot, tuple(request.colliders), min_sep)
        blocks.append(constraint_row(kind, params, x, np.array(request.collider_positions)))
    if domain.obstacles:
        kind = ObstacleAvoid(request.robot, domain.obstacle_stack)
        active = np.flatnonzero(kind.value(x) <= OBSTACLE_ACTIVATION)
        if len(active):
            blocks.append(constraint_row(kind, params, x).take(active))
    blocks += [constraint_row(kind, params, x) for kind in request.initial]
    return RowBlock.concat(blocks)


def random_requests(rng, n, delta):
    x = rng.uniform(-1.5, 1.5, (n, 2))
    requests = []
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        partners = [int(j) for j in rng.permutation(others)[: rng.integers(0, 4)]]
        colliders = sorted(int(j) for j in rng.permutation(others)[: rng.integers(0, 4)])
        partner_positions = [x[j - 1] + rng.normal(0, 0.01, 2) for j in partners]
        if partners and rng.random() < 0.5:
            # a partner exactly at the sensing range
            partner_positions[0] = x[i - 1] + [delta, 0.0]
        initial = (KeepWithin(i, tuple(rng.uniform(-1, 1, 2)), 0.8),) if rng.random() < 0.3 else ()
        row_delta = delta * (0.96 if rng.random() < 0.5 else 1.0)
        requests.append(RowRequest(
            i, x[i - 1], rng.uniform(-0.3, 0.3, 2), row_delta, partners, partner_positions,
            colliders, [x[j - 1] for j in colliders], initial,
        ))
    return requests


class TestTeamRows:
    def test_team_rows_equal_each_robots_own_rows_bitwise(self):
        rng = np.random.default_rng(41)
        params = FcbfParams(rho=0.5, gamma=1.3)
        obstacles = tuple(
            Obstacle(rng.uniform(-1.5, 1.5, 2), float(a), float(b))
            for a, b in rng.uniform(0.5, 20, size=(9, 2))
        ) + (Obstacle(np.zeros(2), 1.0, 1.0),)
        domain = Domain(-3, 3, -3, 3, obstacles)
        kinds_seen = set()
        for _ in range(60):
            delta = float(rng.uniform(0.3, 0.7))
            requests = random_requests(rng, int(rng.integers(1, 9)), delta)
            if rng.random() < 0.3:
                # a robot exactly at h = 3 of the last obstacle: its row is active
                requests[0] = requests[0]._replace(position=np.array([2.0, 0.0]))
            team = team_rows(requests, params, 0.12, domain)
            for request in requests:
                mine = np.flatnonzero(team.owners == request.robot)
                got = team.take(mine)
                want = own_rows(request, params, 0.12, domain)
                assert got.kinds == want.kinds
                assert got.others.tolist() == want.others.tolist()
                assert got.hard.tolist() == want.hard.tolist()
                assert bits(got.normals).tolist() == bits(want.normals).tolist()
                assert bits(got.offsets).tolist() == bits(want.offsets).tolist()
                kinds_seen.update(got.kinds)
                # connectivity offsets square delta with Python's pow
                x = request.position.tolist()
                conn = [k for k, kind in enumerate(got.kinds) if kind is Connectivity]
                for k, p in zip(conn, request.partner_positions):
                    dx, dy = x[0] - float(p[0]), x[1] - float(p[1])
                    h = request.delta**2 - (dx * dx + dy * dy)
                    assert bits(got.offsets[k]) == bits(-0.5 * scalar_rate(h, params))
                if np.array_equal(request.position, [2.0, 0.0]):
                    assert ObstacleAvoid(1, obstacles[-1]).value(request.position) == 3.0
                    assert len(obstacles) in [
                        j for kind, j in zip(got.kinds, got.others.tolist()) if kind is ObstacleAvoid
                    ]
        assert kinds_seen == {Connectivity, Collision, ObstacleAvoid, KeepWithin}

    def test_a_per_row_delta_is_squared_with_pythons_pow(self):
        # numpy's ** 2 multiplies, which differs from pow in the last bit for
        # about 0.1% of inputs; each robot's delta goes to its rows as an array
        rng = np.random.default_rng(45)
        params = FcbfParams(rho=0.9)  # keeps a last-bit difference of h in the rate
        n = 4000
        deltas = rng.uniform(0.3, 0.7, n).tolist()
        x = rng.uniform(-1, 1, (n, 2))
        requests = [
            RowRequest(i + 1, x[i], np.zeros(2), deltas[i], [n + 1], [x[i]], [], [], ())
            for i in range(n)
        ]
        rows = team_rows(requests, params, 0.12, Domain(-2, 2, -2, 2))
        want = [-0.5 * scalar_rate(d**2, params) for d in deltas]
        assert bits(rows.offsets).tolist() == bits(want).tolist()

    def test_a_robot_without_partners_gets_its_obstacle_rows(self):
        domain = Domain(-1, 1, -1, 1, (Obstacle(np.zeros(2), 1.0, 1.0),))
        request = RowRequest(3, np.array([0.9, 0.9]), np.zeros(2), 0.5, [], [], [], [], ())
        rows = team_rows([request], FcbfParams(), 0.12, domain)
        assert len(rows) == 1 and rows.owners.tolist() == [3]
        assert len(RowBlock.team([])) == 0


def random_rows(rng, robot, m):
    normals = rng.normal(size=(m, 2)) * rng.uniform(0.3, 3.0, (m, 1))
    return RowBlock(
        robot, normals, rng.uniform(-1, 1, m), rng.random(m) < 0.4,
        np.zeros(m, dtype=int), (None,) * m,
    )


class TestTeamSolve:
    def test_a_robot_solves_alike_alone_and_in_any_team(self):
        rng = np.random.default_rng(43)
        statuses = set()
        for _ in range(120):
            n = int(rng.integers(1, 9))
            ids = np.sort(rng.choice(np.arange(1, 40), n, replace=False)).tolist()
            counts = [int(rng.choice([0, 20, rng.integers(1, 7)])) for _ in ids]
            blocks = [random_rows(rng, i, m) for i, m in zip(ids, counts)]
            nominal = rng.uniform(-1, 1, (n, 2))
            limit = float(rng.uniform(0.3, 2.0))
            # interleave the robots' rows; each robot's own order is kept
            team = RowBlock.team(blocks)
            labels = rng.permutation(team.owners)
            order = np.empty(len(team), dtype=int)
            order[np.argsort(labels, kind="stable")] = np.arange(len(team))
            team = team.take(order)
            assert team.owners.tolist() == labels.tolist()
            problem = QpProblem(nominal, team, limit, robots=tuple(ids))
            got = solve(problem)
            assert got.u.shape == (n, 2) and len(got.statuses) == n
            soft = np.flatnonzero(~team.hard)
            for r, (i, block) in enumerate(zip(ids, blocks)):
                alone = solve(QpProblem(nominal[r], block, limit))
                mine = np.flatnonzero(team.owners == i)
                assert got.statuses[r] == alone.status
                assert bits(got.u[r]).tolist() == bits(alone.u).tolist()
                assert bits(np.array(got.row_multipliers)[mine]).tolist() == bits(alone.row_multipliers).tolist()
                assert bits(got.box_multipliers[r]).tolist() == bits(alone.box_multipliers).tolist()
                team_slacks = np.array(got.slacks)[np.isin(soft, mine)]
                assert bits(team_slacks).tolist() == bits(alone.slacks).tolist()
                statuses.add(alone.status)
            worst = [s for s in ("infeasible_hard", "relaxed", "optimal") if s in got.statuses][0]
            assert got.status == worst
        assert statuses == {"optimal", "relaxed", "infeasible_hard"}

    def test_mixed_zero_and_twenty_row_robots(self):
        rng = np.random.default_rng(44)
        blocks = [random_rows(rng, 1, 0), random_rows(rng, 2, 20), random_rows(rng, 5, 0)]
        nominal = np.array([[0.1, -0.2], [0.5, 0.5], [3.0, 0.0]])
        got = solve(QpProblem(nominal, RowBlock.team(blocks), 0.4, robots=(1, 2, 5)))
        np.testing.assert_array_equal(got.u[0], [0.1, -0.2])
        np.testing.assert_allclose(got.u[2], [0.4, 0.0], atol=1e-15)
        alone = solve(QpProblem(nominal[1], blocks[1], 0.4))
        assert bits(got.u[1]).tolist() == bits(alone.u).tolist()

    def test_team_problem_checks(self):
        rows = RowBlock.team([random_rows(np.random.default_rng(0), 2, 3)])
        with pytest.raises(ValueError):
            QpProblem(np.zeros((1, 2)), rows, 1.0, robots=(1,))
        with pytest.raises(ValueError):
            QpProblem(np.zeros(2), rows, 1.0, robots=(2,))
        with pytest.raises(ValueError):
            QpProblem(np.array([[0.0, np.nan]]), rows, 1.0, robots=(2,))
        many = RowBlock.team([random_rows(np.random.default_rng(1), 2, 64),
                              random_rows(np.random.default_rng(2), 3, 64)])
        assert len(QpProblem(np.zeros((2, 2)), many, 1.0, robots=(2, 3)).rows) == 128
        with pytest.raises(ValueError):
            QpProblem(np.zeros((2, 2)), RowBlock.team([many, random_rows(np.random.default_rng(3), 3, 1)]),
                      1.0, robots=(2, 3))


def rows_of(spec):
    """A one-robot block from (nx, ny, b, hard) tuples."""
    m = len(spec)
    arr = np.array([s[:3] for s in spec], dtype=float).reshape(m, 3)
    return RowBlock(1, arr[:, :2], arr[:, 2], np.array([s[3] for s in spec], dtype=bool),
                    np.zeros(m, dtype=int), (None,) * m)


DEGENERATE = {
    "duplicate rows": ((1.0, 0.0), [(1, 0, 0.5, False), (1, 0, 0.5, False), (0, 1, -2, True)], 1.0),
    "duplicate rows at a corner": ((1.0, 1.0), [(-1, 0, 0, True), (-1, 0, 0, True), (0, -1, 0, False)], 1.0),
    "antiparallel rows, empty soft strip": ((0.0, 0.3), [(1, 0, 0.5, False), (-1, 0, 0.5, False)], 1.0),
    "antiparallel rows, empty hard strip": ((0.0, 0.3), [(1, 0, 0.5, True), (-1, 0, 0.5, True)], 1.0),
    "antiparallel rows, empty mixed strip": ((0.0, 0.3), [(1, 0, 0.5, True), (-1, 0, 0.5, False)], 1.0),
    "antiparallel rows, thin strip": ((0.9, 0.3), [(1, 0, 0.2, True), (-1, 0, -0.2, False)], 1.0),
    "three rows through one vertex": (
        (1.0, 1.0), [(-1, 0, -0.1, False), (0, -1, -0.1, True), (-1, -1, -0.2, False)], 1.0),
    "three rows through one vertex, one redundant": (
        (1.0, 0.2), [(-1, 0, -0.1, False), (-2, -1, -0.3, True), (-1, -1, -0.2, False)], 1.0),
    "vertex on a box corner": ((1.0, 0.5), [(-1, 1, 0, True)], 0.2),
    "row through a box corner, nominal beyond it": ((0.5, 0.5), [(-1, -1, -0.4, False)], 0.2),
    "nominal exactly on a row": ((0.3, 0.0), [(1, 0, 0.3, False)], 1.0),
    "nominal exactly on a row, another violated": ((0.3, 0.0), [(1, 0, 0.3, True), (0, 1, 0.2, False)], 1.0),
    "nominal exactly on the box": ((0.2, -0.2), [], 0.2),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_cases_match_the_oracle(name):
    nominal, spec, limit = DEGENERATE[name]
    problem = QpProblem(np.array(nominal), rows_of(spec), limit)
    got = solve(problem)
    ref = oracle_solve(problem)
    assert got.status == ref.status
    assert float(np.max(np.abs(got.u - ref.u))) <= 1e-6
    if got.status != "infeasible_hard":
        assert min(got.row_multipliers + got.box_multipliers, default=0.0) >= 0.0
        assert max(kkt_residuals(problem, got).values()) <= 1e-8
