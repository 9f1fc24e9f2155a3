"""The batched team tick: one row assembly and one QP solve for every robot.

Each robot's rows and solution must not depend on the team it is solved in:
the rows ``team_rows`` builds, laid out by their row plan, fill each robot's
layout row with the rows of its own one-robot stacks bit for bit, and a
robot's solution, status and multipliers are the same solved alone or in any
team.
"""

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from swarmseq import agent
from swarmseq.agent import OBSTACLE_ACTIVATION, Team, TeamRequest, team_rows
from swarmseq.barriers import (
    Collision,
    Connectivity,
    FcbfParams,
    KeepWithin,
    ObstacleAvoid,
    RowBlock,
    constraint_row,
    sq_dist,
)
from swarmseq.geometry import Domain, Obstacle, proximity_graph
from swarmseq.mission import builtin_scenario
from swarmseq.qp import QpProblem, RowLayout, kkt_residuals, oracle_solve, solve
from swarmseq.sim import DelaySpec, make_world, run, tick


def bits(a):
    """The float64 bit patterns of an array, so that -0.0 differs from 0.0."""
    return np.asarray(a, dtype=float).view(np.int64)


def scalar_rate(h, params):
    if h == 0.0:
        return 0.0
    return params.gamma * math.copysign(abs(h) ** params.rho, h)


class OwnRequest(NamedTuple):
    """One robot's QP before its rows are built, as its own one-robot stacks see it."""

    robot: int
    position: np.ndarray
    nominal: np.ndarray
    delta: float  # the range its connectivity rows drive partners into
    partners: list  # connectivity partners, in row order
    partner_positions: list
    colliders: list  # ascending
    collider_positions: list
    initial: tuple


def as_team(requests):
    """The robots' requests as one ``TeamRequest``, robot by robot."""
    def rows(names):
        slots, others, where = [], [], []
        for s, r in enumerate(requests):
            ids, positions = getattr(r, names[0]), getattr(r, names[1])
            slots += [s] * len(ids)
            others += ids
            where += positions
        return np.array(slots, dtype=int), np.array(others, dtype=int), np.array(where).reshape(-1, 2)

    conn = rows(("partners", "partner_positions"))
    deltas = np.array([r.delta for r in requests for _ in r.partners])
    coll = rows(("colliders", "collider_positions"))
    x = np.array([r.position for r in requests]).reshape(-1, 2)
    return TeamRequest(
        np.array([r.robot for r in requests]), x, np.array([r.nominal for r in requests]), conn + (deltas,),
        coll + (sq_dist(x[coll[0]] - coll[2]),), tuple((s, kind) for s, r in enumerate(requests) for kind in r.initial),
    )


def rows_at(kind, params, *positions):
    """The named ``constraint_row`` of the kind's own values at ``positions``."""
    return constraint_row(kind, params, kind.value(*positions), *positions).named(kind)


def own_rows(request, params, min_sep, domain):
    """One robot's rows built from its own one-robot stacks, kind by kind."""
    x = request.position
    blocks = []
    if request.partners:
        kind = Connectivity(request.robot, tuple(request.partners), request.delta)
        blocks.append(rows_at(kind, params, x, np.array(request.partner_positions)))
    if request.colliders:
        kind = Collision(request.robot, tuple(request.colliders), min_sep)
        blocks.append(rows_at(kind, params, x, np.array(request.collider_positions)))
    if domain.obstacles:
        kind = ObstacleAvoid(request.robot, domain.obstacle_stack)
        active = np.flatnonzero(kind.value(x) <= OBSTACLE_ACTIVATION)
        if len(active):
            blocks.append(rows_at(kind, params, x).take(active))
    blocks += [rows_at(kind, params, x) for kind in request.initial]
    return RowBlock.concat(blocks)


def assert_own_rows(team, s, request, params, min_sep, domain):
    """Slot s of a team layout holds the robot's own rows bit for bit, then
    pad rows; returns its block."""
    got = team.block(s)
    want = own_rows(request, params, min_sep, domain)
    assert got.robot == request.robot
    assert got.kinds == want.kinds
    assert got.others.tolist() == want.others.tolist()
    assert got.hard.tolist() == want.hard.tolist()
    assert bits(got.normals).tolist() == bits(want.normals).tolist()
    assert bits(got.offsets).tolist() == bits(want.offsets).tolist()
    # the columns past the robot's rows are pad rows 0 . u >= -1
    pad = slice(len(got), team.width)
    assert not team.normals[s, pad].any() and (team.offsets[s, pad] == -1.0).all()
    assert team.hard[s, pad].all()
    return got


def laid_out(request, params, min_sep, domain):
    """The rows of ``team_rows`` in the solver's layout, as their plan fills
    it: flat row k in the layout row of its slot ``plan.slots[k]``."""
    plan, normals, offsets = team_rows(request, params, min_sep, domain)
    layout = plan.fill(normals, offsets)
    assert (plan.flat // layout.offsets.shape[1] == plan.slots).all()
    return layout


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
        requests.append(OwnRequest(
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
            team = laid_out(as_team(requests), params, 0.12, domain)
            assert team.robots.tolist() == [r.robot for r in requests]
            assert len(team) == int(team.counts.sum())
            for s, request in enumerate(requests):
                got = assert_own_rows(team, s, request, params, 0.12, domain)
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
            OwnRequest(i + 1, x[i], np.zeros(2), deltas[i], [n + 1], [x[i]], [], [], ())
            for i in range(n)
        ]
        rows = laid_out(as_team(requests), params, 0.12, Domain(-2, 2, -2, 2))
        want = [-0.5 * scalar_rate(d**2, params) for d in deltas]
        assert rows.width == 1
        assert bits(rows.offsets[:, 0]).tolist() == bits(want).tolist()

    def test_ticks_select_obstacle_rows_from_the_domain_stack(self, monkeypatch):
        # the active (robot, obstacle) pairs index the stack the domain
        # checked once; no tick builds or re-checks an Obstacle
        plan, config = builtin_scenario("securing_a_building")
        built, obstacle_rows = [], []
        real_check, real_rows = Obstacle.__post_init__, agent.constraint_row
        monkeypatch.setattr(Obstacle, "__post_init__", lambda o: built.append(o) or real_check(o))

        def counted_rows(kind, *args):
            if isinstance(kind, ObstacleAvoid):
                obstacle_rows.append(len(kind.i))
            return real_rows(kind, *args)

        monkeypatch.setattr(agent, "constraint_row", counted_rows)
        run(plan, replace(config, max_ticks=50))
        assert sum(obstacle_rows) > 0 and built == []

    def test_a_robot_without_partners_gets_its_obstacle_rows(self):
        domain = Domain(-1, 1, -1, 1, (Obstacle(np.zeros(2), 1.0, 1.0),))
        request = OwnRequest(3, np.array([0.9, 0.9]), np.zeros(2), 0.5, [], [], [], [], ())
        rows = laid_out(as_team([request]), FcbfParams(), 0.12, domain)
        assert len(rows) == 1 and rows.robots.tolist() == [3]
        assert rows.block(0).kinds == (ObstacleAvoid,) and rows.block(0).others.tolist() == [1]
        assert len(RowLayout.of([])) == 0


def count_layouts(monkeypatch):
    """A list that gets one entry per ``RowLayout.empty`` call: one per row plan built."""
    built, real = [], RowLayout.empty
    monkeypatch.setattr(RowLayout, "empty", staticmethod(lambda *args: built.append(args) or real(*args)))
    return built


def chain_requests(x, delta=0.5, colliders=None, initial=None):
    """Three robots in a chain 1 - 2 - 3, at ``x``."""
    partners = ([2], [1, 3], [2])
    colliders = colliders or ([], [], [])
    return [
        OwnRequest(i + 1, x[i], np.zeros(2), delta, partners[i], [x[j - 1] for j in partners[i]],
                   colliders[i], [x[j - 1] for j in colliders[i]], (initial or {}).get(i + 1, ()))
        for i in range(3)
    ]


class TestRowPlan:
    def test_the_plan_is_built_only_when_the_structure_changes(self, monkeypatch):
        # two_behavior_demo under delay: one layout a tick before the plan
        plan, config = builtin_scenario("two_behavior_demo")
        built = count_layouts(monkeypatch)
        record = run(plan, replace(config, delay=DelaySpec.uniform(0, 10), max_ticks=300))
        assert record.ticks == 300
        assert 0 < len(built) < 30

    def test_every_change_of_structure_gets_its_own_plan(self, monkeypatch):
        # one thing changes at a time; the rows are each robot's own rows
        # every time, and only an unchanged structure reuses the plan
        params = FcbfParams(rho=0.5, gamma=1.3)
        near = Domain(-3, 3, -3, 3, (Obstacle(np.zeros(2), 1.0, 1.0),))
        # the same active pair as ``near``, with other rows
        shifted = Domain(-3, 3, -3, 3, (Obstacle(np.array([0.0, 1e-3]), 1.0, 1.0),))
        x = np.array([[1.9, 0.0], [1.6, 0.2], [1.3, 0.0]])
        jitter = np.array([[1e-3, -2e-3], [0.0, 1e-3], [-1e-3, 0.0]])
        keep = KeepWithin(2, (1.5, 0.0), 0.8)
        apart, at_margin = x.copy(), x.copy()
        apart[0], at_margin[0] = [2.05, 0.0], [2.0, 0.0]  # robot 1 at h = 3.2025, then at h = 3
        steps = [  # (requests, min_sep, domain, a new plan)
            (chain_requests(x), 0.12, near, True),
            (chain_requests(x + jitter), 0.12, near, False),
            (chain_requests(x, colliders=([2], [1], [])), 0.12, near, True),
            (chain_requests(x), 0.12, near, True),
            (chain_requests(x, delta=0.5 * 0.96), 0.12, near, True),
            (chain_requests(x), 0.12, near, True),
            (chain_requests(apart), 0.12, near, True),
            (chain_requests(at_margin), 0.12, near, True),
            (chain_requests(x, initial={2: (keep,)}), 0.12, near, True),
            (chain_requests(x + jitter, initial={2: (keep,)}), 0.12, near, False),
            (chain_requests(x), 0.12, shifted, True),
            (chain_requests(x), 0.12, near, True),
            (chain_requests(x), 0.15, near, True),
            (chain_requests(x), 0.12, near, True),
            (chain_requests(x + jitter), 0.12, near, False),
        ]
        assert ObstacleAvoid(1, near.obstacle_stack).value(apart[0]) > OBSTACLE_ACTIVATION
        assert ObstacleAvoid(1, near.obstacle_stack).value(at_margin[0]) == OBSTACLE_ACTIVATION
        built = count_layouts(monkeypatch)
        for requests, min_sep, domain, new in steps:
            before = len(built)
            team = laid_out(as_team(requests), params, min_sep, domain)
            assert len(built) == before + new
            for s, request in enumerate(requests):
                assert_own_rows(team, s, request, params, min_sep, domain)

    def test_writing_into_a_layout_changes_no_later_layout(self):
        params = FcbfParams()
        domain = Domain(-3, 3, -3, 3, (Obstacle(np.zeros(2), 1.0, 1.0),))
        requests = chain_requests(np.array([[1.9, 0.0], [1.6, 0.2], [1.3, 0.0]]), colliders=([2], [1], []))
        first = laid_out(as_team(requests), params, 0.12, domain)
        QpProblem(np.zeros((3, 2)), first, 0.4)  # writes the box rows
        first.normals[:] = 7.0
        first.offsets[:] = 7.0
        later = laid_out(as_team(requests), params, 0.12, domain)
        assert later.normals is not first.normals and later.offsets is not first.offsets
        for s, request in enumerate(requests):
            assert_own_rows(later, s, request, params, 0.12, domain)
        assert not later.normals[:, later.width:].any() and (later.offsets[:, later.width:] == -1.0).all()


def own_requests(request):
    """Each slot of a ``TeamRequest`` as the robot's own request; its
    collision rows see positions only, not the request's squared distances."""
    slot, partners, seen, deltas = request.conn
    coll_slot, colliders, collider_seen, _ = request.coll
    requests = []
    for s, robot in enumerate(request.robots.tolist()):
        mine, close = slot == s, coll_slot == s
        assert len(set(deltas[mine].tolist())) <= 1  # one range per robot
        requests.append(OwnRequest(
            robot, request.position[s], request.nominal[s], float(deltas[mine][0]) if mine.any() else 0.5,
            partners[mine].tolist(), list(seen[mine]), colliders[close].tolist(), list(collider_seen[close]),
            tuple(kind for t, kind in request.initial if t == s),
        ))
    return requests


class TestOneTablePerTick:
    @pytest.mark.parametrize("scenario, changes", [
        ("securing_a_building", {}),
        ("two_behavior_demo", {"oracle_sensing": False, "delay": DelaySpec.uniform(0, 10)}),
    ])
    def test_every_tick_senses_once_and_gets_each_robots_own_rows(self, monkeypatch, scenario, changes):
        # the world's mask and squared distances are the proximity graph's and
        # every pair's own; the rows built from them (collision values from
        # the table, obstacle values from the activation test) are each
        # robot's own rows, across plan rebuilds
        plan, config = builtin_scenario(scenario)
        config = replace(config, **changes)
        built, kinds, real = count_layouts(monkeypatch), set(), agent.team_rows

        def checked_rows(request, params, min_sep, domain):
            rows = real(request, params, min_sep, domain)
            layout = rows[0].fill(*rows[1:])
            for s, own in enumerate(own_requests(request)):
                kinds.update(assert_own_rows(layout, s, own, params, min_sep, domain).kinds)
            return rows

        monkeypatch.setattr(agent, "team_rows", checked_rows)
        team, world = Team.start(plan), make_world(plan, config)
        for _ in range(300):
            x, n = world.positions, plan.n
            assert np.array_equal(world.sensed, proximity_graph(x, plan.delta).mask)
            pairs = [[sq_dist(x[i] - x[j]) for j in range(n)] for i in range(n)]
            assert bits(world.sq_dist).tolist() == bits(pairs).tolist()
            tick(world, team, plan, config)
        assert 1 < len(built) < 300  # rebuilt when the structure changed, else reused
        assert {Connectivity, Collision} <= kinds
        assert (ObstacleAvoid in kinds) == bool(plan.domain.obstacles)


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
            team = RowLayout.of(blocks)
            assert len(team) == sum(counts)
            got = solve(QpProblem(nominal, team, limit))
            assert got.u.shape == (n, 2) and len(got.statuses) == n
            # multipliers and slacks are shaped like the layout: a robot's rows,
            # then pad rows up to the team's widest robot, then its box
            assert got.multipliers.shape == got.slacks.shape == team.offsets.shape
            for r, block in enumerate(blocks):
                alone = solve(QpProblem(nominal[r], block, limit))
                m = counts[r]
                assert got.statuses[r] == alone.status
                assert bits(got.u[r]).tolist() == bits(alone.u).tolist()
                for mine, theirs in ((got.multipliers[r], alone.multipliers[0]), (got.slacks[r], alone.slacks[0])):
                    assert bits(mine[:m]).tolist() == bits(theirs[:m]).tolist()
                    assert bits(mine[-4:]).tolist() == bits(theirs[-4:]).tolist()
                    assert not mine[m:-4].any()  # pad rows never bind
                assert not got.slacks[r, :m][block.hard].any() and not got.slacks[r, -4:].any()
                statuses.add(alone.status)
            worst = [s for s in ("infeasible_hard", "relaxed", "optimal") if s in got.statuses][0]
            assert got.status == worst
        assert statuses == {"optimal", "relaxed", "infeasible_hard"}

    def test_mixed_zero_and_twenty_row_robots(self):
        rng = np.random.default_rng(44)
        blocks = [random_rows(rng, 1, 0), random_rows(rng, 2, 20), random_rows(rng, 5, 0)]
        nominal = np.array([[0.1, -0.2], [0.5, 0.5], [3.0, 0.0]])
        got = solve(QpProblem(nominal, RowLayout.of(blocks), 0.4))
        np.testing.assert_array_equal(got.u[0], [0.1, -0.2])
        np.testing.assert_allclose(got.u[2], [0.4, 0.0], atol=1e-15)
        alone = solve(QpProblem(nominal[1], blocks[1], 0.4))
        assert bits(got.u[1]).tolist() == bits(alone.u).tolist()

    def test_team_problem_checks(self):
        rows = RowLayout.of([random_rows(np.random.default_rng(0), 2, 3)])
        with pytest.raises(ValueError):
            QpProblem(np.zeros(2), rows, 1.0)
        with pytest.raises(ValueError):
            QpProblem(np.zeros((1, 2)), rows.block(0), 1.0)
        with pytest.raises(ValueError):
            QpProblem(np.array([[0.0, np.nan]]), rows, 1.0)
        with pytest.raises(ValueError):
            QpProblem(np.zeros((1, 2)), rows, 0.0)
        bad = random_rows(np.random.default_rng(4), 2, 3)
        bad.normals[1, 0] = np.inf
        with pytest.raises(ValueError):
            QpProblem(np.zeros((1, 2)), RowLayout.of([bad]), 1.0)
        many = [random_rows(np.random.default_rng(1), 2, 64), random_rows(np.random.default_rng(2), 3, 64)]
        assert len(QpProblem(np.zeros((2, 2)), RowLayout.of(many), 1.0).rows) == 128
        with pytest.raises(ValueError):
            QpProblem(np.zeros((2, 2)), RowLayout.of([many[0], random_rows(np.random.default_rng(3), 3, 65)]), 1.0)


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
    "three soft rows through one point, a hard row binding": (
        (0.0, 0.0), [(1, 0, 0.5, False), (0, 1, 0.5, False), (1, 1, 1.0, False), (-1, 0, -0.2, True)], 1.0),
    "two parallel soft rows, a hard vertex": (
        (0.0, 0.5), [(1, 0, 0.6, False), (2, 0, 1.6, False), (-1, 0, -0.3, True), (0, -1, -0.1, True)], 1.0),
    "violated soft row with a zero normal": ((0.3, 0.2), [(0, 0, 0.5, False)], 1.0),
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
        assert got.multipliers.min() >= 0.0
        assert max(kkt_residuals(problem, got).values()) <= 1e-8
