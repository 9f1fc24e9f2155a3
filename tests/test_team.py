"""The batched team tick: one row assembly and one QP solve for every robot.

Each robot's rows and solution must not depend on the team it is solved in:
the rows ``team_rows`` builds, laid out by their row plan, fill each robot's
layout row with the rows of its own one-robot stacks bit for bit, each with
the identity the plan's calls give it, and a robot's solution, status and
multipliers are the same solved alone or in any team.
"""

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from swarmseq import agent, sim
from swarmseq.agent import OBSTACLE_ACTIVATION, Team, TeamRequest, TickGraph, team_rows
from swarmseq.barriers import (
    Collision,
    Connectivity,
    FcbfParams,
    KeepWithin,
    ObstacleAvoid,
    PairStack,
    RowBlock,
    constraint_row,
)
from swarmseq.geometry import Domain, Obstacle, proximity_graph
from swarmseq.mission import builtin_scenario
from swarmseq.qp import QpProblem, RowLayout, kkt_residuals, oracle_solve, solve
from swarmseq.sim import DelaySpec, make_world, run, tick
from test_qp import one_robot, team_layout


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


def as_team(requests, graph=None):
    """The robots' requests as one ``TeamRequest``, robot by robot, on a
    ``TickGraph`` built as ``step`` builds one, or on ``graph``, which must
    have the same structure."""
    def rows(names):
        robots, others, where = [], [], []
        for r in requests:
            ids, positions = getattr(r, names[0]), getattr(r, names[1])
            robots += [r.robot - 1] * len(ids)
            others += [j - 1 for j in ids]
            where += positions
        return np.array(robots, dtype=int), np.array(others, dtype=int), np.array(where).reshape(-1, 2)

    conn = rows(("partners", "partner_positions"))
    deltas = np.array([r.delta for r in requests for _ in r.partners])
    coll = rows(("colliders", "collider_positions"))
    initial = tuple((s, kind) for s, r in enumerate(requests) for kind in r.initial)
    built = TickGraph.of(np.array([r.robot - 1 for r in requests]), (*conn[:2], deltas), coll[:2], initial)
    if graph is None:
        graph = built
    else:
        assert graph.robots.tolist() == built.robots.tolist() and graph.conn == built.conn
        assert all(a.tolist() == b.tolist() for a, b in zip((*graph.pairs, graph.slots), (*built.pairs, built.slots)))
        assert bits(graph.deltas).tolist() == bits(built.deltas).tolist()
        assert [(s, id(kind)) for s, kind in graph.initial] == [(s, id(kind)) for s, kind in built.initial]
    x = np.array([r.position for r in requests]).reshape(-1, 2)
    return TeamRequest(graph, x, np.array([r.nominal for r in requests]), np.concatenate((conn[2], coll[2])))


def rows_at(kind, params, *positions):
    """``constraint_row`` of the kind's own values at ``positions``."""
    return constraint_row(kind, params, kind.value(*positions), *positions)


def row_identity(plan, s):
    """The identity of slot s's rows, column by column, read from the plan:
    each row's barrier class and its other robot (pairwise), its 1-based
    obstacle index (obstacle) or None (an initial constraint), from the call
    that builds it, at the layout cell ``plan.flat`` gives the row."""
    cells = []
    for kind, slot, _ in plan.calls:
        if isinstance(kind, PairStack):
            cells += zip([Collision if hard else Connectivity for hard in kind.hard.tolist()], kind.j.tolist())
        else:
            n = np.size(slot)
            cells += zip([type(kind)] * n, np.broadcast_to(getattr(kind, "index", None), n).tolist())
    at = dict(zip(plan.flat.tolist(), cells))
    width = plan.template.offsets.shape[1]
    return [at[s * width + c] for c in range(plan.template.counts[s])]


def assert_covers_once(plan):
    """``plan.flat`` names each robot's first ``counts[r]`` layout cells, each exactly once."""
    t = plan.template
    assert np.sort(plan.flat).tolist() == np.flatnonzero(np.arange(t.offsets.shape[1]) < t.counts[:, None]).tolist()


def own_rows(request, params, min_sep, domain):
    """One robot's rows built from its own one-robot stacks, kind by kind: its
    normals, offsets and hard mask, and each row's identity as ``row_identity``
    gives it."""
    x = request.position
    parts = []  # (rows, barrier class, others)
    if request.partners:
        kind = Connectivity(request.robot, tuple(request.partners), request.delta)
        parts.append((rows_at(kind, params, x, np.array(request.partner_positions)), Connectivity, request.partners))
    if request.colliders:
        kind = Collision(request.robot, tuple(request.colliders), min_sep)
        parts.append((rows_at(kind, params, x, np.array(request.collider_positions)), Collision, request.colliders))
    if domain.obstacles:
        kind = ObstacleAvoid(request.robot, domain.obstacle_stack)
        active = np.flatnonzero(kind.value(x) <= OBSTACLE_ACTIVATION)
        rows = rows_at(kind, params, x)
        parts.append((RowBlock(rows.normals[active], rows.offsets[active], rows.hard), ObstacleAvoid,
                      (active + 1).tolist()))
    parts += [(rows_at(kind, params, x), type(kind), [None]) for kind in request.initial]
    blocks = [rows for rows, _, _ in parts]
    normals = np.concatenate([np.empty((0, 2)), *(b.normals for b in blocks)])
    offsets = np.concatenate([[], *(b.offsets for b in blocks)])
    hard = np.concatenate([np.empty(0, dtype=bool), *(np.broadcast_to(b.hard, len(b.offsets)) for b in blocks)])
    return normals, offsets, hard, [(cls, j) for _, cls, others in parts for j in others]


def assert_own_rows(plan, team, s, request, params, min_sep, domain):
    """Slot s of a team layout holds the robot's own rows bit for bit, with
    their identity, then pad rows; returns the identity."""
    m = team.counts[s]
    normals, offsets, hard, identity = own_rows(request, params, min_sep, domain)
    assert team.robots[s] == request.robot
    got = row_identity(plan, s)
    assert got == identity
    assert team.hard[s, :m].tolist() == hard.tolist()
    assert bits(team.normals[s, :m]).tolist() == bits(normals).tolist()
    assert bits(team.offsets[s, :m]).tolist() == bits(offsets).tolist()
    # the columns past the robot's rows are pad rows 0 . u >= -1
    pad = slice(m, team.width)
    assert not team.normals[s, pad].any() and (team.offsets[s, pad] == -1.0).all()
    assert team.hard[s, pad].all()
    return got


def laid_out(request, params, min_sep, domain):
    """The rows of ``team_rows`` in the solver's layout, as their plan fills
    it: flat row k in the layout row of its slot ``plan.slots[k]``; returns
    (plan, layout)."""
    plan, normals, offsets = team_rows(request, params, min_sep, domain)
    layout = plan.fill(normals, offsets)
    assert (plan.flat // layout.offsets.shape[1] == plan.slots).all()
    return plan, layout


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
            plan, team = laid_out(as_team(requests), params, 0.12, domain)
            assert team.robots.tolist() == [r.robot for r in requests]
            assert len(team) == int(team.counts.sum())
            for s, request in enumerate(requests):
                got = assert_own_rows(plan, team, s, request, params, 0.12, domain)
                kinds_seen.update(kind for kind, _ in got)
                # connectivity offsets square delta with Python's pow
                x = request.position.tolist()
                conn = [k for k, (kind, _) in enumerate(got) if kind is Connectivity]
                for k, p in zip(conn, request.partner_positions):
                    dx, dy = x[0] - float(p[0]), x[1] - float(p[1])
                    h = request.delta**2 - (dx * dx + dy * dy)
                    assert bits(team.offsets[s, k]) == bits(-0.5 * scalar_rate(h, params))
                if np.array_equal(request.position, [2.0, 0.0]):
                    assert ObstacleAvoid(1, obstacles[-1]).value(request.position) == 3.0
                    assert (ObstacleAvoid, len(obstacles)) in got
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
        rows = laid_out(as_team(requests), params, 0.12, Domain(-2, 2, -2, 2))[1]
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
        plan, rows = laid_out(as_team([request]), FcbfParams(), 0.12, domain)
        assert len(rows) == 1 and rows.robots.tolist() == [3]
        assert row_identity(plan, 0) == [(ObstacleAvoid, 1)]


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
        # securing_a_building's plans, rebuilt with its graph and obstacle
        # rows, each place every row in a cell of its own
        plan, config = builtin_scenario("securing_a_building")
        before, real = len(built), agent.team_rows

        def checked_rows(*args):
            rows = real(*args)
            assert_covers_once(rows[0])
            return rows

        monkeypatch.setattr(agent, "team_rows", checked_rows)
        assert run(plan, replace(config, max_ticks=1300)).ticks == 1300
        assert 1 < len(built) - before < 130

    def test_every_change_of_structure_gets_its_own_plan(self, monkeypatch):
        # one thing changes at a time; the rows are each robot's own rows
        # every time, and only an unchanged graph and activation mask reuse
        # the plan. A step marked ``same`` keeps the last step's graph
        params = FcbfParams(rho=0.5, gamma=1.3)
        near = Domain(-3, 3, -3, 3, (Obstacle(np.zeros(2), 1.0, 1.0),))
        # the same active pair as ``near``, with other rows
        shifted = Domain(-3, 3, -3, 3, (Obstacle(np.array([0.0, 1e-3]), 1.0, 1.0),))
        x = np.array([[1.9, 0.0], [1.6, 0.2], [1.3, 0.0]])
        jitter = np.array([[1e-3, -2e-3], [0.0, 1e-3], [-1e-3, 0.0]])
        keep = KeepWithin(2, (1.5, 0.0), 0.8)
        apart, at_margin = x.copy(), x.copy()
        apart[0], at_margin[0] = [2.05, 0.0], [2.0, 0.0]  # robot 1 at h = 3.2025, then at h = 3
        steps = [  # (requests, same, min_sep, domain, a new plan)
            (chain_requests(x), False, 0.12, near, True),
            (chain_requests(x + jitter), True, 0.12, near, False),
            (chain_requests(x, colliders=([2], [1], [])), False, 0.12, near, True),
            (chain_requests(x), False, 0.12, near, True),
            (chain_requests(x, delta=0.5 * 0.96), False, 0.12, near, True),
            (chain_requests(x), False, 0.12, near, True),
            (chain_requests(apart), True, 0.12, near, True),
            (chain_requests(at_margin), True, 0.12, near, True),
            (chain_requests(x, initial={2: (keep,)}), False, 0.12, near, True),
            (chain_requests(x + jitter, initial={2: (keep,)}), True, 0.12, near, False),
            (chain_requests(x), False, 0.12, shifted, True),
            (chain_requests(x), True, 0.12, near, True),
            (chain_requests(x), True, 0.15, near, True),
            (chain_requests(x), True, 0.12, near, True),
            (chain_requests(x + jitter), True, 0.12, near, False),
        ]
        assert ObstacleAvoid(1, near.obstacle_stack).value(apart[0]) > OBSTACLE_ACTIVATION
        assert ObstacleAvoid(1, near.obstacle_stack).value(at_margin[0]) == OBSTACLE_ACTIVATION
        built = count_layouts(monkeypatch)
        graph = None
        for requests, same, min_sep, domain, new in steps:
            before = len(built)
            request = as_team(requests, graph if same else None)
            graph = request.graph
            plan, team = laid_out(request, params, min_sep, domain)
            assert len(built) == before + new
            for s, request in enumerate(requests):
                assert_own_rows(plan, team, s, request, params, min_sep, domain)

    def test_writing_into_a_layout_changes_no_later_layout(self):
        params = FcbfParams()
        domain = Domain(-3, 3, -3, 3, (Obstacle(np.zeros(2), 1.0, 1.0),))
        requests = chain_requests(np.array([[1.9, 0.0], [1.6, 0.2], [1.3, 0.0]]), colliders=([2], [1], []))
        request = as_team(requests)
        first = laid_out(request, params, 0.12, domain)[1]
        QpProblem(np.zeros((3, 2)), first, 0.4)  # writes the box rows
        first.normals[:] = 7.0
        first.offsets[:] = 7.0
        plan, later = laid_out(request, params, 0.12, domain)
        assert later.normals is not first.normals and later.offsets is not first.offsets
        for s, request in enumerate(requests):
            assert_own_rows(plan, later, s, request, params, 0.12, domain)
        assert not later.normals[:, later.width:].any() and (later.offsets[:, later.width:] == -1.0).all()


def ticks_of(scenario, changes, max_ticks=None):
    """A mission's ticks, one per ``next``, until it is done or capped: each
    yields the tick's controls, positions, sigma, eta, mode and k as bytes;
    the last item is the event log."""
    plan, config = builtin_scenario(scenario)
    config = replace(config, **changes, max_ticks=max_ticks or config.max_ticks)
    team, world = Team.start(plan), make_world(plan, config)
    while world.tick < config.max_ticks and not team.done.all():
        controls = tick(world, team, plan, config)
        yield [a.tobytes() for a in (controls, world.positions, team.sigma, team.eta, team.mode, team.k)]
    yield world.event_log


class TestTickGraph:
    # two_behavior_demo under delay, and securing_a_building, whose rows include obstacles
    MISSIONS = (("two_behavior_demo", {"delay": DelaySpec.uniform(0, 10)}, None), ("securing_a_building", {}, 300))

    def test_interleaved_missions_keep_their_bytes_and_their_plans(self, monkeypatch):
        # each team keeps its own graph and plan: two missions ticked in
        # turn in one process give each its solo outputs and build no more
        # plans than the two solo runs
        built = count_layouts(monkeypatch)
        solo, solo_plans = [], 0
        for mission in self.MISSIONS:
            before = len(built)
            solo.append(list(ticks_of(*mission)))
            solo_plans += len(built) - before
        before = len(built)
        runs = [ticks_of(*mission) for mission in self.MISSIONS]
        together = [[], []]
        while runs[0] is not None or runs[1] is not None:
            for m, ticks in enumerate(runs):
                if ticks is not None:
                    item = next(ticks, None)
                    if item is None:
                        runs[m] = None
                    else:
                        together[m].append(item)
        assert len(solo[0]) > len(solo[1]) == 301
        assert together == solo
        assert len(built) - before == solo_plans

    @pytest.mark.parametrize("scenario, changes, max_ticks", [
        ("two_behavior_demo", {"oracle_sensing": False, "delay": DelaySpec.uniform(0, 10)}, None),
        ("securing_a_building", {}, 1300),
    ])
    def test_the_graph_is_built_exactly_when_the_stage_or_a_mask_changes(self, monkeypatch, scenario, changes,
                                                                          max_ticks):
        # a tick builds one graph when its sensed or known mask differs from
        # the last tick's, and one more when a robot's stage switches in it
        plan, config = builtin_scenario(scenario)
        config = replace(config, **changes, max_ticks=max_ticks or config.max_ticks)
        team, world = Team.start(plan), make_world(plan, config)
        builds, real_of, real_step = [], TickGraph.of.__func__, agent.step

        def counted_of(cls, *args, **kwargs):
            builds[-1] += 1
            return real_of(cls, *args, **kwargs)

        expected, causes, last = [], {"stage": 0, "sensed": 0, "known": 0}, [None, None]

        def observed(team, world, inbox, plan, config):
            stage = team.k.tobytes(), team.mode.tobytes()
            request, events = real_step(team, world, inbox, plan, config)
            known = team.cache.view(world.positions, world.sensed, config.oracle_sensing)[1]
            masks = [world.sensed.tobytes(), known.tobytes()]
            sensed, known = masks[0] != last[0], masks[1] != last[1]
            switched = stage != (team.k.tobytes(), team.mode.tobytes())
            expected.append((sensed or known) + switched)
            if world.tick:
                causes["stage"] += switched
                causes["sensed"] += sensed
                causes["known"] += known and not sensed
            last[:] = masks
            return request, events

        monkeypatch.setattr(TickGraph, "of", classmethod(counted_of))
        monkeypatch.setattr(sim, "step", observed)
        while world.tick < config.max_ticks and not team.done.all():
            builds.append(0)
            tick(world, team, plan, config)
        assert builds == expected
        assert 0 < sum(builds) < len(builds) / 2
        assert causes["stage"] and causes["sensed"]
        assert bool(causes["known"]) == (not config.oracle_sensing)


def own_requests(request):
    """Each slot of a ``TeamRequest`` as the robot's own request."""
    graph, m = request.graph, request.graph.conn
    slot, partners, seen, deltas = graph.slots[:m], graph.pairs[1][:m] + 1, request.seen[:m], graph.deltas
    coll_slot, colliders, collider_seen = graph.slots[m:], graph.pairs[1][m:] + 1, request.seen[m:]
    requests = []
    for s, robot in enumerate(request.robots.tolist()):
        mine, close = slot == s, coll_slot == s
        assert len(set(deltas[mine].tolist())) <= 1  # one range per robot
        requests.append(OwnRequest(
            robot, request.position[s], request.nominal[s], float(deltas[mine][0]) if mine.any() else 0.5,
            partners[mine].tolist(), list(seen[mine]), colliders[close].tolist(), list(collider_seen[close]),
            tuple(kind for t, kind in graph.initial if t == s),
        ))
    return requests


class TestOneTablePerTick:
    @pytest.mark.parametrize("scenario, changes", [
        ("securing_a_building", {}),
        ("two_behavior_demo", {"oracle_sensing": False, "delay": DelaySpec.uniform(0, 10)}),
    ])
    def test_every_tick_senses_once_and_gets_each_robots_own_rows(self, monkeypatch, scenario, changes):
        # the world's mask is the proximity graph's; the rows built on it
        # (collision values from the sensed positions, obstacle values from
        # the activation test) are each robot's own rows, across graph and
        # plan rebuilds
        plan, config = builtin_scenario(scenario)
        config = replace(config, **changes)
        built, kinds, real = count_layouts(monkeypatch), set(), agent.team_rows

        def checked_rows(request, params, min_sep, domain):
            rows = real(request, params, min_sep, domain)
            layout = rows[0].fill(*rows[1:])
            for s, own in enumerate(own_requests(request)):
                kinds.update(kind for kind, _ in assert_own_rows(rows[0], layout, s, own, params, min_sep, domain))
            return rows

        monkeypatch.setattr(agent, "team_rows", checked_rows)
        team, world = Team.start(plan), make_world(plan, config)
        for _ in range(300):
            assert np.array_equal(world.sensed, proximity_graph(world.positions, plan.delta).mask)
            tick(world, team, plan, config)
        assert 1 < len(built) < 300  # rebuilt when the structure changed, else reused
        assert {Connectivity, Collision} <= kinds
        assert (ObstacleAvoid in kinds) == bool(plan.domain.obstacles)


def random_rows(rng, m):
    normals = rng.normal(size=(m, 2)) * rng.uniform(0.3, 3.0, (m, 1))
    return RowBlock(normals, rng.uniform(-1, 1, m), rng.random(m) < 0.4)


class TestTeamSolve:
    def test_a_robot_solves_alike_alone_and_in_any_team(self):
        rng = np.random.default_rng(43)
        statuses = set()
        for _ in range(120):
            n = int(rng.integers(1, 9))
            ids = np.sort(rng.choice(np.arange(1, 40), n, replace=False)).tolist()
            counts = [int(rng.choice([0, 20, rng.integers(1, 7)])) for _ in ids]
            blocks = [random_rows(rng, m) for m in counts]
            nominal = rng.uniform(-1, 1, (n, 2))
            limit = float(rng.uniform(0.3, 2.0))
            team = team_layout(blocks)
            assert len(team) == sum(counts)
            got = solve(QpProblem(nominal, team, limit))
            assert got.u.shape == (n, 2) and len(got.statuses) == n
            # multipliers and slacks are shaped like the layout: a robot's rows,
            # then pad rows up to the team's widest robot, then its box
            assert got.multipliers.shape == got.slacks.shape == team.offsets.shape
            for r, block in enumerate(blocks):
                alone = solve(one_robot(nominal[r], block, limit))
                m = counts[r]
                assert got.statuses[r] == alone.status
                assert bits(got.u[r]).tolist() == bits(alone.u[0]).tolist()
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
        blocks = [random_rows(rng, 0), random_rows(rng, 20), random_rows(rng, 0)]
        nominal = np.array([[0.1, -0.2], [0.5, 0.5], [3.0, 0.0]])
        got = solve(QpProblem(nominal, team_layout(blocks), 0.4))
        np.testing.assert_array_equal(got.u[0], [0.1, -0.2])
        np.testing.assert_allclose(got.u[2], [0.4, 0.0], atol=1e-15)
        alone = solve(one_robot(nominal[1], blocks[1], 0.4))
        assert bits(got.u[1]).tolist() == bits(alone.u[0]).tolist()

    def test_team_problem_checks(self):
        rows = team_layout([random_rows(np.random.default_rng(0), 3)])
        with pytest.raises(ValueError):
            QpProblem(np.zeros(2), rows, 1.0)
        with pytest.raises(ValueError):
            QpProblem(np.array([[0.0, np.nan]]), rows, 1.0)
        with pytest.raises(ValueError):
            QpProblem(np.zeros((1, 2)), rows, 0.0)
        bad = random_rows(np.random.default_rng(4), 3)
        bad.normals[1, 0] = np.inf
        with pytest.raises(ValueError):
            QpProblem(np.zeros((1, 2)), team_layout([bad]), 1.0)
        many = [random_rows(np.random.default_rng(1), 64), random_rows(np.random.default_rng(2), 64)]
        assert len(QpProblem(np.zeros((2, 2)), team_layout(many), 1.0).rows) == 128
        with pytest.raises(ValueError):
            QpProblem(np.zeros((2, 2)), team_layout([many[0], random_rows(np.random.default_rng(3), 65)]), 1.0)


def rows_of(spec):
    """A one-robot block from (nx, ny, b, hard) tuples."""
    arr = np.array([s[:3] for s in spec], dtype=float).reshape(len(spec), 3)
    return RowBlock(arr[:, :2], arr[:, 2], np.array([s[3] for s in spec], dtype=bool))


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
    problem = one_robot(nominal, rows_of(spec), limit)
    got = solve(problem)
    ref = oracle_solve(problem)
    assert got.status == ref.status
    assert float(np.max(np.abs(got.u - ref.u))) <= 1e-6
    if got.status != "infeasible_hard":
        assert got.multipliers.min() >= 0.0
        assert max(kkt_residuals(problem, got).values()) <= 1e-8
