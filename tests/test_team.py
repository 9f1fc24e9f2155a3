"""The batched team tick: one row assembly and one QP solve for every robot.

Each robot's rows and solution must not depend on the team it is solved in:
the rows ``team_rows`` builds, laid out on their ``TickGraph``'s
``RowLayout``, fill each robot's layout row with its own rows, each
barrier's formula written out in Python floats, bit for bit, each with the
identity the kinds of the graph's one row stack give it, and a robot's
solution, status and multipliers are the same solved alone or in any team.
A tick builds all its rows with one ``constraint_row`` call.
"""

import hashlib
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from swarmseq import agent, mission, sim
from swarmseq.agent import OBSTACLE_ACTIVATION, Team, TeamRequest, TickGraph, team_rows
from swarmseq.barriers import Collision, Connectivity, FcbfParams, KeepWithin, ObstacleAvoid, RowBlock, RowStack
from swarmseq.geometry import Domain, Obstacle, proximity_graph
from swarmseq.mission import builtin_scenario
from swarmseq.qp import QpProblem, RowLayout, solve
from swarmseq.sim import DelaySpec, make_world, run, tick
from oracle import kkt_residuals, oracle_solve
from test_barriers import scalar_barrier
from test_bench_hooks import WORKLOADS, load_bench_module
from test_qp import answered, one_robot, team_layout


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


def as_team(requests, min_sep, domain, graph=None):
    """The robots' requests as one ``TeamRequest`` of the robots 1..n that
    they name, on a ``TickGraph`` built as ``step`` builds one, with the rows
    of ``min_sep`` and the domain's obstacles, or on ``graph``, which must
    have the same structure, if its activation mask is the requests'. A
    robot without a request is one that is done: it has no rows, a zero
    nominal and a zero position. A graph built here is keyed on the
    activation mask's bytes alone."""
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
    initial = tuple(sorted((kind for r in requests for kind in r.initial), key=lambda kind: kind.i))
    n = max(max([r.robot, *r.partners, *r.colliders]) for r in requests)
    index, x, nominal = [r.robot - 1 for r in requests], np.zeros((n, 2)), np.zeros((n, 2))
    x[index], nominal[index] = [r.position for r in requests], [r.nominal for r in requests]
    live = np.isin(np.arange(n), index)
    active = (domain.obstacle_values(x) <= OBSTACLE_ACTIVATION) & live[:, None]
    key = (active.tobytes(),)
    if graph is None or graph.key != key:
        none = np.empty(0, dtype=int)
        graph = TickGraph.of(key, n, (none, none), (*conn[:2], deltas), coll[:2], active, initial, min_sep,
                             domain.obstacle_stack, (), None)
    return TeamRequest(graph, x, nominal, np.concatenate((conn[2], coll[2])))


def pairwise_rows(graph):
    """A graph's pairwise rows, read from ``graph.rows.kinds`` and
    ``graph.layout``: (slots, other robots' ids) of its connectivity rows,
    then of its collision rows, and the connectivity rows' deltas."""
    conn, coll = graph.rows.kinds[:2]
    m, slots = len(conn.j), graph.layout.slots
    return (slots[:m], conn.j), (slots[m:m + len(coll.j)], coll.j), np.asarray(conn.delta)


def row_identity(graph, s):
    """The identity of slot s's rows, column by column, read from the
    ``TickGraph``: each row's barrier class and its other robot (pairwise),
    its 1-based obstacle index (obstacle) or None (an initial constraint),
    from the kind of the row stack that holds it, at the layout cell
    ``graph.layout.cells`` gives the row."""
    cells = []
    for kind in graph.rows.kinds:
        n = len(RowStack.of([kind]).i)
        other = getattr(kind, "j", getattr(kind, "index", None))
        cells += zip([type(kind)] * n, np.broadcast_to(other, n).tolist())
    at = dict(zip(graph.layout.cells.tolist(), cells))
    width = graph.layout.hard.shape[1]
    return [at[s * width + c] for c in range(graph.layout.counts[s])]


def assert_covers_once(graph):
    """``graph.layout.cells`` names each robot's first ``counts[r]`` layout cells, each exactly once."""
    t = graph.layout
    assert np.sort(t.cells).tolist() == np.flatnonzero(np.arange(t.hard.shape[1]) < t.counts[:, None]).tolist()


def own_rows(request, params, min_sep, domain):
    """One robot's rows barrier by barrier, each kind's formula written out in
    Python floats (``scalar_barrier``), in the order of its own constraint set:
    its normals, offsets and hard mask, and each row's identity as
    ``row_identity`` gives it."""
    x = request.position
    rows = [(Connectivity(request.robot, j, request.delta), p, j)
            for j, p in zip(request.partners, request.partner_positions)]
    rows += [(Collision(request.robot, j, min_sep), p, j)
             for j, p in zip(request.colliders, request.collider_positions)]
    rows += [(kind, None, m) for m, kind in enumerate((ObstacleAvoid(request.robot, o) for o in domain.obstacles), 1)
             if scalar_barrier(kind, x)[0] <= OBSTACLE_ACTIVATION]
    rows += [(kind, None, None) for kind in request.initial]
    h, normals = zip(*(scalar_barrier(kind, x, p) for kind, p, _ in rows)) if rows else ((), ())
    offsets = [-kind.share * scalar_rate(v, params) for (kind, _, _), v in zip(rows, h)]
    hard = np.array([kind.hard for kind, _, _ in rows], dtype=bool)
    return np.reshape(normals, (-1, 2)), np.array(offsets), hard, [(type(kind), j) for kind, _, j in rows]


def assert_own_rows(graph, team, request, params, min_sep, domain):
    """The robot's slot of a team layout, its id - 1, holds its own rows bit
    for bit, with their identity, then pad rows; returns the identity."""
    s = request.robot - 1
    m = team.counts[s]
    normals, offsets, hard, identity = own_rows(request, params, min_sep, domain)
    got = row_identity(graph, s)
    assert got == identity
    assert team.hard[s, :m].tolist() == hard.tolist()
    assert bits(team.normals[s, :m]).tolist() == bits(normals).tolist()
    assert bits(team.offsets[s, :m]).tolist() == bits(offsets).tolist()
    # the columns past the robot's rows are pad rows 0 . u >= -1
    pad = slice(m, team.width)
    assert not team.normals[s, pad].any() and (team.offsets[s, pad] == -1.0).all()
    assert team.hard[s, pad].all()
    return got


class Laid(NamedTuple):
    """A team's rows as ``solve`` lays them out, (n, width + 4), robot i + 1
    in layout row i."""

    counts: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    hard: np.ndarray
    width: int


def layout_of(request, normals, offsets):
    """The rows ``team_rows`` gives for ``request`` in the solver's layout:
    flat row k in the layout row of its robot, ``graph.layout.slots[k]``."""
    graph = request.graph
    rows = graph.layout
    assert (rows.cells // rows.hard.shape[1] == rows.slots).all() and (rows.slots == graph.rows.i - 1).all()
    laid = QpProblem(request.nominal, rows, normals, offsets, 1.0).laid_out()
    return Laid(rows.counts, *laid, rows.hard, rows.width)


def laid_out(request, params):
    """The rows of ``team_rows`` in the solver's layout; returns (graph, layout)."""
    return request.graph, layout_of(request, *team_rows(request, params))


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
            graph, team = laid_out(as_team(requests, 0.12, domain), params)
            assert len(team.counts) == len(requests) and len(graph.layout) == int(team.counts.sum())
            for request in requests:
                got = assert_own_rows(graph, team, request, params, 0.12, domain)
                kinds_seen.update(kind for kind, _ in got)
                # connectivity offsets square delta with Python's pow
                x = request.position.tolist()
                conn = [k for k, (kind, _) in enumerate(got) if kind is Connectivity]
                for k, p in zip(conn, request.partner_positions):
                    dx, dy = x[0] - float(p[0]), x[1] - float(p[1])
                    h = request.delta**2 - (dx * dx + dy * dy)
                    assert bits(team.offsets[request.robot - 1, k]) == bits(-0.5 * scalar_rate(h, params))
                if np.array_equal(request.position, [2.0, 0.0]):
                    assert scalar_barrier(ObstacleAvoid(1, obstacles[-1]), request.position)[0] == 3.0
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
        rows = laid_out(as_team(requests, 0.12, Domain(-2, 2, -2, 2)), params)[1]
        want = [-0.5 * scalar_rate(d**2, params) for d in deltas]
        assert rows.width == 1 and rows.counts[n] == 0  # robot n + 1, every robot's partner, has no request
        assert bits(rows.offsets[:n, 0]).tolist() == bits(want).tolist()

    def test_ticks_select_obstacle_rows_from_the_domain_stack(self, monkeypatch):
        # the active (robot, obstacle) pairs index the stack the domain
        # checked once; no tick builds or re-checks an Obstacle
        plan, config = builtin_scenario("securing_a_building")
        built, obstacle_rows = [], []
        real_check, real_rows = Obstacle.__post_init__, agent.constraint_row
        monkeypatch.setattr(Obstacle, "__post_init__", lambda o: built.append(o) or real_check(o))

        def counted_rows(stack, *args):
            obstacle_rows.append(sum(len(kind.i) for kind in stack.kinds if isinstance(kind, ObstacleAvoid)))
            return real_rows(stack, *args)

        monkeypatch.setattr(agent, "constraint_row", counted_rows)
        run(plan, replace(config, max_ticks=50))
        assert sum(obstacle_rows) > 0 and built == []

    def test_a_robot_without_partners_gets_its_obstacle_rows(self):
        domain = Domain(-1, 1, -1, 1, (Obstacle(np.zeros(2), 1.0, 1.0),))
        request = OwnRequest(3, np.array([0.9, 0.9]), np.zeros(2), 0.5, [], [], [], [], ())
        graph, rows = laid_out(as_team([request], 0.12, domain), FcbfParams())
        assert len(graph.layout) == 1 and rows.counts.tolist() == [0, 0, 1]
        assert row_identity(graph, 2) == [(ObstacleAvoid, 1)]


def per_tick_rows(monkeypatch):
    """A list that gets one entry per tick: (the tick's ``TickGraph``, its
    request, the (stack, offsets d) of its ``constraint_row`` calls)."""
    ticks, real_tick, real_team_rows, real_rows = [], sim.tick, agent.team_rows, agent.constraint_row

    def counted_tick(*args):
        ticks.append([None, None, []])
        return real_tick(*args)

    def counted_team_rows(request, *args):
        rows = real_team_rows(request, *args)
        assert ticks[-1][0] is None  # one row assembly a tick
        ticks[-1][:2] = request.graph, request
        return rows

    def counted_rows(stack, params, d):
        ticks[-1][2].append((stack, d))
        return real_rows(stack, params, d)

    monkeypatch.setattr(sim, "tick", counted_tick)
    monkeypatch.setattr(agent, "team_rows", counted_team_rows)
    monkeypatch.setattr(agent, "constraint_row", counted_rows)
    return ticks


def stack_rows(stack, cls):
    """How many rows of the barrier class ``cls`` the row stack holds."""
    return sum(len(RowStack.of([kind]).i) for kind in stack.kinds if type(kind) is cls)


class TestOneRowCallPerTick:
    """Every tick, the final one of a finished run too, builds its rows with
    one ``constraint_row`` call on its graph's row stack, obstacle and
    initial-constraint rows included, and each active obstacle row's h is
    the activation test's h, bit for bit; a robot that is done has none."""

    def assert_one_call(self, ticks, domain):
        obstacle_ticks = 0
        for graph, request, calls in ticks:
            assert graph is not None and [id(s) for s, _ in calls] == [id(graph.rows)]
            if domain.obstacles:
                stack, live = domain.obstacle_stack, graph.key[0].live
                h = ObstacleAvoid(1, stack).value(request.position[:, None] - stack.center)
                active = (h <= OBSTACLE_ACTIVATION) & live[:, None]
                assert stack_rows(graph.rows, ObstacleAvoid) == active.sum()
                if active.any():
                    (rows, d), = calls
                    sizes = [len(RowStack.of([kind]).i) for kind in rows.kinds]
                    obstacle = np.repeat([type(kind) is ObstacleAvoid for kind in rows.kinds], sizes)
                    assert bits(rows.value(d)[obstacle]).tolist() == bits(h[active]).tolist()
                    obstacle_ticks += 1
            assert stack_rows(graph.rows, KeepWithin) == len(graph.key[0].initial)  # the stage's
        return obstacle_ticks

    def test_securing_a_building_and_the_crowd_grid_make_one_call_a_tick(self, monkeypatch, securing_ticks):
        # the flagship's ticks are the session run's (conftest.py)
        plan, _, record, ticks = securing_ticks
        assert record.ticks == len(ticks) == 11179
        assert self.assert_one_call(ticks, plan.domain) > 1000
        crowd = load_bench_module("bench_workloads", WORKLOADS).crowd_mission_text(0, 6, 8)
        ticks = per_tick_rows(monkeypatch)
        plan, config = mission.parse_mission(crowd)
        assert run(plan, config).ticks == len(ticks) == 436
        self.assert_one_call(ticks, plan.domain)

    def test_the_one_stack_carries_obstacle_and_keep_within_rows(self, monkeypatch):
        # securing_a_building with robot 1 kept inside a disc through the
        # first behavior: its ticks carry obstacle rows, a keep-within row,
        # or both, in the one call
        ticks = per_tick_rows(monkeypatch)
        plan, config = builtin_scenario("securing_a_building")
        first = replace(plan.behaviors[0], initial_constraints=(KeepWithin(1, tuple(plan.initial_positions[0]), 5.0),))
        plan = replace(plan, behaviors=(first, *plan.behaviors[1:]))
        run(plan, replace(config, max_ticks=1300))
        assert self.assert_one_call(ticks, plan.domain) > 0
        stacks = [s for _, _, called in ticks for s, _ in called]
        both = [s for s in stacks if stack_rows(s, KeepWithin) and stack_rows(s, ObstacleAvoid)]
        assert both and all(stack_rows(s, KeepWithin) == 1 for s in both)


def count_layouts(monkeypatch):
    """A list that gets one entry per ``RowLayout.of`` call: one per ``TickGraph`` built."""
    built, real = [], RowLayout.of
    monkeypatch.setattr(RowLayout, "of", classmethod(lambda cls, *args: built.append(args) or real(*args)))
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


def ticks_of(scenario, changes, max_ticks=None):
    """A mission's ticks, one per ``next``, until it is done or capped: each
    yields the tick's controls, positions, sigma, eta, mode and k as bytes;
    the last item is the event log."""
    plan, config = builtin_scenario(scenario)
    config = replace(config, **changes, max_ticks=max_ticks or config.max_ticks)
    team, world = Team.start(plan), make_world(plan, config)
    while world.tick < config.max_ticks and not team.done.all():
        controls = tick(world, team, config)
        yield [a.tobytes() for a in (controls, world.positions, team.sigma, team.eta, team.mode, team.k)]
    yield world.event_log


class TestTickGraph:
    # two_behavior_demo under delay, and securing_a_building, whose rows include obstacles
    MISSIONS = (("two_behavior_demo", {"delay": DelaySpec.uniform(0, 10)}, None), ("securing_a_building", {}, 300))

    def test_interleaved_missions_keep_their_bytes_and_their_graphs(self, monkeypatch):
        # each team keeps its own graph: two missions ticked in turn in one
        # process give each its solo outputs and build no more graphs than
        # the two solo runs
        built = count_layouts(monkeypatch)
        solo, solo_graphs = [], 0
        for mission in self.MISSIONS:
            before = len(built)
            solo.append(list(ticks_of(*mission)))
            solo_graphs += len(built) - before
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
        assert len(built) - before == solo_graphs

    @pytest.mark.parametrize("scenario, changes, max_ticks", [
        ("two_behavior_demo", {"oracle_sensing": False, "delay": DelaySpec.uniform(0, 10)}, None),
        ("two_behavior_demo", {"delay": DelaySpec.uniform(0, 10)}, 300),
        ("securing_a_building", {}, 1300),
    ])
    def test_the_graph_is_built_exactly_when_the_stage_or_a_mask_changes(self, monkeypatch, scenario, changes,
                                                                          max_ticks):
        # a tick builds one graph when its sensed, known or obstacle
        # activation mask differs from the last tick's, and one more when a
        # robot's stage switches in it; each graph places every row in a
        # layout cell of its own
        plan, config = builtin_scenario(scenario)
        config = replace(config, **changes, max_ticks=max_ticks or config.max_ticks)
        team, world = Team.start(plan), make_world(plan, config)
        builds, real_of, real_step = [], TickGraph.of.__func__, agent.step

        def counted_of(cls, *args, **kwargs):
            builds[-1] += 1
            graph = real_of(cls, *args, **kwargs)
            assert_covers_once(graph)
            return graph

        expected, causes, last = [], {"stage": 0, "sensed": 0, "known": 0, "active": 0}, [None, None, None]
        stack = plan.domain.obstacle_stack

        def observed(team, world, inbox, config):
            stage = team.k.tobytes(), team.mode.tobytes()
            request, events = real_step(team, world, inbox, config)
            known = team.cache.view(world.positions, world.sensed, config.oracle_sensing)[1]
            h = ObstacleAvoid(1, stack).value(world.positions[:, None] - stack.center)
            masks = [world.sensed.tobytes(), known.tobytes(), (h <= OBSTACLE_ACTIVATION).tobytes()]
            sensed, known, active = (now != before for now, before in zip(masks, last))
            switched = stage != (team.k.tobytes(), team.mode.tobytes())
            expected.append((sensed or known or active) + switched)
            if world.tick:
                causes["stage"] += switched
                causes["sensed"] += sensed
                causes["known"] += known and not sensed
                causes["active"] += active and not (sensed or known)
            last[:] = masks
            return request, events

        monkeypatch.setattr(TickGraph, "of", classmethod(counted_of))
        monkeypatch.setattr(sim, "step", observed)
        while world.tick < config.max_ticks and not team.done.all():
            builds.append(0)
            tick(world, team, config)
        assert builds == expected
        assert 0 < sum(builds) < len(builds) / 10
        assert causes["stage"] and causes["sensed"]
        assert bool(causes["known"]) == (not config.oracle_sensing)
        assert bool(causes["active"]) == bool(plan.domain.obstacles)

    def test_every_change_of_structure_gets_its_own_graph(self, monkeypatch):
        # one thing changes at a time; the rows are each robot's own rows
        # every time, and only unchanged masks and an unchanged activation
        # mask reuse the graph. A step marked ``same`` keeps the last step's
        # masks
        params = FcbfParams(rho=0.5, gamma=1.3)
        near = Domain(-3, 3, -3, 3, (Obstacle(np.zeros(2), 1.0, 1.0),))
        # the same active pair as ``near``, with other rows
        shifted = Domain(-3, 3, -3, 3, (Obstacle(np.array([0.0, 1e-3]), 1.0, 1.0),))
        x = np.array([[1.9, 0.0], [1.6, 0.2], [1.3, 0.0]])
        jitter = np.array([[1e-3, -2e-3], [0.0, 1e-3], [-1e-3, 0.0]])
        keep = KeepWithin(2, (1.5, 0.0), 0.8)
        apart, at_margin = x.copy(), x.copy()
        apart[0], at_margin[0] = [2.05, 0.0], [2.0, 0.0]  # robot 1 at h = 3.2025, then at h = 3
        steps = [  # (requests, same, min_sep, domain, a new graph)
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
        ]
        assert scalar_barrier(ObstacleAvoid(1, near.obstacles[0]), apart[0])[0] > OBSTACLE_ACTIVATION
        assert scalar_barrier(ObstacleAvoid(1, near.obstacles[0]), at_margin[0])[0] == OBSTACLE_ACTIVATION
        built = count_layouts(monkeypatch)
        graph = None
        for requests, same, min_sep, domain, new in steps:
            before = len(built)
            graph, team = laid_out(as_team(requests, min_sep, domain, graph if same else None), params)
            assert len(built) == before + new
            for request in requests:
                assert_own_rows(graph, team, request, params, min_sep, domain)

    def test_solve_writes_into_none_of_its_problems_arrays_and_none_of_the_graphs(self):
        params = FcbfParams()
        domain = Domain(-3, 3, -3, 3, (Obstacle(np.zeros(2), 1.0, 1.0),))
        requests = chain_requests(np.array([[1.9, 0.0], [1.6, 0.2], [1.3, 0.0]]), colliders=([2], [1], []))
        request = as_team(requests, 0.12, domain)
        normals, offsets = team_rows(request, params)
        rows = request.graph.layout
        assert not any(a.flags.writeable for a in (rows.slots, rows.cells, rows.counts, rows.hard))
        # a quiet team, answered from the flat rows, and one the stages solve
        paths = set()
        for nominal in (np.zeros((3, 2)), np.array([[-5.0, 0.0], [0.0, 0.0], [0.0, 0.3]])):
            problem = QpProblem(nominal, rows, normals, offsets, 0.4)
            arrays = (problem.nominal, problem.normals, problem.offsets, rows.slots, rows.cells, rows.counts, rows.hard)
            before = [bits(a).tolist() for a in arrays]
            got, staged = answered(problem)
            paths.add(staged)
            assert [bits(a).tolist() for a in arrays] == before
            assert got.u is not problem.nominal
        assert paths == {False, True}
        graph, later = laid_out(request, params)
        for request in requests:
            assert_own_rows(graph, later, request, params, 0.12, domain)


def own_requests(request):
    """Each robot of a ``TeamRequest`` that is not done, in its stage, as
    its own request."""
    graph = request.graph
    (slot, partners), (coll_slot, colliders), deltas = pairwise_rows(graph)
    m = len(slot)
    seen, collider_seen = request.seen[:m], request.seen[m:]
    # the initial constraints are the stack's last rows, one row a kind
    initial = graph.rows.kinds[3:]
    initial_slots = graph.layout.slots[len(graph.layout) - len(initial):].tolist()
    requests = []
    for s in graph.key[0].live.nonzero()[0].tolist():
        robot, mine, close = s + 1, slot == s, coll_slot == s
        assert len(set(deltas[mine].tolist())) <= 1  # one range per robot
        requests.append(OwnRequest(
            robot, request.position[s], request.nominal[s], float(deltas[mine][0]) if mine.any() else 0.5,
            partners[mine].tolist(), list(seen[mine]), colliders[close].tolist(), list(collider_seen[close]),
            tuple(kind for t, kind in zip(initial_slots, initial) if t == s),
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
        # the activation test) are each robot's own rows, across graph
        # rebuilds
        plan, config = builtin_scenario(scenario)
        config = replace(config, **changes)
        built, kinds, real = count_layouts(monkeypatch), set(), agent.team_rows

        def checked_rows(request, params):
            rows = real(request, params)
            layout = layout_of(request, *rows)
            assert (request.graph.layout.slots == request.graph.rows.i - 1).all()
            for own in own_requests(request):
                got = assert_own_rows(request.graph, layout, own, params, plan.min_sep, plan.domain)
                kinds.update(kind for kind, _ in got)
            return rows

        monkeypatch.setattr(agent, "team_rows", checked_rows)
        team, world = Team.start(plan), make_world(plan, config)
        for _ in range(300):
            assert np.array_equal(world.sensed, proximity_graph(world.positions, plan.delta).mask)
            tick(world, team, config)
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
            team, normals, offsets = team_layout(blocks)
            assert len(team) == sum(counts)
            got = solve(QpProblem(nominal, team, normals, offsets, limit))
            assert got.u.shape == (n, 2) and len(got.statuses) == n
            # multipliers and slacks are shaped like the layout: a robot's rows,
            # then pad rows up to the team's widest robot, then its box
            assert got.multipliers.shape == got.slacks.shape == team.hard.shape
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
        got = solve(QpProblem(nominal, *team_layout(blocks), 0.4))
        np.testing.assert_array_equal(got.u[0], [0.1, -0.2])
        np.testing.assert_allclose(got.u[2], [0.4, 0.0], atol=1e-15)
        alone = solve(one_robot(nominal[1], blocks[1], 0.4))
        assert bits(got.u[1]).tolist() == bits(alone.u[0]).tolist()

    def test_team_problem_checks(self):
        rows = team_layout([random_rows(np.random.default_rng(0), 3)])
        with pytest.raises(ValueError):
            QpProblem(np.zeros(2), *rows, 1.0)
        with pytest.raises(ValueError):
            QpProblem(np.array([[0.0, np.nan]]), *rows, 1.0)
        with pytest.raises(ValueError):
            QpProblem(np.zeros((1, 2)), *rows, 0.0)
        bad = random_rows(np.random.default_rng(4), 3)
        bad.normals[1, 0] = np.inf
        with pytest.raises(ValueError):
            QpProblem(np.zeros((1, 2)), *team_layout([bad]), 1.0)
        many = [random_rows(np.random.default_rng(1), 64), random_rows(np.random.default_rng(2), 64)]
        assert len(QpProblem(np.zeros((2, 2)), *team_layout(many), 1.0).rows) == 128
        with pytest.raises(ValueError):
            QpProblem(np.zeros((2, 2)), *team_layout([many[0], random_rows(np.random.default_rng(3), 65)]), 1.0)


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


def digest_team(rng):
    """A seeded team of 1-8 robots with 0-20 rows each, built from exact
    arithmetic on the generator's draws only (no BLAS, no libm), so that its
    bits are the same on every machine. Robots get duplicate rows,
    antiparallel rows around an empty or a thin strip, three rows through one
    vertex and zero rows; hard rows make some of them freeze."""
    n = int(rng.integers(1, 9))
    nominal = rng.integers(-12, 13, (n, 2)) / 8 if rng.random() < 0.5 else rng.uniform(-1.5, 1.5, (n, 2))
    blocks = []
    for _ in range(n):
        m = int(rng.choice([0, 20, rng.integers(1, 8)]))
        if rng.random() < 0.5:
            normals, offsets = rng.integers(-8, 9, (m, 2)) / 4, rng.integers(-24, 3, m) / 8
        else:
            normals, offsets = rng.uniform(-2, 2, (m, 2)), rng.uniform(-3, 0.25, m)
        hard = rng.random(m) < 0.4
        if m >= 2 and rng.random() < 0.5:  # a duplicate row
            i, j = rng.choice(m, 2, replace=False)
            normals[i], offsets[i] = normals[j], offsets[j]
        if m >= 2 and rng.random() < 0.5:  # antiparallel rows: an empty or a thin strip
            i, j = rng.choice(m, 2, replace=False)
            normals[i], offsets[i] = -normals[j], -offsets[j] + rng.choice([0.25, -1 / 64])
        if m >= 3 and rng.random() < 0.5:  # three rows through one vertex
            p = rng.integers(-4, 5, 2) / 8
            k = rng.choice(m, 3, replace=False)
            offsets[k] = normals[k, 0] * p[0] + normals[k, 1] * p[1]
        if m >= 1 and rng.random() < 0.2:
            normals[rng.integers(m)] = 0.0
        blocks.append(RowBlock(normals, offsets, hard))
    return nominal, blocks, float(rng.integers(2, 13) / 8)


# sha256 of solve's answers on the degenerate cases and 300 digest_teams of
# seed 20 (u, multipliers, slacks and statuses). solve calls neither BLAS nor
# LAPACK, so these bits are the code's alone: a change of a last bit or of
# which candidate wins a tie changes them
SOLVER_DIGEST = "58e3df5c8539dee2687c39c7c83bb67a5f664a0668612ad081bf1d9c0a95af96"


def solver_cases():
    """The problems of the solver digest, in order."""
    for name in sorted(DEGENERATE):
        nominal, spec, limit = DEGENERATE[name]
        yield one_robot(nominal, rows_of(spec), limit)
    rng = np.random.default_rng(20)
    for _ in range(300):
        nominal, blocks, limit = digest_team(rng)
        yield QpProblem(nominal, *team_layout(blocks), limit)


def test_the_solver_keeps_its_bits():
    h = hashlib.sha256()
    statuses, widths = set(), set()
    for problem in solver_cases():
        got = solve(problem)
        for a in (got.u, got.multipliers, got.slacks):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        h.update(" ".join(got.statuses).encode() + b"\n")
        statuses.update(got.statuses)
        widths.add(problem.rows.width)
    assert statuses == {"optimal", "relaxed", "infeasible_hard"}
    assert {0, 20} <= widths
    assert h.hexdigest() == SOLVER_DIGEST


def in_memory_order(normals, offsets, order):
    """Flat rows copied into arrays of another memory order: ``F``,
    Fortran-ordered; ``strided``, views that step over elements of larger
    arrays (the offsets' a transposed one)."""
    if order == "F":
        return np.asfortranarray(normals), np.asfortranarray(offsets)
    m = len(offsets)
    strided = np.zeros((2 * m, 3))[::2, 1:], np.zeros((m, 2)).T[1]
    strided[0][...], strided[1][...] = normals, offsets
    return strided


@pytest.mark.parametrize("order", ["F", "strided"])
def test_the_solver_reads_any_memory_order(order):
    rng = np.random.default_rng(21)
    statuses = set()
    for _ in range(60):
        nominal, blocks, limit = digest_team(rng)
        layout, normals, offsets = team_layout(blocks)
        other = in_memory_order(normals, offsets, order)
        # a 1-D array in Fortran order is also in C order
        assert len(offsets) < 2 or not (other[0].flags.c_contiguous or order == "strided" and other[1].flags.c_contiguous)
        want = solve(QpProblem(nominal, layout, normals, offsets, limit))
        got = solve(QpProblem(nominal, layout, *other, limit))
        for mine, theirs in ((got.u, want.u), (got.multipliers, want.multipliers), (got.slacks, want.slacks)):
            assert bits(mine).tolist() == bits(theirs).tolist()
        assert got.statuses == want.statuses and got.status == want.status
        statuses.update(got.statuses)
    assert statuses == {"optimal", "relaxed", "infeasible_hard"}
