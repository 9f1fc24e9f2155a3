import math

import numpy as np
import pytest

from swarmseq.behaviors import (
    BehaviorError,
    Composite,
    CompositeGroup,
    Containment,
    ControlNormBelow,
    Coverage,
    CyclicPursuit,
    ElapsedTime,
    Formation,
    GoalReached,
    GoToGoal,
    Lattice,
    Law,
    LeaderFollower,
    Rendezvous,
    Scatter,
    _fold,
    fold_index,
    nominal_control,
)
from swarmseq import geometry
from swarmseq.agent import EXECUTING, AgentError, Team, step
from swarmseq.barriers import FcbfParams
from swarmseq.geometry import (
    Domain,
    GeometryError,
    InteractionGraph,
    clip_polygon_halfplane,
    polygon_area_centroid,
    sq_norm,
    voronoi_cell,
)
from swarmseq.mission import BehaviorSpec, MissionPlan
from swarmseq.sim import SimConfig, make_world


def states(*positions):
    """Robot i + 1 at positions[i]."""
    return [np.array(p, dtype=float) for p in positions]


def u_of(behavior, me, positions, partners):
    """Robot me's nominal command, its (leaf controller's) law reading the
    robots ``partners``."""
    leaf, _ = behavior.leaf(me)
    x, cols = np.array(positions, dtype=float), np.array(sorted(partners), dtype=int) - 1
    reads = np.zeros((len(x), len(x)), dtype=bool)
    reads[me - 1, cols] = True
    law = Law.of(type(leaf), [(me - 1, leaf)], reads)
    return nominal_control(law, x, np.full(len(cols), me - 1), cols, x[cols])[0]


def sq(d):
    """|d|^2 in Python floats, d0 d0 + d1 d1."""
    d0, d1 = (float(v) for v in d)
    return d0 * d0 + d1 * d1


def turned(angle, d):
    """The offset d turned by ``angle``, in Python floats: (c d0 - s d1, s d0 + c d1)."""
    c, s = math.cos(angle), math.sin(angle)
    d0, d1 = (float(v) for v in d)
    return np.array([c * d0 - s * d1, s * d0 + c * d1])


def done_of(predicate, u_hat, elapsed, x):
    """One robot's completion test, as a stack of one."""
    return bool(predicate.done(np.array([u_hat]), np.array([elapsed]), np.array([x]))[0])


def violations(behavior, graph, delta):
    return behavior.violations(graph, range(1, graph.n + 1), delta)


class TestControlLaws:
    def test_rendezvous_two_robots(self):
        st = states((0, 0), (1, 0))
        np.testing.assert_allclose(u_of(Rendezvous(), 1, st, [2]), [1, 0])
        np.testing.assert_allclose(u_of(Rendezvous(), 2, st, [1]), [-1, 0])

    def test_scatter_is_negated_rendezvous(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            st = states(*rng.uniform(-1, 1, (4, 2)))
            req = [2, 3, 4]
            np.testing.assert_allclose(
                u_of(Scatter(), 1, st, req), -u_of(Rendezvous(), 1, st, req), atol=1e-12
            )

    def test_rendezvous_translation_invariant(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, (4, 2))
        shift = np.array([3.7, -2.2])
        for me in range(1, 5):
            req = [j for j in range(1, 5) if j != me]
            u1 = u_of(Rendezvous(), me, states(*pts), req)
            u2 = u_of(Rendezvous(), me, states(*(pts + shift)), req)
            np.testing.assert_allclose(u1, u2, atol=1e-12)

    def test_formation_equilibrium(self):
        # equilateral triangle realizing every target distance exactly
        side = 0.4
        pts = [(0, 0), (side, 0), (side / 2, side * np.sqrt(3) / 2)]
        dist = {(1, 2): side, (1, 3): side, (2, 3): side}
        beh = Formation(distances=dist)
        for me in range(1, 4):
            req = [j for j in range(1, 4) if j != me]
            np.testing.assert_allclose(u_of(beh, me, states(*pts), req), [0, 0], atol=1e-12)

    def test_cyclic_pursuit_zero_angle_is_rendezvous(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, (5, 2))
        for me in range(1, 6):
            nbrs = [(me % 5) + 1, ((me - 2) % 5) + 1]
            u1 = u_of(CyclicPursuit(angle=0.0), me, states(*pts), nbrs)
            u2 = u_of(Rendezvous(), me, states(*pts), nbrs)
            np.testing.assert_allclose(u1, u2, atol=1e-15)

    def test_rotation_is_orthogonal(self):
        # one partner at offset v: the pursuit command is v turned, as long as v
        rng = np.random.default_rng(3)
        for _ in range(50):
            phi = rng.uniform(-np.pi, np.pi)
            v = rng.normal(size=2)
            u = u_of(CyclicPursuit(angle=float(phi)), 1, states((0.0, 0.0), v), [2])
            assert math.sqrt(sq(u)) == pytest.approx(math.sqrt(sq(v)), abs=1e-12)

    def test_coverage_single_robot_moves_to_domain_center(self):
        beh = Coverage(domain=Domain(0, 1, 0, 1))
        u = u_of(beh, 1, states((0.2, 0.2)), [])
        np.testing.assert_allclose(u, [0.3, 0.3], atol=1e-12)

    def test_coverage_closed_loop_converges_to_center(self):
        beh = Coverage(domain=Domain(0, 1, 0, 1))
        pos = np.array([0.05, 0.9])
        for _ in range(400):
            u = u_of(beh, 1, [pos], [])
            pos = pos + 0.05 * u
        np.testing.assert_allclose(pos, [0.5, 0.5], atol=1e-3)

    def test_coverage_robots_nudged_onto_one_corner_head_for_the_rectangle(self):
        # both robots lie past the rectangle's lower-left corner, so the nudge
        # into it puts both on that corner: each counts once and heads for
        # the whole rectangle's centroid
        beh = Coverage(domain=Domain(5, 6, 5, 6))
        st = states((0.0, 0.0), (0.4, 0.0))
        np.testing.assert_allclose(u_of(beh, 1, st, [2]), [5.5, 5.5], atol=1e-9)
        np.testing.assert_allclose(u_of(beh, 2, st, [1]), [5.1, 5.5], atol=1e-9)
        with pytest.raises(GeometryError, match="coincident robots 1 and 2"):
            u_of(beh, 1, states((0.0, 0.0), (0.0, 0.0)), [2])

    def test_leader_runs_pure_goal_seeking(self):
        beh = LeaderFollower(leader=1, goal=(1.0, 1.0), gain=2.0, distances={(1, 2): 0.3})
        st = states((0, 0), (0.3, 0))
        np.testing.assert_allclose(u_of(beh, 1, st, [2]), [2.0, 2.0])
        # follower holds the formation term
        u2 = u_of(beh, 2, st, [1])
        np.testing.assert_allclose(u2, [0, 0], atol=1e-12)

    def test_lattice_uses_all_given_states(self):
        beh = Lattice(spacing=0.4)
        st = states((0, 0), (0.4, 0))
        np.testing.assert_allclose(u_of(beh, 1, st, [2]), [0, 0], atol=1e-12)
        st2 = states((0, 0), (0.2, 0))
        u = u_of(beh, 1, st2, [2])
        assert u[0] < 0  # too close: push away

    def test_go_to_goal_and_hold(self):
        beh = GoToGoal(goals={1: (1.0, 0.0)}, gain=0.5)
        st = states((0, 0), (5, 5))
        np.testing.assert_allclose(u_of(beh, 1, st, []), [0.5, 0.0])
        np.testing.assert_allclose(u_of(beh, 2, st, []), [0.0, 0.0])

    def test_containment_rotates_and_drifts(self):
        beh = Containment(angle=np.pi / 2, goal=(1.0, 0.0), gain=1.0)
        st = states((0, 0.1), (0, -0.1))
        u = u_of(beh, 1, st, [2])
        drift = np.array([1.0, -0.1])
        rotated = turned(np.pi / 2, (0.0, -0.2))
        np.testing.assert_allclose(u, rotated + drift, atol=1e-12)

    def test_composite_dispatch(self):
        beh = Composite(
            groups=(
                CompositeGroup(robots=(1, 2), controller=Rendezvous(), edges=((1, 2),)),
                CompositeGroup(robots=(3, 4), controller=Scatter(), edges=((3, 4),)),
            )
        )
        st = states((0, 0), (1, 0), (0, 1), (0, 2))
        np.testing.assert_allclose(u_of(beh, 1, st, [2]), [1, 0])
        np.testing.assert_allclose(u_of(beh, 3, st, [4]), [0, -1])

    def test_missing_neighbor_state(self):
        # a required neighbor's position is read before the law runs: with
        # none sensed, cached or given by the oracle, the step fails
        spec = BehaviorSpec(Rendezvous(), InteractionGraph.from_edges(2, [(1, 2)]), ElapsedTime(1.0))
        plan = MissionPlan(
            n=2, initial_positions=np.array([[0.0, 0.0], [0.0, 0.9]]), behaviors=(spec,),
            domain=Domain(-1, 1, -1, 1), fcbf=FcbfParams(), delta=0.5, min_sep=0.12,
        )
        config = SimConfig(oracle_sensing=False)
        team, world = Team.start(plan), make_world(plan, config)
        team.mode[:] = EXECUTING
        with pytest.raises(AgentError, match=r"robot 1: .* required neighbors \[2\]"):
            step(team, world, world.in_flight.pop(0), config)

    def test_composite_reads_its_groups_input(self):
        beh = Composite(
            groups=(
                CompositeGroup(robots=(1, 2), controller=Lattice(spacing=0.3), edges=()),
                CompositeGroup(robots=(3, 4), controller=Coverage(Domain(0, 1, 0, 1)), edges=()),
                CompositeGroup(robots=(5,), controller=Rendezvous(), edges=()),
            )
        )
        assert [beh.reads(i) for i in (1, 3, 5)] == ["in_range", "known", "required"]
        with pytest.raises(BehaviorError):
            beh.reads(6)


class TestValidation:
    def test_cyclic_pursuit_needs_cycle(self):
        path = InteractionGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        out = violations(CyclicPursuit(0.1), path, 0.5)
        assert any("not a cycle" in v for v in out)

    def test_cyclic_pursuit_on_cycle_passes(self):
        cyc = InteractionGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert violations(CyclicPursuit(0.1), cyc, 0.5) == []

    def test_formation_triangle_inequality(self):
        tri = InteractionGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
        beh = Formation(distances={(1, 2): 0.1, (2, 3): 0.1, (3, 1): 0.3})
        out = violations(beh, tri, 0.5)
        assert any("triangle inequality" in v for v in out)

    def test_formation_distance_exceeding_range(self):
        g = InteractionGraph.from_edges(2, [(1, 2)])
        beh = Formation(distances={(1, 2): 0.6})
        out = violations(beh, g, 0.5)
        assert any("exceeds sensing range" in v for v in out)

    def test_formation_missing_edge_distance(self):
        g = InteractionGraph.from_edges(3, [(1, 2), (2, 3)])
        beh = Formation(distances={(1, 2): 0.3})
        out = violations(beh, g, 0.5)
        assert any("without target distance" in v for v in out)

    def test_lattice_spacing_against_range(self):
        g = InteractionGraph(4)
        assert violations(Lattice(spacing=0.4), g, 0.5) == []
        out = violations(Lattice(spacing=0.6), g, 0.5)
        assert any("exceeds sensing range" in v for v in out)

    def test_composite_group_checks(self):
        g = InteractionGraph.from_edges(4, [(1, 2), (3, 4)])
        beh = Composite(
            groups=(
                CompositeGroup(robots=(1, 2), controller=Rendezvous(), edges=((1, 2),)),
                CompositeGroup(robots=(2, 3, 4), controller=Rendezvous(), edges=((3, 4),)),
            )
        )
        out = violations(beh, g, 0.5)
        assert any("more than one group" in v for v in out)

    def test_composite_group_edge_out_of_range_is_a_violation(self):
        g = InteractionGraph.from_edges(4, [(1, 2)])
        beh = Composite(
            groups=(
                CompositeGroup(
                    robots=(1, 9),
                    controller=Formation(distances={(1, 9): 0.3}),
                    edges=((1, 9),),
                ),
            )
        )
        out = violations(beh, g, 0.5)
        assert any("composite formation" in v and "(1,9)" in v for v in out)


    def test_a_composite_group_gets_its_controllers_own_checks(self):
        g = InteractionGraph.from_edges(6, [(1, 2), (2, 3), (4, 5)])
        beh = Composite(
            groups=(
                CompositeGroup(robots=(1, 2, 3), controller=CyclicPursuit(0.1), edges=((1, 2), (2, 3))),
                CompositeGroup(
                    robots=(4, 5, 6),
                    controller=LeaderFollower(leader=1, goal=(0.0, 0.0), distances={(4, 5): 0.3}),
                    edges=((4, 5),),
                ),
            )
        )
        assert violations(beh, g, 0.5) == [
            "composite cyclic pursuit: required graph is not a cycle (group (1, 2, 3))",
            "composite leader-follower: leader index 1 out of range (group (4, 5, 6))",
        ]

    def test_a_goal_outside_the_controllers_robots_is_a_violation(self):
        assert violations(GoToGoal(goals={1: (0.0, 0.0), 4: (1.0, 0.0)}), InteractionGraph(4), 0.5) == []
        out = violations(GoToGoal(goals={2: (0.0, 0.0), 5: (1.0, 0.0), 7: (0.0, 1.0)}), InteractionGraph(4), 0.5)
        assert out == ["go to goal: goals for robots [5, 7] out of range"]
        beh = Composite(
            groups=(
                CompositeGroup(robots=(1, 2), controller=GoToGoal(goals={1: (0.0, 0.0), 3: (1.0, 1.0)})),
                CompositeGroup(robots=(3, 4), controller=GoToGoal(goals={3: (1.0, 1.0)})),
            )
        )
        assert violations(beh, InteractionGraph(4), 0.5) == [
            "composite go to goal: goals for robots [3] out of range (group (1, 2))",
        ]

    def test_composite_groups_must_cover_the_robots_exactly(self):
        def groups(*robots):
            return Composite(groups=tuple(CompositeGroup(robots=r, controller=Rendezvous()) for r in robots))

        assert violations(groups((1, 2), (3,)), InteractionGraph(3), 0.5) == []
        assert violations(groups((1, 2)), InteractionGraph(3), 0.5) == ["composite: robots [3] belong to no group"]
        assert violations(groups((1,), (2, 3, 7)), InteractionGraph(3), 0.5) == [
            "composite: robots [7] out of range"]
        assert violations(groups((2, 5), (0,)), InteractionGraph(3), 0.5) == [
            "composite: robots [1, 3] belong to no group", "composite: robots [0, 5] out of range"]


class TestCompletion:
    def test_control_norm(self):
        assert done_of(ControlNormBelow(1e-3), np.zeros(2), 0.0, np.zeros(2))
        assert not done_of(ControlNormBelow(1e-3), np.array([0.1, 0]), 0.0, np.zeros(2))

    def test_elapsed(self):
        assert not done_of(ElapsedTime(5.0), np.zeros(2), 4.9, np.zeros(2))
        assert done_of(ElapsedTime(5.0), np.zeros(2), 5.0, np.zeros(2))

    def test_goal_reached(self):
        pred = GoalReached(goal=(1.0, 2.0), radius=0.05)
        assert done_of(pred, np.zeros(2), 0.0, np.array([1.0, 2.0]))
        assert not done_of(pred, np.zeros(2), 0.0, np.array([0.0, 0.0]))


# --- the team law pass against a per-robot reference -------------------------


def bits(a):
    """The float64 bit patterns of an array, so that -0.0 differs from 0.0."""
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def all_site_centroids(pts, domain):
    """Every site's Voronoi centroid in the domain rectangle, each cell
    clipped against every other site in site order, as the Coverage law once
    computed all of them to use the first."""
    out = []
    for i, pi in enumerate(pts):
        poly = domain.corners()
        for j, pj in enumerate(pts):
            if j != i and len(poly):
                poly = clip_polygon_halfplane(poly, pj - pi, 0.5 * (sq(pj) - sq(pi)))
        assert len(poly) >= 3
        out.append(polygon_area_centroid(poly)[1])
    return out


def reference_control(c, me, x, ids, positions):
    """Robot me's command under leaf controller c, one partner at a time, as
    the laws computed it robot by robot."""
    if isinstance(c, Rendezvous):
        return sum((pj - x for pj in positions), np.zeros(2))
    if isinstance(c, Scatter):
        return sum((x - pj for pj in positions), np.zeros(2))
    if isinstance(c, LeaderFollower) and me == c.leader:
        return c.gain * (np.asarray(c.goal) - x)
    if isinstance(c, (Formation, LeaderFollower, Lattice)):
        u = np.zeros(2)
        theta2 = c.spacing**2 if isinstance(c, Lattice) else None
        for j, pj in zip(ids, positions):
            if theta2 is None:
                theta = c.distance(me, j)
                u += (sq(x - pj) - theta * theta) * (pj - x)
            else:
                u += (sq(x - pj) - theta2) * (pj - x)
        return u
    if isinstance(c, CyclicPursuit):
        u = sum((turned(c.angle, pj - x) for pj in positions), np.zeros(2))
        return u + c.gain * (np.asarray(c.goal) - x) if isinstance(c, Containment) else u
    if isinstance(c, Coverage):
        d, eps = c.domain, 1e-9

        def site(p):
            return np.array([min(max(p[0], d.xmin + eps), d.xmax - eps),
                             min(max(p[1], d.ymin + eps), d.ymax - eps)])

        return all_site_centroids([site(x)] + [site(pj) for pj in positions], d)[0] - x
    assert isinstance(c, GoToGoal)
    goal = c.goals.get(me)
    return np.zeros(2) if goal is None else c.gain * (np.asarray(goal) - x)


def reference_done(predicate, u_hat, elapsed, x):
    """One robot's completion test, as the predicates computed it robot by robot."""
    if isinstance(predicate, ControlNormBelow):
        return math.sqrt(sq(u_hat)) < predicate.epsilon
    if isinstance(predicate, ElapsedTime):
        return elapsed >= predicate.duration
    return math.sqrt(sq(x - np.asarray(predicate.goal))) <= predicate.radius


def leaf_controllers(rng, robots, edges):
    """One controller of every leaf class for ``robots``, with random
    parameters: formation distances on ``edges``, the leader and the goals
    among the robots (the last robot has no goal)."""
    first = robots[0]
    distances = {e: float(rng.uniform(0.1, 0.5)) for e in edges}
    goal = tuple(rng.uniform(-1, 1, 2))
    return [
        Rendezvous(), Scatter(), Formation(distances=distances),
        LeaderFollower(leader=first, goal=goal, distances=distances, gain=float(rng.uniform(0.5, 2))),
        CyclicPursuit(angle=float(rng.uniform(-3, 3))),
        Containment(angle=float(rng.uniform(-3, 3)), goal=goal, gain=float(rng.uniform(0.5, 2))),
        Lattice(spacing=float(rng.uniform(0.1, 0.5))), Coverage(Domain(-1.0, 1.0, -1.0, 1.0)),
        GoToGoal(goals={r: tuple(rng.uniform(-1, 1, 2)) for r in robots[:-1]}, gain=float(rng.uniform(0.5, 2))),
    ]


def random_positions(rng, n):
    """n robots in [-1, 0.5]^2 with robots 1 and 2 at x = +0.0 and x = -0.0
    (so that robot 1's offset to robot 2 is -0.0), and robot n out of range of
    the rest and outside the coverage domains of ``leaf_controllers``."""
    x = rng.uniform(-1, 0.5, (n, 2))
    x[0] = 0.0, 0.1
    x[1] = -0.0, 0.3
    x[-1] = 1.15, -1.15
    return x


def team_and_reference(controller, graph, x, completion, latched=()):
    """(team pass nominal, per-robot reference, team s_task, reference done)
    of one executing step with the oracle on, the robots ``latched`` (indices)
    having completed already."""
    n = len(x)
    plan = MissionPlan(n=n, initial_positions=x, behaviors=(BehaviorSpec(controller, graph, completion),),
                       domain=Domain(-1.2, 1.2, -1.2, 1.2), fcbf=FcbfParams(), delta=0.5, min_sep=0.01)
    config = SimConfig()
    team, world = Team.start(plan), make_world(plan, config)
    team.mode[:] = EXECUTING
    team.s_task[list(latched)] = True
    request, _ = step(team, world, world.in_flight.pop(0), config)
    expected, done = [], []
    for me in range(1, n + 1):
        leaf, group = controller, range(1, n + 1)
        if isinstance(controller, Composite):
            (leaf, group), = [(g.controller, g.robots) for g in controller.groups if me in g.robots]
        sensed = set((np.flatnonzero(world.sensed[me - 1]) + 1).tolist())
        reading = {"required": set((np.flatnonzero(graph.mask[me - 1]) + 1).tolist()), "in_range": sensed,
                   "known": set(range(1, n + 1)) - {me}}[leaf.reads(me)]
        ids = sorted(j for j in reading if j in group)
        expected.append(reference_control(leaf, me, x[me - 1], ids, [x[j - 1] for j in ids]))
        done.append(reference_done(completion, expected[-1], 0.0, x[me - 1]))
    return request.nominal, np.array(expected), team.s_task.tolist(), done


class TestTeamLaws:
    """Each law over all its robots at once has the bits of the per-robot laws."""

    @pytest.mark.parametrize("seed", range(6))
    def test_every_controller_class_matches_the_per_robot_laws_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = 9
        x = random_positions(rng, n)
        edges = {(1, 2)} | {(i, j) for i in range(1, n) for j in range(i + 1, n) if rng.uniform() < 0.3}
        graph = InteractionGraph.from_edges(n, edges)
        for controller in leaf_controllers(rng, list(range(1, n + 1)), graph.edges):
            got, expected, _, _ = team_and_reference(controller, graph, x, ElapsedTime(1.0))
            assert bits(got) == bits(expected), controller

    @pytest.mark.parametrize("seed", range(6))
    def test_a_composite_of_every_class_matches_the_per_robot_laws_bitwise(self, seed):
        # groups of three robots, one per leaf class, reading required,
        # in-range and known partners; robot 28 is a coverage group of its
        # own, and the required edge (3, 4) joins two groups, so neither reads it
        rng = np.random.default_rng(100 + seed)
        groups, edges = [], {(3, 4)}
        for index in range(9):
            robots = (3 * index + 1, 3 * index + 2, 3 * index + 3)
            mine = {e for e in ((robots[0], robots[1]), (robots[1], robots[2]), (robots[0], robots[2]))
                    if rng.uniform() < 0.7}
            controller = leaf_controllers(rng, list(robots), mine)[index]
            groups.append(CompositeGroup(robots=robots, controller=controller, edges=tuple(mine)))
            edges |= mine
        groups.append(CompositeGroup(robots=(28,), controller=Coverage(Domain(-1.2, 1.2, -1.2, 1.2))))
        x = random_positions(rng, 28)
        composite = Composite(groups=tuple(groups))
        for completion in (ControlNormBelow(0.3), GoalReached(goal=(0.0, 0.0), radius=0.6)):
            got, expected, s_task, done = team_and_reference(composite, InteractionGraph.from_edges(28, edges), x,
                                                             completion)
            assert bits(got) == bits(expected)
            assert s_task == done and True in done and False in done

    def test_partners_and_terms_of_the_edge_cases(self):
        # robot 1 reads robot 2 at an offset whose x is -0.0; robot 3 reads
        # nobody; robot 1 leads; robot 3 has no goal
        x = np.array([[0.0, 0.1], [-0.0, 0.3], [0.9, -0.9]])
        graph = InteractionGraph.from_edges(3, [(1, 2)])
        for controller in (Rendezvous(), Formation(distances={(1, 2): 0.2}), GoToGoal(goals={1: (0.0, 0.1)}),
                           LeaderFollower(leader=1, goal=(0.5, 0.5), distances={(1, 2): 0.2})):
            got, expected, _, _ = team_and_reference(controller, graph, x, ElapsedTime(1.0))
            assert bits(got) == bits(expected), controller
            assert bits(got[2]) == bits(np.zeros(2))

    def test_coverage_clips_each_robots_own_cell_once_per_partner(self, monkeypatch):
        # each robot clips its own cell against each partner it knows, not
        # every partner's cell too; the commands keep the reference's bits
        clips = []
        real = geometry.clip_polygon_halfplane
        monkeypatch.setattr(geometry, "clip_polygon_halfplane", lambda *a: clips.append(1) or real(*a))
        rng = np.random.default_rng(11)
        x = rng.uniform(-0.9, 0.9, (6, 2))
        reads = np.ones((6, 6), dtype=bool)
        np.fill_diagonal(reads, False)
        reads[4, :] = reads[:, 4] = False  # robot 5 knows nobody, and nobody knows it
        robots, cover = [0, 1, 2, 4, 5], Coverage(Domain(-1.0, 1.0, -1.0, 1.0))
        law = Law.of(Coverage, [(i, cover) for i in robots], reads)
        rows, cols = reads.nonzero()
        got = nominal_control(law, x, rows, cols, x[cols])
        assert len(clips) == int(reads[robots].sum()) == 4 * 4
        want = [reference_control(cover, i + 1, x[i], cols[rows == i] + 1, x[cols[rows == i]]) for i in robots]
        assert bits(got) == bits(want)

    def test_a_completion_once_reached_stays_latched(self):
        x = np.array([[0.0, 0.0], [0.3, 0.0], [0.6, 0.0]])
        _, _, s_task, done = team_and_reference(Rendezvous(), InteractionGraph(3), x, ElapsedTime(1.0), latched=[1])
        assert s_task == [False, True, False] and done == [False, False, False]

    @pytest.mark.parametrize("predicate", [
        ControlNormBelow(0.5), ElapsedTime(0.5), GoalReached(goal=(0.25, -0.5), radius=0.5),
    ])
    def test_array_done_matches_the_scalar_form(self, predicate):
        rng = np.random.default_rng(7)
        u, x = rng.uniform(-0.6, 0.6, (200, 2)), rng.uniform(-0.5, 1.0, (200, 2))
        elapsed = rng.uniform(0, 1, 200)
        # on the threshold: norm exactly 0.5 and elapsed exactly 0.5
        u[0], x[0], elapsed[0] = (0.3, 0.4), (0.55, -0.1), 0.5
        got = predicate.done(u, elapsed, x)
        assert got.tolist() == [reference_done(predicate, *row) for row in zip(u, elapsed, x)]
        assert True in got.tolist() and False in got.tolist()


# --- every dot product written out --------------------------------------------


def offsets(rng, n):
    """n offsets over twelve decades, a fifth of their components +0.0 or -0.0."""
    d = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-6, 6, (n, 1))
    zero = rng.random((n, 2)) < 0.2
    d[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    return d


def clip_reference(poly, normal, offset):
    """Sutherland-Hodgman in Python floats: vertex p's excess is
    (n0 p0 + n1 p1) - offset, and an edge's crossing c + t (m - c)."""
    n0, n1 = normal
    out = []
    for cur, nxt in zip(poly, poly[1:] + poly[:1]):
        dc, dn = (n0 * p0 + n1 * p1 - offset for p0, p1 in (cur, nxt))
        if dc <= 0:
            out.append(cur)
        if (dc <= 0) != (dn <= 0):
            t = dc / (dc - dn)
            out.append([c + t * (m - c) for c, m in zip(cur, nxt)])
    return out


class TestWrittenOut:
    """Squares, turns, clips and cells have the bits of Python floats, so
    that none of them depends on the BLAS kernel numpy picks for the CPU."""

    def test_squares_turns_clips_and_cells_are_python_float_sums_of_products(self):
        rng = np.random.default_rng(25)
        n = 12000
        d = offsets(rng, n)
        assert bits(sq_norm(d)) == bits([sq(v) for v in d])

        # robot i reads its partner at offset d[i] from the origin, turned by
        # its own angle; a fold from +0 adds one term
        angles = rng.uniform(-np.pi, np.pi, n).tolist()
        law = Law(CyclicPursuit, np.arange(n), {}, np.zeros((0, 0)), np.zeros((n, 2, 2)), np.zeros((n, 2)),
                  np.zeros((n, 1)))
        for i, angle in enumerate(angles):
            CyclicPursuit(angle=angle).gather(law, i, None)
        got = nominal_control(law, np.zeros((n, 2)), np.arange(n), np.arange(n), d)
        assert bits(got) == bits([0.0 + turned(a, v) for a, v in zip(angles, d)])

        # 3000 clips of four corners each, some of them signed zeros
        corners = offsets(rng, 3000 * 4).reshape(3000, 4, 2)
        for poly, normal, offset in zip(corners, d, rng.normal(size=3000).tolist()):
            got = clip_polygon_halfplane(poly, normal, offset)
            assert bits(got) == bits(clip_reference(poly.tolist(), normal.tolist(), offset))

        # 2500 cells among five sites, one of them on x = +0.0 or -0.0
        domain = Domain(-1.0, 1.0, -1.0, 1.0)
        for sites in rng.uniform(-1, 1, (2500, 5, 2)):
            sites[rng.integers(5), 0] = rng.choice([0.0, -0.0])
            pi, poly = sites[0].tolist(), domain.corners().tolist()
            for pj in sites[1:].tolist():
                if poly:
                    poly = clip_reference(poly, [pj[0] - pi[0], pj[1] - pi[1]], 0.5 * (sq(pj) - sq(pi)))
            assert bits(voronoi_cell(sites, [1, 2, 3, 4, 5], domain)) == bits(poly)


# --- the degree-wide fold -----------------------------------------------------


def dense_fold(rows, terms, n):
    """The partner sums as an (n, n, 2) pad folds them: each robot's terms
    after a zero in its row, then a cumulative sum over the whole row."""
    pad = np.zeros((n, n, 2))
    pad[rows, np.arange(1, len(rows) + 1) - rows.searchsorted(rows)] = terms
    return pad.cumsum(axis=1)[:, -1]


class TestFold:
    def test_the_degree_wide_fold_keeps_the_bits_of_the_dense_pad(self):
        rng = np.random.default_rng(21)
        for case in range(200):
            n = int(rng.integers(1, 30))
            degree = rng.integers(0, n, n)  # a robot's partner count, below n
            degree[rng.random(n) < 0.3] = 0  # robots with no partners
            rows = np.repeat(np.arange(n), degree)
            terms = rng.normal(size=(len(rows), 2)) * 10.0 ** rng.integers(-8, 8, (len(rows), 1))
            terms[rng.random(terms.shape) < 0.2] = -0.0
            terms[rng.random(terms.shape) < 0.1] *= -1.0
            flat, width = fold_index(rows)
            assert width == int(degree.max(initial=0)) + 1
            got = _fold(terms, n, (flat, width))
            assert bits(got) == bits(dense_fold(rows, terms, n)), case
            assert bits(got[degree == 0]) == bits(np.zeros(((degree == 0).sum(), 2)))

    def test_edge_cases_of_the_fold(self):
        none = np.empty(0, dtype=int)
        # a team of one, with no pairs: +0 sums in a pad one column wide
        assert fold_index(none)[1] == 1
        assert bits(_fold(np.empty((0, 2)), 1, fold_index(none))) == bits([[0.0, 0.0]])
        # only -0.0 terms fold to +0.0; a -0.0 after a nonzero term adds nothing
        rows = np.array([0, 0, 1, 2, 2])
        terms = np.array([[-0.0, -0.0], [-0.0, -0.0], [-0.0, 1.5], [2.0, -0.0], [-0.0, -3.0]])
        got = _fold(terms, 4, fold_index(rows))
        assert bits(got) == bits(dense_fold(rows, terms, 4)) == bits([[0.0, 0.0], [0.0, 1.5], [2.0, -3.0], [0.0, 0.0]])
