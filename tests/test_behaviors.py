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
    LeaderFollower,
    Rendezvous,
    Scatter,
    nominal_control,
    rotation,
)
from swarmseq.agent import EXECUTING, AgentError, Team, step
from swarmseq.barriers import FcbfParams
from swarmseq.geometry import Domain, InteractionGraph
from swarmseq.mission import BehaviorSpec, MissionPlan
from swarmseq.sim import SimConfig, make_world


def states(*positions):
    """Robot i + 1 at positions[i]."""
    return [np.array(p, dtype=float) for p in positions]


def u_of(behavior, me, positions, partners):
    """Robot me's nominal command, its law reading the robots ``partners``."""
    ids = sorted(partners)
    return nominal_control(behavior, me, positions[me - 1], ids, [positions[j - 1] for j in ids])


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
        rng = np.random.default_rng(3)
        for _ in range(50):
            phi = rng.uniform(-np.pi, np.pi)
            v = rng.normal(size=2)
            assert np.linalg.norm(rotation(phi) @ v) == pytest.approx(
                np.linalg.norm(v), abs=1e-12
            )

    def test_coverage_single_robot_moves_to_domain_center(self):
        beh = Coverage(domain=Domain(0, 1, 0, 1))
        u = nominal_control(beh, 1, np.array([0.2, 0.2]), [], [])
        np.testing.assert_allclose(u, [0.3, 0.3], atol=1e-12)

    def test_coverage_closed_loop_converges_to_center(self):
        beh = Coverage(domain=Domain(0, 1, 0, 1))
        pos = np.array([0.05, 0.9])
        for _ in range(400):
            u = nominal_control(beh, 1, pos, [], [])
            pos = pos + 0.05 * u
        np.testing.assert_allclose(pos, [0.5, 0.5], atol=1e-3)

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
        rotated = rotation(np.pi / 2) @ np.array([0.0, -0.2])
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
            step(team, world, world.in_flight.pop(0), plan, config)

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


class TestCompletion:
    def test_control_norm(self):
        assert ControlNormBelow(1e-3).done(np.zeros(2), 0.0, np.zeros(2))
        assert not ControlNormBelow(1e-3).done(np.array([0.1, 0]), 0.0, np.zeros(2))

    def test_elapsed(self):
        assert not ElapsedTime(5.0).done(np.zeros(2), 4.9, np.zeros(2))
        assert ElapsedTime(5.0).done(np.zeros(2), 5.0, np.zeros(2))

    def test_goal_reached(self):
        pred = GoalReached(goal=(1.0, 2.0), radius=0.05)
        assert pred.done(np.zeros(2), 0.0, np.array([1.0, 2.0]))
        assert not pred.done(np.zeros(2), 0.0, np.array([0.0, 0.0]))
