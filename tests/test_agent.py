import numpy as np
import pytest

import swarmseq.agent as agent_mod
from swarmseq.agent import (
    ASSEMBLING,
    EXECUTING,
    AgentMessage,
    AgentNode,
    Delivery,
    StepEnv,
    consensus_update,
    filter_team,
    step,
    team_rows,
)
from swarmseq.barriers import Connectivity, FcbfParams
from swarmseq.behaviors import ElapsedTime, GoToGoal, Rendezvous
from swarmseq.geometry import Domain, InteractionGraph, RobotState
from swarmseq.mission import BehaviorSpec


def graph_update(adj, flags, values):
    """Synchronous team-wide application of the consensus map."""
    return [
        consensus_update(flags[i], values[i], [values[j] for j in adj[i]])
        for i in range(len(values))
    ]


def cycle_adj(n):
    return {i: [(i - 1) % n, (i + 1) % n] for i in range(n)}


def complete_adj(n):
    return {i: [j for j in range(n) if j != i] for i in range(n)}


class TestConsensusUpdate:
    def test_alone_with_flag(self):
        assert consensus_update(True, 0.0, []) == 1.0

    def test_pair_first_round(self):
        assert consensus_update(True, 0.0, [0.0]) == pytest.approx(0.5)

    def test_false_flag_gates_to_zero(self):
        assert consensus_update(False, 0.9, [1.0, 1.0]) == 0.0

    def test_result_clamped(self):
        assert consensus_update(True, 0.0, [2.0, 2.0]) == 1.0

    def test_all_true_converges_monotonically(self):
        for adj in (cycle_adj(5), complete_adj(4), {0: [1], 1: [0, 2], 2: [1]}):
            n = len(adj)
            vals = [0.0] * n
            prev = vals
            for _ in range(200):
                vals = graph_update(adj, [True] * n, vals)
                assert all(v >= p - 1e-12 for v, p in zip(vals, prev))
                prev = vals
            assert all(v > 1 - 1e-3 for v in vals)

    def test_single_false_flag_suppresses(self):
        for adj in (cycle_adj(5), complete_adj(6)):
            n = len(adj)
            for off in range(n):
                flags = [i != off for i in range(n)]
                vals = [0.0] * n
                for _ in range(500):
                    vals = graph_update(adj, flags, vals)
                assert max(vals) < 1 - 1 / (2 * n)


def two_robot_spec(controller, completion, edges=((1, 2),)):
    return BehaviorSpec(
        controller=controller,
        required_graph=InteractionGraph.from_edges(2, edges),
        completion=completion,
    )


def env_for(tick, positions, me, delta=0.5, **kw):
    others = {j: np.asarray(p, dtype=float) for j, p in positions.items() if j != me}
    mine = np.asarray(positions[me], dtype=float)
    neighbors = frozenset(
        j for j, p in others.items() if float(np.linalg.norm(p - mine)) <= delta
    )
    sensed = {j: others[j] for j in neighbors}
    defaults = dict(
        tick=tick,
        live_neighbors=neighbors,
        sensed=sensed,
        oracle={j: np.asarray(p, dtype=float) for j, p in positions.items()},
        params=FcbfParams(),
        delta=delta,
        min_sep=0.12,
        speed_limit=0.2,
        domain=Domain(-10, 10, -10, 10),
    )
    defaults.update(kw)
    return StepEnv(**defaults)


def msg(sender, pos, sigma=0.0, eta=0.0, k=1):
    return Delivery(0, AgentMessage(sender, tuple(pos), sigma, eta, k))


class TestStep:
    def test_executing_identity_when_feasible(self):
        # both robots in range, behavior running, nominal satisfies every row
        # and the speed box, so the filter passes it through unchanged
        spec = two_robot_spec(Rendezvous(), ElapsedTime(60.0))
        node = AgentNode(id=1, n_behaviors=1, mode=EXECUTING, behavior_index=1)
        positions = {1: (0.0, 0.0), 2: (0.15, 0.0)}
        env = env_for(5, positions, me=1)
        node, u_hat, outbox, _ = step(
            node, RobotState(1, np.array(positions[1])), [msg(2, positions[2])],
            spec, None, env, 0.02,
        )
        np.testing.assert_allclose(u_hat, [0.15, 0.0], atol=1e-9)
        request = node.request
        assert request.partners == [2] and request.colliders == [2]
        solution = filter_team([request], env.params, env.min_sep, env.speed_limit, env.domain)
        assert solution.statuses == ("optimal",)
        np.testing.assert_array_equal(solution.u[0], u_hat)
        assert outbox.behavior_index == 1

    def test_halts_after_last_behavior(self):
        spec = two_robot_spec(GoToGoal(goals={}), ElapsedTime(0.01))
        node = AgentNode(
            id=1, n_behaviors=1, mode=EXECUTING, behavior_index=1, elapsed=1.0, sigma=0.75
        )
        positions = {1: (0.0, 0.0), 2: (0.3, 0.0)}
        env = env_for(10, positions, me=1)
        inbox = [msg(2, positions[2], sigma=0.95)]
        node, u, _, events = step(
            node, RobotState(1, np.array(positions[1])), inbox, spec, None, env, 0.02
        )
        assert node.done
        assert any(e["event"] == "mission_done_local" for e in events)
        node, u, outbox, _ = step(
            node, RobotState(1, np.array(positions[1])), [], None, None, env, 0.02
        )
        np.testing.assert_allclose(u, [0.0, 0.0])
        assert outbox.behavior_index == 2  # broadcast keeps signalling progress

    def test_no_transition_without_own_flag(self):
        # neighbors all claim completion; own task is not complete, so sigma
        # stays pinned at zero and the node never leaves the behavior
        spec = two_robot_spec(Rendezvous(), ElapsedTime(1e6))
        node = AgentNode(id=1, n_behaviors=2, mode=EXECUTING, behavior_index=1)
        positions = {1: (0.0, 0.0), 2: (0.3, 0.0)}
        next_spec = two_robot_spec(Rendezvous(), ElapsedTime(1.0))
        for t in range(50):
            env = env_for(t, positions, me=1)
            inbox = [msg(2, positions[2], sigma=1.0, k=1)]
            node, _, _, _ = step(
                node, RobotState(1, np.array(positions[1])), inbox, spec, next_spec, env, 0.02
            )
            assert node.mode == EXECUTING and node.behavior_index == 1
            assert node.sigma == 0.0

    def test_neighbor_ahead_counts_as_one(self):
        spec = two_robot_spec(GoToGoal(goals={}), ElapsedTime(0.01))
        next_spec = two_robot_spec(GoToGoal(goals={}), ElapsedTime(0.01))
        node = AgentNode(id=1, n_behaviors=2, mode=EXECUTING, behavior_index=1, elapsed=1.0)
        positions = {1: (0.0, 0.0), 2: (0.3, 0.0)}
        env = env_for(3, positions, me=1)
        # neighbor already assembling toward behavior 2: its sigma was reset to
        # 0 but its index certifies completion of behavior 1
        inbox = [msg(2, positions[2], sigma=0.0, k=2)]
        node, _, _, _ = step(
            node, RobotState(1, np.array(positions[1])), inbox, spec, next_spec, env, 0.02
        )
        # the ahead neighbor drove sigma to 1, triggering the transition
        # (sigma resets to zero as part of it)
        assert node.mode == ASSEMBLING and node.behavior_index == 2
        assert node.sigma == 0.0

    def test_sigma_eta_stay_in_unit_interval(self):
        spec = two_robot_spec(Rendezvous(), ElapsedTime(0.01))
        next_spec = two_robot_spec(Rendezvous(), ElapsedTime(0.01))
        node = AgentNode(id=1, n_behaviors=2, mode=EXECUTING, behavior_index=1)
        positions = {1: (0.0, 0.0), 2: (0.3, 0.0)}
        rng = np.random.default_rng(0)
        for t in range(200):
            env = env_for(t, positions, me=1)
            inbox = [
                msg(2, positions[2], sigma=float(rng.uniform(0, 1)), eta=float(rng.uniform(0, 1)),
                    k=int(rng.integers(1, 3)))
            ]
            behavior = spec if node.mode == EXECUTING else None
            nxt = next_spec
            if node.done:
                break
            node, _, _, _ = step(
                node, RobotState(1, np.array(positions[1])), inbox,
                spec if node.behavior_index == 1 else next_spec, nxt, env, 0.02,
            )
            assert 0.0 <= node.sigma <= 1.0
            assert 0.0 <= node.eta <= 1.0

    def test_assembling_rows_cover_union(self):
        # three robots; previous graph 1-2, next graph 1-3: while assembling,
        # robot 1's connectivity rows must cover both edges
        prev = BehaviorSpec(
            controller=Rendezvous(),
            required_graph=InteractionGraph.from_edges(3, [(1, 2)]),
            completion=ElapsedTime(1.0),
        )
        nxt = BehaviorSpec(
            controller=Rendezvous(),
            required_graph=InteractionGraph.from_edges(3, [(1, 3)]),
            completion=ElapsedTime(1.0),
        )
        node = AgentNode(id=1, n_behaviors=2, mode=ASSEMBLING, behavior_index=2)
        positions = {1: (0.0, 0.0), 2: (0.3, 0.0), 3: (0.9, 0.0)}

        env = env_for(2, positions, me=1)
        node, _, _, _ = step(node, RobotState(1, np.array(positions[1])), [], prev, nxt, env, 0.02)
        request = node.request
        assert request.robot == 1 and set(request.partners) == {2, 3}
        rows = team_rows([request], env.params, env.min_sep, env.domain)
        assert rows.robots.tolist() == [1]
        mine = rows.block(0)
        conn_partners = {j for kind, j in zip(mine.kinds, mine.others.tolist()) if kind is Connectivity}
        assert conn_partners == {2, 3}

    def test_assembling_requires_target(self):
        node = AgentNode(id=1, n_behaviors=2, mode=ASSEMBLING, behavior_index=2)
        env = env_for(0, {1: (0.0, 0.0)}, me=1)
        with pytest.raises(agent_mod.AgentError):
            step(node, RobotState(1, np.zeros(2)), [], None, None, env, 0.02)

    def test_stale_cache_entries_expire(self):
        spec = two_robot_spec(Rendezvous(), ElapsedTime(1e6))
        node = AgentNode(id=1, n_behaviors=1, mode=EXECUTING, behavior_index=1)
        positions = {1: (0.0, 0.0), 2: (0.3, 0.0)}
        env0 = env_for(0, positions, me=1, staleness_ticks=5)
        node, _, _, _ = step(
            node, RobotState(1, np.zeros(2)), [msg(2, positions[2])], spec, None, env0, 0.02
        )
        assert 2 in node.neighbor_cache
        env_late = env_for(10, positions, me=1, staleness_ticks=5)
        node, _, _, _ = step(node, RobotState(1, np.zeros(2)), [], spec, None, env_late, 0.02)
        assert 2 not in node.neighbor_cache
