import copy
import functools
import operator
import random
from dataclasses import replace

import numpy as np
import pytest

from swarmseq.agent import (
    ASSEMBLING,
    EXECUTING,
    AgentError,
    Cache,
    Inbox,
    Team,
    consensus_update,
    filter_team,
    step,
    team_rows,
)
from swarmseq.barriers import Connectivity, FcbfParams
from swarmseq.behaviors import ElapsedTime, GoToGoal, Rendezvous
from swarmseq.geometry import Domain, InteractionGraph, proximity_graph
from swarmseq.mission import BehaviorSpec, MissionPlan, builtin_scenario
from swarmseq.sim import DelaySpec, InFlight, SimConfig, WorldState, make_world, tick
from test_team import row_identity


def bits(a):
    """The float64 bit patterns of an array, so that -0.0 differs from 0.0."""
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def mask_of(adj, n):
    """An adjacency dict {i: [j, ...]} as an (n, n) boolean mask."""
    mask = np.zeros((n, n), dtype=bool)
    for i, js in adj.items():
        mask[i, list(js)] = True
    return mask


def graph_update(adj, flags, values):
    """Synchronous team-wide application of the consensus map."""
    n = len(values)
    values = np.asarray(values, dtype=float)
    return consensus_update(np.asarray(flags), np.broadcast_to(values, (n, n)), mask_of(adj, n))


def one_robot(flag, value, neighbor_values):
    """One robot's update: it sits in column 0 of its own row, its neighbors after it."""
    row = np.array([[value, *neighbor_values]])
    neighbors = np.array([[False] + [True] * len(neighbor_values)])
    return float(consensus_update(np.array([flag]), row, neighbors)[0])


def cycle_adj(n):
    return {i: [(i - 1) % n, (i + 1) % n] for i in range(n)}


def complete_adj(n):
    return {i: [j for j in range(n) if j != i] for i in range(n)}


class TestConsensusUpdate:
    def test_alone_with_flag(self):
        assert one_robot(True, 0.0, []) == 1.0

    def test_pair_first_round(self):
        assert one_robot(True, 0.0, [0.0]) == pytest.approx(0.5)

    def test_false_flag_gates_to_zero(self):
        assert one_robot(False, 0.9, [1.0, 1.0]) == 0.0

    def test_result_clamped(self):
        assert one_robot(True, 0.0, [2.0, 2.0]) == 1.0

    def test_all_true_converges_monotonically(self):
        for adj in (cycle_adj(5), complete_adj(4), {0: [1], 1: [0, 2], 2: [1]}):
            n = len(adj)
            vals = np.zeros(n)
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
                vals = np.zeros(n)
                for _ in range(500):
                    vals = graph_update(adj, flags, vals)
                assert max(vals) < 1 - 1 / (2 * n)


def two_robot_spec(controller, completion, edges=((1, 2),)):
    return BehaviorSpec(
        controller=controller,
        required_graph=InteractionGraph.from_edges(2, edges),
        completion=completion,
    )


def plan_of(specs, positions, delta=0.5):
    return MissionPlan(
        n=len(positions),
        initial_positions=np.asarray(positions, dtype=float),
        behaviors=tuple(specs),
        domain=Domain(-10, 10, -10, 10),
        fcbf=FcbfParams(),
        delta=delta,
        min_sep=0.12,
    )


def snapshot(t, plan):
    """The world on tick t with every robot at its initial position."""
    x = plan.initial_positions.copy()
    return WorldState(t, x, proximity_graph(x, plan.delta).mask, InFlight(plan.n, 0, 1), [])


def team_in(plan, mode, k=1):
    team = Team.start(plan)
    team.mode[:] = mode
    team.k[:] = k
    return team


def inbox(plan, *messages):
    """The Inbox of (recipient, sender, position[, sigma, eta, k, send tick])
    tuples, one message per sender; robots are ids."""
    messages = [m + (0.0, 0.0, 1, 0)[len(m) - 3:] for m in messages]
    span = max((m[6] for m in messages), default=0) + 1
    sent, state, ks = np.full((plan.n, plan.n), -1), np.zeros((span, plan.n, 4)), np.zeros((span, plan.n), dtype=int)
    for recipient, sender, position, sigma, eta, k, send_tick in messages:
        sent[recipient - 1, sender - 1] = send_tick
        state[send_tick, sender - 1], ks[send_tick, sender - 1] = (*position, sigma, eta), k
    return Inbox(sent, state, ks, len(messages))


def broadcast_of(team, world, robot):
    """The (sigma, eta, k) a robot broadcasts after its step on ``world``, as
    the simulator posts it and the first robot in its range files it."""
    store, cache = InFlight(len(team.k), 0, 1), Cache.empty(len(team.k))
    store.post(world.tick, 0, world.sensed, world.positions, team.sigma, team.eta, team.k)
    cache.ingest(store.pop(world.tick + 1), world.tick + 1, 0)
    i, j = int(np.argmax(cache.present[:, robot - 1])), robot - 1
    return cache.sigma[i, j], cache.eta[i, j], int(cache.k[i, j])


CONFIG = SimConfig()


class TestStep:
    def test_executing_identity_when_feasible(self):
        # both robots in range, behavior running, nominal satisfies every row
        # and the speed box, so the filter passes it through unchanged
        plan = plan_of([two_robot_spec(Rendezvous(), ElapsedTime(60.0))], [(0.0, 0.0), (0.15, 0.0)])
        team = team_in(plan, EXECUTING)
        world = snapshot(5, plan)
        request, _ = step(team, world, inbox(plan, (1, 2, (0.15, 0.0))), plan, CONFIG)
        np.testing.assert_allclose(request.nominal[0], [0.15, 0.0], atol=1e-9)
        graph, m = request.graph, request.graph.conn
        conn_slots, conn_partners = graph.slots[:m], graph.pairs[1][:m] + 1
        coll_slots, coll_partners = graph.slots[m:], graph.pairs[1][m:] + 1
        assert conn_partners[conn_slots == 0].tolist() == [2] and coll_partners[coll_slots == 0].tolist() == [2]
        solution = filter_team(request, plan.fcbf, plan.min_sep, CONFIG.speed_limit, plan.domain)
        assert solution.statuses[0] == "optimal"
        np.testing.assert_array_equal(solution.u[0], request.nominal[0])
        assert broadcast_of(team, world, 1)[2] == 1

    def test_halts_after_last_behavior(self):
        plan = plan_of([two_robot_spec(GoToGoal(goals={}), ElapsedTime(0.01))], [(0.0, 0.0), (0.3, 0.0)])
        team = team_in(plan, EXECUTING)
        team.elapsed[0], team.sigma[0] = 1.0, 0.75
        _, events = step(team, snapshot(10, plan), inbox(plan, (1, 2, (0.3, 0.0), 0.95)), plan, CONFIG)
        assert team.done[0]
        assert any(e["event"] == "mission_done_local" for e in events[1])
        world = snapshot(11, plan)
        request, _ = step(team, world, inbox(plan), plan, CONFIG)
        assert 1 not in request.robots.tolist()  # a robot that is done asks for no input: it stays put
        assert broadcast_of(team, world, 1)[2] == 2  # broadcast keeps signalling progress

    def test_no_transition_without_own_flag(self):
        # neighbors all claim completion; own task is not complete, so sigma
        # stays pinned at zero and the robot never leaves the behavior
        spec = two_robot_spec(Rendezvous(), ElapsedTime(1e6))
        next_spec = two_robot_spec(Rendezvous(), ElapsedTime(1.0))
        plan = plan_of([spec, next_spec], [(0.0, 0.0), (0.3, 0.0)])
        team = team_in(plan, EXECUTING)
        for t in range(50):
            step(team, snapshot(t, plan), inbox(plan, (1, 2, (0.3, 0.0), 1.0, 0.0, 1, t)), plan, CONFIG)
            assert team.mode[0] == EXECUTING and team.k[0] == 1
            assert team.sigma[0] == 0.0

    def test_neighbor_ahead_counts_as_one(self):
        spec = two_robot_spec(GoToGoal(goals={}), ElapsedTime(0.01))
        plan = plan_of([spec, spec], [(0.0, 0.0), (0.3, 0.0)])
        team = team_in(plan, EXECUTING)
        team.elapsed[0] = 1.0
        # neighbor already assembling toward behavior 2: its sigma was reset to
        # 0 but its index certifies completion of behavior 1
        step(team, snapshot(3, plan), inbox(plan, (1, 2, (0.3, 0.0), 0.0, 0.0, 2)), plan, CONFIG)
        # the ahead neighbor drove sigma to 1, triggering the transition
        # (sigma resets to zero as part of it)
        assert team.mode[0] == ASSEMBLING and team.k[0] == 2
        assert team.sigma[0] == 0.0

    def test_sigma_eta_stay_in_unit_interval(self):
        spec = two_robot_spec(Rendezvous(), ElapsedTime(0.01))
        plan = plan_of([spec, spec], [(0.0, 0.0), (0.3, 0.0)])
        team = team_in(plan, EXECUTING)
        rng = np.random.default_rng(0)
        for t in range(200):
            if team.done[0]:
                break
            message = (1, 2, (0.3, 0.0), float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), int(rng.integers(1, 3)), t)
            step(team, snapshot(t, plan), inbox(plan, message), plan, CONFIG)
            assert 0.0 <= team.sigma.min() and team.sigma.max() <= 1.0
            assert 0.0 <= team.eta.min() and team.eta.max() <= 1.0

    def test_assembling_rows_cover_union(self):
        # three robots; previous graph 1-2, next graph 1-3: while assembling,
        # robot 1's connectivity rows must cover both edges
        prev = BehaviorSpec(Rendezvous(), InteractionGraph.from_edges(3, [(1, 2)]), ElapsedTime(1.0))
        nxt = BehaviorSpec(Rendezvous(), InteractionGraph.from_edges(3, [(1, 3)]), ElapsedTime(1.0))
        plan = plan_of([prev, nxt], [(0.0, 0.0), (0.3, 0.0), (0.9, 0.0)])
        team = team_in(plan, ASSEMBLING, k=2)
        request, _ = step(team, snapshot(2, plan), inbox(plan), plan, CONFIG)
        graph = request.graph
        slots, partners = graph.slots[:graph.conn], graph.pairs[1][:graph.conn] + 1
        assert request.robots.tolist() == [1, 2, 3] and partners[slots == 0].tolist() == [3, 2]
        row_plan = team_rows(request, plan.fcbf, plan.min_sep, plan.domain)[0]
        conn_partners = {j for kind, j in row_identity(row_plan, 0) if kind is Connectivity}
        assert conn_partners == {2, 3}

    def test_assembling_requires_target(self):
        # a team started for a plan with two behaviors, assembling toward the
        # second, stepped against a plan that has only the first
        spec = two_robot_spec(Rendezvous(), ElapsedTime(1.0))
        team = team_in(plan_of([spec, spec], [(0.0, 0.0), (0.3, 0.0)]), ASSEMBLING, k=2)
        plan = plan_of([spec], [(0.0, 0.0), (0.3, 0.0)])
        with pytest.raises(AgentError):
            step(team, snapshot(0, plan), inbox(plan), plan, CONFIG)

    def test_a_required_neighbor_fails_every_step_from_the_tick_its_position_expires(self):
        # robots 1 and 2 out of range with the oracle off: each knows the
        # other from one message until it expires, on tick 6; the step of
        # tick 7 reads the same masks as tick 6's and fails as well
        plan = plan_of([two_robot_spec(Rendezvous(), ElapsedTime(1e6))], [(0.0, 0.0), (0.9, 0.0)])
        team = team_in(plan, EXECUTING)
        config = replace(CONFIG, oracle_sensing=False, staleness_ticks=5)
        step(team, snapshot(0, plan), inbox(plan, (1, 2, (0.9, 0.0)), (2, 1, (0.0, 0.0))), plan, config)
        for t in range(1, 6):
            step(team, snapshot(t, plan), inbox(plan), plan, config)
        for t in (6, 7):
            with pytest.raises(AgentError, match=r"robot 1: .* required neighbors \[2\]"):
                step(team, snapshot(t, plan), inbox(plan), plan, config)

    def test_stale_cache_entries_expire(self):
        plan = plan_of([two_robot_spec(Rendezvous(), ElapsedTime(1e6))], [(0.0, 0.0), (0.3, 0.0)])
        team = team_in(plan, EXECUTING)
        config = replace(CONFIG, staleness_ticks=5)
        step(team, snapshot(0, plan), inbox(plan, (1, 2, (0.3, 0.0))), plan, config)
        assert team.cache.present[0, 1]
        step(team, snapshot(10, plan), inbox(plan), plan, config)
        assert not team.cache.present[0, 1]


# --- the per-robot reference ------------------------------------------------


class ReferenceRobot:
    """One robot's message cache as the per-robot agent kept it: a dict from
    sender to its newest (send tick, receive tick, message), where a message
    is (position, sigma, eta, k)."""

    def __init__(self):
        self.cache = {}
        self.expired = {}  # sender -> send tick of its last expired entry
        self.seen = {"older after newer": 0, "older after expiry": 0}

    def ingest(self, inbox, tick, staleness):
        for sender, send_tick, message in sorted(inbox, key=lambda d: (d[0], d[1])):
            prev = self.cache.get(sender)
            if prev is not None and prev[0] > send_tick:
                self.seen["older after newer"] += 1
                continue
            if prev is None and send_tick < self.expired.get(sender, -1):
                self.seen["older after expiry"] += 1
            self.cache[sender] = (send_tick, tick, message)
        for j in [j for j, entry in self.cache.items() if tick - entry[1] > staleness]:
            self.expired[j] = self.cache.pop(j)[0]

    def lookup(self, j, sensed, oracle):
        """Best available position of robot j: sensed, then oracle, then cache."""
        if j in sensed:
            return sensed[j]
        if oracle is not None and j in oracle:
            return oracle[j]
        entry = self.cache.get(j)
        return None if entry is None else np.asarray(entry[2][0])

    def aligned(self, live, k, executing):
        """Neighbor consensus values re-expressed relative to this robot's stage."""
        vals = []
        for j in sorted(live):
            entry = self.cache.get(j)
            if entry is None or entry[2][3] < k:
                vals.append(0.0)
            elif entry[2][3] > k:
                vals.append(1.0)
            else:
                vals.append(entry[2][1] if executing else entry[2][2])
        return vals


def reference_consensus(flag, values):
    """The scalar update, summing as a left fold (Python 3.12's ``sum`` does not)."""
    if not flag:
        return 0.0
    total = functools.reduce(operator.add, values, 0) + 1.0
    return min(1.0, max(0.0, total / (len(values) + 1.0)))


def test_team_cache_view_and_consensus_equal_a_per_robot_reference_bitwise():
    seen = {"older after newer": 0, "older after expiry": 0}
    for schedule in range(24):
        rng = random.Random(schedule)
        n = rng.randint(2, 12)
        staleness = schedule % 6
        oracle_on = schedule % 3 == 0
        delta = 0.5
        cache, refs = Cache.empty(n), [ReferenceRobot() for _ in range(n)]
        store = InFlight(n, 8, 150)
        in_flight = []  # (deliver tick, recipient, sender, send tick, message)
        for t in range(150):
            x = np.array([[rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)] for _ in range(n)])
            sensed = proximity_graph(x, delta)
            due = [m for m in in_flight if m[0] <= t]
            in_flight = [m for m in in_flight if m[0] > t]
            delivered = store.pop(t)
            assert len(delivered) == len(due) and len(store) == len(in_flight)
            cache.ingest(delivered, t, staleness)
            for i, ref in enumerate(refs):
                ref.ingest([(s, send, message) for _, r, s, send, message in due if r == i], t, staleness)
            mask = np.zeros((n, n), dtype=bool)
            for i, j in sensed.edges:
                mask[i - 1, j - 1] = mask[j - 1, i - 1] = True
            view, known = cache.view(x, mask, oracle_on)
            k = np.array([rng.randint(1, 4) for _ in range(n)])
            executing = np.array([rng.random() < 0.5 for _ in range(n)])
            flags = np.array([rng.random() < 0.8 for _ in range(n)])
            aligned = cache.aligned(k, executing)
            value = consensus_update(flags, aligned, mask)
            oracle = {j: x[j] for j in range(n)} if oracle_on else None
            for i, ref in enumerate(refs):
                assert cache.present[i].tolist() == [j in ref.cache for j in range(n)]
                for j, (send, received, message) in ref.cache.items():
                    assert (cache.send_tick[i, j], cache.receive_tick[i, j], cache.k[i, j]) == (send, received, message[3])
                    assert bits(cache.position[i, j]) == bits(message[0])
                    assert bits([cache.sigma[i, j], cache.eta[i, j]]) == bits(message[1:3])
                near = {j: x[j] for j in mask[i].nonzero()[0].tolist()}
                for j in range(n):
                    if j == i:
                        continue
                    want = ref.lookup(j, near, oracle)
                    assert known[i, j] == (want is not None)
                    if want is not None:
                        assert bits(view[i, j]) == bits(want)
                vals = ref.aligned(near, int(k[i]), bool(executing[i]))
                assert bits(aligned[i, sorted(near)]) == bits(vals)
                assert bits(value[i]) == bits(reference_consensus(bool(flags[i]), vals))
            # each sender's message, delay and recipients: reach[r, s] when s's message reaches r
            reach, state = np.zeros((n, n), dtype=bool), np.zeros((n, 4))
            late, ks = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
            for s in range(n):
                send = (tuple(rng.uniform(-1, 1) for _ in range(2)), rng.random(), rng.random(), rng.randint(1, 4))
                late[s] = rng.randint(0, 8)
                for r in rng.sample([j for j in range(n) if j != s], rng.randint(0, n - 1)):
                    reach[r, s] = True
                    in_flight.append((t + 1 + int(late[s]), r, s, t, send))
                state[s], ks[s] = (*send[0], *send[1:3]), send[3]
            store.post(t, late, reach, state[:, :2], state[:, 2], state[:, 3], ks)
        for ref in refs:
            for key in seen:
                seen[key] += ref.seen[key]
    assert min(seen.values()) > 0, seen


# --- locality -----------------------------------------------------------------


def scramble_all_but(cache, i, t, rng, behaviors):
    """Replace every other robot's cache row with random, present entries."""
    n = len(cache.present)
    others = np.arange(n) != i
    m = int(others.sum())
    cache.position[others] = rng.uniform(-1, 1, (m, n, 2))
    cache.sigma[others], cache.eta[others] = rng.uniform(0, 1, (2, m, n))
    cache.k[others] = rng.integers(1, behaviors + 2, (m, n))
    cache.send_tick[others] = rng.integers(0, t + 1, (m, n))
    cache.receive_tick[others] = t
    cache.present[others] = True
    np.fill_diagonal(cache.present, False)


def robot_outputs(team, request, events, plan, i):
    """Everything robot i's step decides: its state, events, nominal and rows."""
    state = [team.k[i], team.mode[i], team.s_task[i], team.s_assembly[i]]
    state += bits([team.sigma[i], team.eta[i], team.elapsed[i]])
    slot = np.flatnonzero(request.robots == i + 1)
    if not len(slot):
        return state, events.get(i + 1)
    row_plan, normals, offsets = team_rows(request, plan.fcbf, plan.min_sep, plan.domain)
    s = int(slot[0])
    layout, m = row_plan.fill(normals, offsets), row_plan.template.counts[s]
    return (state, events.get(i + 1), bits(request.nominal[s]), row_identity(row_plan, s),
            bits(layout.normals[s, :m]), bits(layout.offsets[s, :m]))


def test_a_robot_reads_only_its_own_cache_row():
    plan, config = builtin_scenario("two_behavior_demo")
    config = replace(config, oracle_sensing=False, delay=DelaySpec.uniform(0, 10), seed=0)
    team, world = Team.start(plan), make_world(plan, config)
    rng = np.random.default_rng(3)
    checked = 0
    for t in range(400):
        if t % 40 == 7:
            for i in range(plan.n):
                outputs = []
                for scrambled in (False, True):
                    mine, now = copy.deepcopy(team), copy.deepcopy(world)
                    if scrambled:
                        scramble_all_but(mine.cache, i, t, rng, len(plan.behaviors))
                    request, events = step(mine, now, now.in_flight.pop(t), plan, config)
                    outputs.append(robot_outputs(mine, request, events, plan, i))
                assert outputs[0] == outputs[1], (t, i)
                checked += 1
        tick(world, team, plan, config)
    assert checked == 10 * plan.n
