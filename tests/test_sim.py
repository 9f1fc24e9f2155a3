import csv
import random
from dataclasses import replace

import numpy as np
import pytest

import swarmseq.sim as sim_mod
from swarmseq.agent import AgentMessage, Delivery
from swarmseq.barriers import Connectivity, FcbfParams, settling_time_bound
from swarmseq.behaviors import ControlNormBelow, ElapsedTime, GoToGoal, Rendezvous, Scatter
from swarmseq.geometry import Domain, InteractionGraph, proximity_graph
from swarmseq.mission import BehaviorSpec, MissionPlan, builtin_scenario
from swarmseq.sim import (
    DelaySpec,
    SimConfig,
    SimConfigError,
    compute_behavior_windows,
    connectivity_trace,
    make_nodes,
    make_world,
    run,
    tick,
    write_outputs,
)


def tiny_plan(positions, behaviors, delta=0.5, min_sep=0.12):
    n = len(positions)
    return MissionPlan(
        n=n,
        initial_positions=np.asarray(positions, dtype=float),
        behaviors=tuple(behaviors),
        domain=Domain(-3, 3, -3, 3),
        fcbf=FcbfParams(),
        delta=delta,
        min_sep=min_sep,
    )


def spec(n, controller, completion, edges=()):
    return BehaviorSpec(
        controller=controller,
        required_graph=InteractionGraph.from_edges(n, edges),
        completion=completion,
    )


class TestTickMechanics:
    def test_zero_control_keeps_position(self):
        plan = tiny_plan([[0.1, 0.2]], [spec(1, GoToGoal(goals={}), ElapsedTime(10.0))])
        config = SimConfig(max_ticks=50)
        rec = run(plan, config)
        assert np.all(rec.positions[:, 0, 0] == 0.1)
        assert np.all(rec.positions[:, 0, 1] == 0.2)

    def test_euler_displacement(self):
        # gain * (goal - x) = (0.1, 0) initially: one tick moves 0.002
        plan = tiny_plan(
            [[0.0, 0.0]],
            [spec(1, GoToGoal(goals={1: (1.0, 0.0)}, gain=0.1), ElapsedTime(10.0))],
        )
        config = SimConfig(max_ticks=5)
        nodes = make_nodes(plan)
        world = make_world(plan, config)
        # initial assembly resolves after a few ticks; find the first executing tick
        rec = run(plan, config)
        moving = np.flatnonzero(np.abs(rec.controls[:, 0, 0]) > 0)
        t0 = moving[0]
        d = rec.positions[t0 + 1, 0, 0] - rec.positions[t0, 0, 0]
        assert d == pytest.approx(0.1 * 0.02, rel=1e-9)

    def test_speed_saturation(self):
        plan = tiny_plan(
            [[0.0, 0.0], [0.3, 0.0]],
            [spec(2, Scatter(), ElapsedTime(3.0), edges=[(1, 2)])],
        )
        config = SimConfig(max_ticks=300, speed_limit=0.15)
        rec = run(plan, config)
        assert float(np.max(np.abs(rec.controls))) <= 0.15 + 1e-12

    def test_message_causality(self):
        plan = tiny_plan(
            [[0.0, 0.0], [0.3, 0.0]],
            [spec(2, Rendezvous(), ElapsedTime(5.0), edges=[(1, 2)])],
        )
        config = SimConfig(max_ticks=10, delay=DelaySpec.uniform(0, 3), seed=7)
        nodes = make_nodes(plan)
        world = make_world(plan, config)
        for _ in range(10):
            tick(world, nodes, plan, config)
            for deliver_tick, _, send_tick, _ in world.in_flight:
                assert deliver_tick >= send_tick + 1

    def test_live_graph_matches_positions(self):
        plan = tiny_plan(
            [[0.0, 0.0], [0.45, 0.0], [1.2, 0.0]],
            [spec(3, Rendezvous(), ElapsedTime(2.0), edges=[(1, 2)])],
        )
        config = SimConfig(max_ticks=20)
        nodes = make_nodes(plan)
        world = make_world(plan, config)
        for _ in range(20):
            tick(world, nodes, plan, config)
            expected = proximity_graph(world.positions, plan.delta)
            assert world.live_graph.edges == expected.edges

    def test_config_validation(self):
        with pytest.raises(SimConfigError):
            SimConfig(dt=0.0)
        with pytest.raises(SimConfigError):
            DelaySpec.uniform(3, 1)


class TestRunOutcomes:
    def test_two_robot_rendezvous_completes(self):
        plan = tiny_plan(
            [[0.0, 0.0], [0.4, 0.0]],
            [spec(2, Rendezvous(), ControlNormBelow(0.3), edges=[(1, 2)])],
        )
        rec = run(plan, SimConfig(max_ticks=2000))
        assert rec.outcome == "done"
        # the completion threshold bounds the final nominal, hence the gap
        final_gap = float(np.linalg.norm(rec.positions[-1, 0] - rec.positions[-1, 1]))
        assert final_gap < 0.3

    def test_timeout_reported(self):
        plan = tiny_plan(
            [[0.0, 0.0], [0.4, 0.0]],
            [spec(2, Rendezvous(), ElapsedTime(1e6), edges=[(1, 2)])],
        )
        rec = run(plan, SimConfig(max_ticks=40))
        assert rec.outcome == "timeout"
        assert rec.ticks == 40

    def test_delay_uniform_zero_matches_none(self):
        plan = tiny_plan(
            [[0.0, 0.0], [0.4, 0.0]],
            [spec(2, Rendezvous(), ElapsedTime(1.5), edges=[(1, 2)])],
        )
        rec_a = run(plan, SimConfig(max_ticks=300, delay=DelaySpec.none(), seed=3))
        rec_b = run(plan, SimConfig(max_ticks=300, delay=DelaySpec.uniform(0, 0), seed=99))
        np.testing.assert_array_equal(rec_a.positions, rec_b.positions)
        np.testing.assert_array_equal(rec_a.controls, rec_b.controls)

    def test_same_seed_identical_records(self):
        plan = tiny_plan(
            [[0.0, 0.0], [0.4, 0.0], [0.8, 0.0]],
            [spec(3, Rendezvous(), ElapsedTime(2.0), edges=[(1, 2), (2, 3)])],
        )
        cfg = SimConfig(max_ticks=500, delay=DelaySpec.uniform(0, 5), seed=42)
        rec_a = run(plan, cfg)
        rec_b = run(plan, cfg)
        np.testing.assert_array_equal(rec_a.positions, rec_b.positions)
        np.testing.assert_array_equal(rec_a.sigma, rec_b.sigma)
        assert rec_a.events == rec_b.events

    def test_initial_assembly_pulls_edge_within_settling_bound(self):
        # robots start out of range; the required edge must close no later
        # than the settling bound plus discretization slack
        params = FcbfParams()
        positions = [[0.0, 0.0], [0.9, 0.0]]
        plan = tiny_plan(positions, [spec(2, Rendezvous(), ElapsedTime(0.5), edges=[(1, 2)])])
        config = SimConfig(max_ticks=2000, speed_limit=1.0)
        rec = run(plan, config)
        assert rec.outcome == "done"
        h = connectivity_trace(rec, (1, 2))
        h0 = h[0]
        assert h0 < 0
        bound = settling_time_bound(h0, params)
        first_ok = int(np.flatnonzero(h >= 0)[0])
        assert first_ok * config.dt <= bound + 2 * config.dt

    def test_keep_within_constraint_holds(self):
        # goal outside the anchor disc: the robot parks at the disc boundary
        from swarmseq.barriers import KeepWithin

        anchor = KeepWithin(i=1, center=(0.0, 0.0), radius=0.5)
        plan = tiny_plan(
            [[0.0, 0.0]],
            [
                BehaviorSpec(
                    controller=GoToGoal(goals={1: (2.0, 0.0)}, gain=1.0),
                    required_graph=InteractionGraph(1),
                    completion=ElapsedTime(8.0),
                    initial_constraints=(anchor,),
                )
            ],
        )
        rec = run(plan, SimConfig(max_ticks=500))
        radii = np.linalg.norm(rec.positions[:, 0, :], axis=1)
        assert float(radii.max()) <= 0.5 + 1e-3
        assert float(radii[-1]) >= 0.45  # it did push out to the boundary

    def test_behavior_windows_structure(self):
        plan = tiny_plan(
            [[0.0, 0.0], [0.4, 0.0]],
            [
                spec(2, Rendezvous(), ElapsedTime(0.3), edges=[(1, 2)]),
                spec(2, Scatter(), ElapsedTime(0.3), edges=[(1, 2)]),
            ],
        )
        rec = run(plan, SimConfig(max_ticks=2000))
        assert rec.outcome == "done"
        w1, w2 = compute_behavior_windows(rec)
        assert w1["assembly_first"] == 0
        assert w1["exec_start"] is not None
        assert w2["assembly_first"] >= w1["exec_start"]
        assert w2["exec_start"] > w2["assembly_first"]
        # the team reaches done on the final recorded tick
        assert w2["exec_end"] == rec.ticks - 1


class TestOutputs:
    def test_csv_inventory_and_shape(self, tmp_path):
        plan = tiny_plan(
            [[0.0, 0.0], [0.4, 0.0]],
            [spec(2, Rendezvous(), ElapsedTime(0.3), edges=[(1, 2)])],
        )
        rec = run(plan, SimConfig(max_ticks=500))
        paths = write_outputs(rec, tmp_path)
        assert set(paths) == {"trajectory", "barriers", "consensus", "events"}
        lines = open(paths["trajectory"]).read().strip().splitlines()
        assert lines[0] == "tick,robot,x,y,ux,uy"
        assert len(lines) == 1 + rec.ticks * rec.n + rec.n
        cons = open(paths["consensus"]).read().strip().splitlines()
        assert cons[0] == "tick,robot,sigma,eta,mode,k"
        assert len(cons) == 1 + rec.ticks * rec.n

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        plan = tiny_plan(
            [[0.0, 0.0], [0.4, 0.0]],
            [spec(2, Rendezvous(), ElapsedTime(0.4), edges=[(1, 2)])],
        )
        cfg = SimConfig(max_ticks=400, delay=DelaySpec.uniform(0, 4), seed=5)
        p1 = write_outputs(run(plan, cfg), tmp_path / "a")
        p2 = write_outputs(run(plan, cfg), tmp_path / "b")
        for key in p1:
            assert open(p1[key], "rb").read() == open(p2[key], "rb").read()

    def test_barrier_copies_agree_bitwise(self, tmp_path):
        # barriers.csv, connectivity_trace (summary.json) and the proximity
        # graph all evaluate the same barrier methods, so they agree exactly
        plan, config = builtin_scenario("two_behavior_demo")
        rec = run(plan, replace(config, max_ticks=500))
        path = write_outputs(rec, tmp_path)["barriers"]
        conn, coll = {}, {}
        with open(path, encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (int(row["tick"]), int(row["a"]), int(row["b"]))
                if row["kind"] == "conn":
                    conn[key] = row["h"]
                elif row["kind"] == "coll":
                    coll.setdefault(key[0], set()).add(key[1:])
        edges = sorted({e for spec in plan.behaviors for e in spec.required_graph.edges})
        for i, j in edges:
            trace = connectivity_trace(rec, (i, j))
            for t in range(rec.ticks):
                assert conn[(t, i, j)] == repr(float(trace[t]))
        for t in range(rec.ticks):
            x = rec.positions[t]
            graph = proximity_graph(x, plan.delta)
            assert coll.get(t, set()) == set(graph.edges)
            for i in range(1, rec.n + 1):
                for j in range(i + 1, rec.n + 1):
                    h = Connectivity(i, j, plan.delta).value(x[i - 1], x[j - 1])
                    assert (h >= 0) == graph.has_edge(i, j)


class TestMessageQueue:
    def test_heap_delivers_what_a_list_scan_delivers(self):
        # the reference: every tick, scan the whole in-flight list for due messages
        rng = random.Random(5)
        world = make_world(tiny_plan([[0.0, 0.0]], [spec(1, Rendezvous(), ElapsedTime(1.0))]), SimConfig())
        scan = []
        for t in range(400):
            due = {}
            remaining = []
            for deliver_tick, recipient, send_tick, msg in scan:
                if deliver_tick <= t:
                    due.setdefault(recipient, []).append(Delivery(send_tick, msg))
                else:
                    remaining.append((deliver_tick, recipient, send_tick, msg))
            scan = remaining
            assert sim_mod._deliver(world, t) == due
            assert len(world.in_flight) == len(scan)
            for _ in range(rng.randint(0, 6)):
                sender = rng.randint(1, 6)
                msg = AgentMessage(sender, (rng.random(), rng.random()), rng.random(), 0.0, 1)
                deliver = t + 1 + rng.randint(0, 10)
                for r in rng.sample(range(1, 7), rng.randint(0, 5)):
                    scan.append((deliver, r, t, msg))
                    sim_mod._post(world, deliver, r, Delivery(t, msg))

    def test_delay_draws_equal_a_fresh_generator_per_key(self):
        rng = random.Random(11)
        for _ in range(1000):
            seed, sender, t = rng.randint(0, 2**40), rng.randint(1, 64), rng.randint(0, 20000)
            lo = rng.randint(0, 5)
            hi = lo + rng.randint(0, 10)
            config = SimConfig(delay=DelaySpec.uniform(lo, hi), seed=seed)
            key = (seed * 1000003 + sender) * 1000003 + t
            expected = random.Random(key & 0xFFFFFFFFFFFFFFFF).randint(lo, hi)
            assert sim_mod._delay_ticks(config, sender, t) == expected
