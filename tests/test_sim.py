import csv
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

import swarmseq.sim as sim_mod
from swarmseq.agent import ASSEMBLING, EXECUTING, Team
from swarmseq.barriers import Connectivity, FcbfParams, ObstacleAvoid, settling_time_bound
from swarmseq.behaviors import ControlNormBelow, ElapsedTime, GoToGoal, Rendezvous, Scatter
from swarmseq.geometry import Domain, InteractionGraph, Obstacle, proximity_graph
from swarmseq.mission import BehaviorSpec, MissionPlan, RescueProbe, builtin_scenario
from swarmseq.sim import (
    DelaySpec,
    InFlight,
    SimConfig,
    SimConfigError,
    compute_behavior_windows,
    make_world,
    run,
    tick,
    write_outputs,
)
from traces import connectivity_trace


def splitmix64_delay(seed, sender, tick, lo, hi):
    """The delay of ``sender``'s broadcast of ``tick``, from scalar Python
    integers: SplitMix64's finalizer over the key, reduced mod the span."""
    mask = 2**64 - 1
    z = ((seed * 1000003 + sender) * 1000003 + tick) & mask
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
    return lo + (z ^ z >> 31) % (hi - lo + 1)


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
        team = Team.start(plan)
        world = make_world(plan, config)
        for _ in range(10):
            tick(world, team, config)
            store = world.in_flight
            pending = store.due >= 0
            sent = np.broadcast_to(store.sent[:, None, None], store.due.shape)
            assert pending.any() and len(store) == pending.sum()
            assert (store.due[pending] >= sent[pending] + 1).all() and (store.due[pending] <= sent[pending] + 4).all()

    def test_sensed_mask_matches_positions(self):
        plan = tiny_plan(
            [[0.0, 0.0], [0.45, 0.0], [1.2, 0.0]],
            [spec(3, Rendezvous(), ElapsedTime(2.0), edges=[(1, 2)])],
        )
        config = SimConfig(max_ticks=20)
        team = Team.start(plan)
        world = make_world(plan, config)
        for _ in range(20):
            tick(world, team, config)
            expected = proximity_graph(world.positions, plan.delta)
            assert {(i + 1, j + 1) for i, j in zip(*np.triu(world.sensed).nonzero())} == expected.edges

    def test_config_validation(self):
        with pytest.raises(SimConfigError):
            SimConfig(dt=0.0)
        with pytest.raises(SimConfigError):
            DelaySpec.uniform(3, 1)


    def test_a_tick_at_or_past_the_cap_is_refused(self):
        # the delays and the message ring cover the ticks before max_ticks
        # only; a tick past it would overwrite slots not yet due
        plan, config = builtin_scenario("two_behavior_demo")
        config = replace(config, max_ticks=5, delay=DelaySpec.uniform(0, 100))
        team, world = Team.start(plan), make_world(plan, config)
        for _ in range(5):
            tick(world, team, config)
        flying, positions = len(world.in_flight), world.positions
        with pytest.raises(SimConfigError, match=r"tick 5 is at or past max_ticks \(5\)"):
            tick(world, team, config)
        assert world.tick == 5 and len(world.in_flight) == flying and world.positions is positions

    def test_an_empty_escort_group_is_refused_before_the_first_tick(self, monkeypatch):
        plan, config = builtin_scenario("two_behavior_demo")
        plan = replace(plan, rescue=RescueProbe((0.0, 0.0), (1.0, 1.0), 0.5, 1, escort_robots=()))
        ticks = []
        real = sim_mod.tick
        monkeypatch.setattr(sim_mod, "tick", lambda *args: ticks.append(args) or real(*args))
        with pytest.raises(SimConfigError, match="^rescue: escort group is empty$"):
            run(plan, config)
        assert ticks == []


class TestRescueEvents:
    """The rescue events are read from the finished record, each placed after
    the events of its tick."""

    def record(self, ends, mode, events, target=(0.0, 0.0), safe=((1.0, 0.0), 5.0)):
        """A two-robot record whose ticks end at ``ends`` (ticks, 2, 2), with
        both robots at behavior 1 in ``mode`` (ticks, 2) and the escort
        behavior 1 run by both."""
        plan = tiny_plan([[2.0, 0.0], [2.0, 1.0]], [spec(2, Rendezvous(), ElapsedTime(1.0))])
        plan = replace(plan, rescue=RescueProbe(target, safe[0], safe[1], 1, (1, 2)))
        ticks = len(ends)
        positions = np.concatenate([plan.initial_positions[None], ends])
        zeros = np.zeros((ticks, 2))
        return sim_mod.RunRecord(2, 0.02, "done", ticks, positions, np.zeros((ticks, 2, 2)), zeros, zeros,
                                 np.array(mode), np.ones((ticks, 2), dtype=int), events, SimConfig(), plan)

    def test_located_and_escorted_on_one_tick_follow_its_step_and_qp_events(self):
        far, near = [[2.0, 0.0], [2.0, 1.0]], [[0.3, 0.0], [0.2, 0.0]]
        # the group's centroid is in the safe zone and it escorts throughout,
        # but escorting counts only from the tick the subject is located on
        events = [
            {"tick": 1, "event": "mode_switch", "robot": 1, "mode": "executing", "k": 1},
            {"tick": 2, "event": "mode_switch", "robot": 2, "mode": "executing", "k": 1},
            {"tick": 2, "event": "qp_relaxed", "robot": 1, "k": 1},
            {"tick": 3, "event": "qp_relaxed", "robot": 2, "k": 1},
        ]
        rec = self.record([far, far, near, near, near], np.full((5, 2), EXECUTING), list(events))
        sim_mod._add_rescue_events(rec)
        located = {"tick": 2, "event": "target_located", "robot": 2}  # the nearer robot
        assert rec.events == events[:3] + [located, {"tick": 2, "event": "target_escorted"}] + events[3:]

    def test_escorted_waits_for_the_group_and_the_zone(self):
        both = [[0.2, 0.0], [0.2, 0.0]]  # equally near: the first robot is named
        inside = [[0.9, 0.0], [1.1, 0.0]]
        mode = [[ASSEMBLING, EXECUTING]] * 3 + [[EXECUTING, EXECUTING]] * 3
        events = [{"tick": t, "event": "qp_relaxed", "robot": 1, "k": 1} for t in (0, 3, 4, 4, 5)]
        rec = self.record([both, inside, inside, both, inside, inside], mode, list(events), safe=((1.0, 0.0), 0.1))
        sim_mod._add_rescue_events(rec)
        assert rec.events == (events[:1] + [{"tick": 0, "event": "target_located", "robot": 1}] + events[1:4]
                              + [{"tick": 4, "event": "target_escorted"}] + events[4:])

    def test_no_events_when_the_subject_is_never_located(self):
        far = [[2.0, 0.0], [2.0, 1.0]]
        events = [{"tick": 0, "event": "qp_relaxed", "robot": 1, "k": 1}]
        rec = self.record([far] * 4, np.full((4, 2), EXECUTING), list(events), safe=((2.0, 0.5), 1.0))
        sim_mod._add_rescue_events(rec)
        assert rec.events == events

    def test_a_run_reports_the_subject_it_reaches(self):
        plan = tiny_plan([[0.0, 0.0], [0.4, 0.0]], [spec(2, Rendezvous(), ElapsedTime(1.0), edges=[(1, 2)])])
        plan = replace(plan, rescue=RescueProbe((0.2, 0.45), (0.2, 0.0), 0.05, 1, (1, 2)))
        rec = run(plan, SimConfig(max_ticks=300))
        rescue = [ev for ev in rec.events if ev["event"].startswith("target_")]
        assert [ev["event"] for ev in rescue] == ["target_located", "target_escorted"]
        assert [ev["tick"] for ev in rec.events] == sorted(ev["tick"] for ev in rec.events)
        for ev in rescue:  # the last events of their ticks
            later = rec.events[rec.events.index(ev) + 1:]
            assert all(e["tick"] > ev["tick"] or e["event"] == "target_escorted" for e in later)


@pytest.fixture(scope="module")
def demo():
    plan, config = builtin_scenario("two_behavior_demo")
    return plan, config, run(plan, config)


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

    @pytest.mark.parametrize("cap", [1023, 1024, 1025, 2049])
    def test_a_capped_record_is_the_uncapped_ones_first_rows(self, demo, cap):
        # the record's arrays start at 1024 rows and double when full; the
        # caps sit on either side of the first doubling and past the second
        plan, config, full = demo
        rec = run(plan, replace(config, max_ticks=cap))
        assert (rec.outcome, rec.ticks) == ("timeout", cap) and full.ticks > cap
        for name in ("positions", "controls", "sigma", "eta", "mode", "behavior_index"):
            got, whole = getattr(rec, name), getattr(full, name)
            assert len(got) == cap + (name == "positions") and got.dtype == whole.dtype
            assert got.tobytes() == whole[:len(got)].tobytes()
        assert rec.events == [ev for ev in full.events if ev["tick"] < cap]

    def test_timeout_reported(self):
        plan = tiny_plan(
            [[0.0, 0.0], [0.4, 0.0]],
            [spec(2, Rendezvous(), ElapsedTime(1e6), edges=[(1, 2)])],
        )
        rec = run(plan, SimConfig(max_ticks=40))
        assert rec.outcome == "timeout"
        assert rec.ticks == 40

    @staticmethod
    def frozen_start_plan():
        # robot 1 sits on the unit disc's boundary with robot 2 inside its
        # minimum separation, on the far side: the obstacle row asks it to move
        # out, the collision row to move in, so it freezes until robot 2 has
        # backed off alone (ticks 0-11)
        return MissionPlan(
            n=2,
            initial_positions=np.array([[1.0, 0.0], [1.1, 0.0]]),
            behaviors=(spec(2, GoToGoal(goals={}), ElapsedTime(1e6)),),
            domain=Domain(-3, 3, -3, 3, (Obstacle(np.zeros(2), 1.0, 1.0),)),
            fcbf=FcbfParams(),
            delta=0.5,
            min_sep=0.12,
        )

    def test_frozen_on_the_final_tick_is_infeasible(self):
        rec = run(self.frozen_start_plan(), SimConfig(max_ticks=3))
        assert rec.outcome == "infeasible_hard"
        assert [e["tick"] for e in rec.events if e["event"] == "qp_infeasible_hard"] == [0, 1, 2]

    def test_a_freeze_that_has_ended_is_a_timeout(self):
        rec = run(self.frozen_start_plan(), SimConfig(max_ticks=40))
        assert rec.outcome == "timeout"
        frozen = [e["tick"] for e in rec.events if e["event"] == "qp_infeasible_hard"]
        assert frozen and max(frozen) < 39

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
        with open(paths["trajectory"]) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "tick,robot,x,y,ux,uy"
        assert len(lines) == 1 + rec.ticks * rec.n + rec.n
        with open(paths["consensus"]) as fh:
            cons = fh.read().strip().splitlines()
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
            with open(p1[key], "rb") as a, open(p2[key], "rb") as b:
                assert a.read() == b.read()

    def test_obstacle_rows_name_each_robots_worst_obstacle(self, tmp_path):
        # the first of equal minima: obstacles 2 and 3 are the same ellipse
        twin = Obstacle(np.array([0.5, -1.0]), 4.0, 4.0)
        obstacles = (Obstacle(np.array([2.0, 2.0]), 1.0, 1.0), twin, twin, Obstacle(np.array([-2.0, 0.0]), 2.0, 0.5))
        plan = tiny_plan([[0.0, 0.0], [1.0, 0.0]], [spec(2, Rendezvous(), ElapsedTime(0.3), edges=[(1, 2)])])
        rec = run(replace(plan, domain=Domain(-3, 3, -3, 3, obstacles)), SimConfig(max_ticks=30))
        with open(write_outputs(rec, tmp_path)["barriers"], encoding="utf-8") as fh:
            rows = [(int(r["tick"]), int(r["a"]), int(r["b"]), r["h"]) for r in csv.DictReader(fh) if r["kind"] == "obst"]
        expected = []
        for t in range(rec.ticks):
            for i in range(1, rec.n + 1):
                h = [float(ObstacleAvoid(i, o).value(rec.positions[t, i - 1] - o.center)) for o in obstacles]
                expected.append((t, i, h.index(min(h)) + 1, repr(min(h))))
        assert rows == expected and all(m == 2 for _, i, m, _ in rows if i == 1)

    def test_barrier_copies_agree_bitwise(self, tmp_path):
        # barriers.csv, connectivity_trace and the proximity graph all
        # evaluate the one barrier form, so they agree exactly
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
                    h = Connectivity(i, j, plan.delta).value(x[i - 1] - x[j - 1])
                    assert (h >= 0) == graph.has_edge(i, j)


class TestMessageQueue:
    def test_store_delivers_what_a_list_scan_delivers(self):
        # the reference: every tick, scan the whole in-flight list for due
        # pairs; the store delivers the newest of them per (recipient, sender)
        rng = random.Random(5)
        store = InFlight(6, 10, 400)
        scan = []  # (deliver tick, recipient, sender, send tick, body, k)
        n, superseded = 6, 0
        for t in range(400):
            due = [m for m in scan if m[0] <= t]
            scan = [m for m in scan if m[0] > t]
            newest = {}
            for _, r, s, send, body, k in due:
                newest[r, s] = max(newest.get((r, s), (send, body, k)), (send, body, k))
            inbox = store.pop(t)
            want = np.full((n, n), -1)
            for (r, s), (send, body, k) in newest.items():
                want[r, s] = send
                slot = send % len(inbox.state)
                assert inbox.state[slot, s].tolist() == body and inbox.k[slot, s] == k
            assert inbox.sent.tolist() == want.tolist()
            assert len(inbox) == inbox.size == len(due)
            assert len(store) == len(scan)
            superseded += len(due) - len(newest)
            sensed = np.array([[i < j and rng.random() < 0.4 for j in range(n)] for i in range(n)])
            sensed |= sensed.T
            k = np.array([rng.randint(1, 3) for _ in range(n)])
            x, sigma, eta = (np.array([[rng.random() for _ in range(m)] for _ in range(n)]) for m in (2, 1, 1))
            delays = [rng.randint(0, 10) for _ in range(n)]
            store.post(t, np.array(delays), sensed, x, sigma[:, 0], eta[:, 0], k)
            for r, s in zip(*sensed.nonzero()):
                scan.append((t + 1 + delays[s], int(r), int(s), t, [*x[s], sigma[s, 0], eta[s, 0]], int(k[s])))
        assert superseded > 0

    def test_store_keeps_one_slot_per_tick_a_message_can_wait(self):
        # a message is due at most max_delay + 1 ticks after it is sent, and
        # none is delivered past the horizon; a bound past the horizon never
        # costs more than horizon + 1 slots
        far = InFlight(5, 100, 60)
        assert len(far.sent) == 61 and far.due.shape == (61, 5, 5) and far.state.shape == (61, 5, 4)
        assert len(InFlight(5, 3, 60).sent) == 4 and len(InFlight(5, 0, 60).sent) == 1

    def test_delay_draws_equal_a_scalar_splitmix64(self):
        rng = random.Random(11)
        cases = [(rng.randint(0, 2**40), rng.randint(0, 5), rng.randint(0, 10)) for _ in range(1000)]
        cases += [(2**40 + 7, 3, 4), (2**70 + 1, 0, 10), (-5, 0, 10), (-(2**65), 2, 7), (9, 4, 0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from the wrapping uint64 arithmetic
            for seed, lo, extra in cases:
                config = SimConfig(delay=DelaySpec.uniform(lo, lo + extra), seed=seed)
                senders, t = rng.sample(range(1, 65), rng.randint(1, 8)), rng.randint(0, 20000)
                got = sim_mod._delay_ticks(config, np.array(senders, dtype=np.uint64), t)
                assert got.tolist() == [splitmix64_delay(seed, s, t, lo, lo + extra) for s in senders]
                assert all(lo <= d <= lo + extra for d in got.tolist())

    @pytest.mark.parametrize("seed", [0, 7, -5, -(2**65), 2**70, 2**70 + 1])
    @pytest.mark.parametrize("lo, hi", [(0, 10), (3, 3), (0, 0)])
    def test_a_block_of_ticks_draws_what_each_tick_draws(self, seed, lo, hi):
        config = SimConfig(delay=DelaySpec.uniform(lo, hi), seed=seed)
        senders = np.arange(1, 6, dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = sim_mod._delay_ticks(config, senders, np.arange(1020, 1031, dtype=np.uint64)[:, None])
            each = [sim_mod._delay_ticks(config, senders, t).tolist() for t in range(1020, 1031)]
        assert block.shape == (11, 5) and block.tolist() == each
        assert each == [[splitmix64_delay(seed, s, t, lo, hi) for s in range(1, 6)] for t in range(1020, 1031)]

    def test_the_world_draws_delays_in_blocks_up_to_the_cap(self, monkeypatch):
        # one block of 1024 ticks, then one of the 76 ticks left before the cap
        plan, config = builtin_scenario("two_behavior_demo")
        config = replace(config, max_ticks=1100, delay=DelaySpec.uniform(0, 10))
        blocks, real = [], sim_mod._delay_ticks
        monkeypatch.setattr(sim_mod, "_delay_ticks", lambda c, s, t: blocks.append(t.ravel().tolist()) or real(c, s, t))
        team, world = Team.start(plan), make_world(plan, config)
        for _ in range(1100):
            tick(world, team, config)
        assert blocks == [list(range(1024)), list(range(1024, 1100))]

    @pytest.mark.parametrize("span, chi2_limit", [(2, 10.83), (11, 29.59), (16, 37.70)])
    def test_delay_draws_are_uniform(self, span, chi2_limit):
        # 100k draws: 1000 ticks of 100 senders; the limits are the chi-square
        # distribution's 0.999 quantiles for span - 1 degrees of freedom
        config = SimConfig(delay=DelaySpec.uniform(3, 3 + span - 1), seed=1)
        senders = np.arange(1, 101, dtype=np.uint64)
        draws = np.array([sim_mod._delay_ticks(config, senders, t) for t in range(1000)]).ravel()
        counts = np.bincount(draws - 3, minlength=span)
        assert len(counts) == span
        expected = len(draws) / span
        assert ((counts - expected) ** 2 / expected).sum() < chi2_limit

    def test_another_sender_or_tick_draws_another_stream(self):
        config = SimConfig(delay=DelaySpec.uniform(0, 10), seed=4)
        one, two = (np.array([sim_mod._delay_ticks(config, np.array([s], dtype=np.uint64), t) for t in range(2000)])
                    for s in (1, 2))
        # independent streams agree on about 1 draw in 11
        assert 0.05 < (one == two).mean() < 0.15
        assert 0.05 < (one[1:] == one[:-1]).mean() < 0.15
