"""The benchmark's per-layer hooks still reach every in-tick layer.

``bench/tracer.py`` times a layer by replacing a module attribute
(``sim.tick``, ``agent.constraint_row``, ``agent.solve``, ...) for the
duration of a run. A renamed function, or a call that no longer goes through
the module attribute, would silently report zero for that layer. This runs
the tracer, unchanged, around a short two_behavior_demo. Two golden digests
pin the outputs' bytes, one of them on the obstacle, relaxed and frozen
paths of the filter. Four more pin the oracle-off view under delay, a delay
bound past the run's end, a delayed run longer than one block of delay draws
and the glue baseline's hold-still test, which reads the cached behavior
indices. Two crowd goldens pin the bench's generated grid missions at 48 and
192 robots, with their lattice and pursuit laws over wide partner sets.
"""

import hashlib
import importlib.util
import json
import os
import sys
from dataclasses import replace

from swarmseq import mission, sim
from swarmseq.agent import Team

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
TRACER = os.path.join(BENCH, "tracer.py")
WORKLOADS = os.path.join(BENCH, "workloads.py")

IN_TICK_LAYERS = (
    "sim.tick",
    "agent.step",
    "geometry.proximity_graph",
    "agent.consensus_update",
    "behaviors.nominal_control",
    "barriers.constraint_row",
    "qp.solve",
)

# sha256 of the CSV set and event log of this 200-tick run, as the benchmark
# digests them (file name, then bytes, in name order). A change that alters
# the arithmetic on purpose updates this value and says why in CHANGES.md.
GOLDEN_DIGEST = "f355fdbfed6b85dc16359456567deb0d0505ee3f2fd7788c32080daa5a212618"

# the same digest of the first 1300 ticks of securing_a_building: obstacle
# rows, 167 relaxed QPs and robot 4's 103 frozen ones (ticks 1013-1239)
BUILDING_GOLDEN_DIGEST = "1a808235af3b4daef7f695a7f87e63e781ae0b54f988b3d9d12bac34465e8af9"

# 400 ticks of two_behavior_demo without the oracle under uniform 0-10 tick
# delay: positions come from sensing and cached messages, and the event order
# includes every missing_position; re-recorded when the delays became a
# SplitMix64 hash of (seed, sender, tick) (364 missing_position, 383 before)
ORACLE_OFF_GOLDEN_DIGEST = "383db6ae3fe3e37213cd40d61c3551a1fdb623590c5af5a31df18b431db72360"

# 60 ticks of two_behavior_demo under uniform 0-100 tick delay: a delay bound
# past the run's end, so some messages arrive and the others are still in
# flight when the run stops
HORIZON_GOLDEN_DIGEST = "2fdc4c788caf0588216f761ca9999c37e1f74494056cd9287c9a45415b628b7b"

# 1100 ticks of two_behavior_demo under uniform 0-10 tick delay, seed 0: more
# ticks than one block of delay draws holds (1024)
LONG_DELAY_GOLDEN_DIGEST = "9bdf01a81486bd5c8adeb320a27c184a43b327e0c8223ef688537c88b9664f80"

# 800 ticks of seven_behavior_energy with glue transitions: an assembling
# robot holds still while a visible neighbor's cached index lags its own
GLUE_GOLDEN_DIGEST = "658ebd8a6588cc13c228cb3385050f021418f3b7dbfa6f90e6bd91b7b441020e"

# sha256 of the runs of the bench's crowd mission (seed 0) on its 6 x 8 grid
# and on a 12 x 16 grid: each run's positions, controls, sigma and eta bytes,
# then its events as sorted-key JSON, the 48-robot run first. Over the four
# arrays alone, the runs' digests begin e2bec5c368fb (48 robots, 436 ticks)
# and dc10c089bee1 (192 robots, 437 ticks).
CROWD_GOLDEN_DIGEST = "dfa2da1eeef89b6f79911bdc5ea98582d838b41df6639a38843dd78620638a30"


def load_bench_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_bench_module("bench_tracer", TRACER).Tracer


def digest(paths):
    h = hashlib.sha256()
    for name in sorted(paths):
        h.update(name.encode())
        with open(paths[name], "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def test_tracer_sees_every_in_tick_layer(tmp_path):
    plan, config = mission.builtin_scenario("two_behavior_demo")
    tracer = load_tracer()()
    with tracer:
        record = sim.run(plan, replace(config, max_ticks=200))
        paths = sim.write_outputs(record, tmp_path)
    metrics = tracer.metrics()

    for layer in IN_TICK_LAYERS:
        assert tracer.calls[layer] > 0, layer
    assert metrics["sim.ticks"][0] == record.ticks == 200
    assert tracer.calls["qp.solve"] == record.ticks  # every tick reaches the one entry point
    assert 0 < metrics["qp.rows_per_solve_mean"][0] <= 64
    assert metrics["sim.output_bytes"][0] > 0
    assert digest(paths) == GOLDEN_DIGEST


def test_building_obstacle_relaxed_and_frozen_paths_keep_their_bytes(tmp_path):
    plan, config = mission.builtin_scenario("securing_a_building")
    record = sim.run(plan, replace(config, max_ticks=1300))
    events = [ev["event"] for ev in record.events]
    assert events.count("qp_relaxed") == 167 and events.count("qp_infeasible_hard") == 103
    # robot 4 was last frozen on tick 1239, before the cap
    assert record.outcome == "timeout"
    assert digest(sim.write_outputs(record, tmp_path)) == BUILDING_GOLDEN_DIGEST


def test_oracle_off_view_under_delay_keeps_its_bytes(tmp_path):
    plan, config = mission.builtin_scenario("two_behavior_demo")
    config = replace(config, max_ticks=400, oracle_sensing=False, delay=sim.DelaySpec.uniform(0, 10), seed=0)
    record = sim.run(plan, config)
    events = [ev["event"] for ev in record.events]
    assert record.outcome == "timeout"
    assert events.count("mode_switch") == 15 and events.count("behavior_complete_local") == 5
    assert events.count("missing_position") == 364
    assert digest(sim.write_outputs(record, tmp_path)) == ORACLE_OFF_GOLDEN_DIGEST


def test_delay_bound_past_the_horizon_keeps_its_bytes(tmp_path):
    plan, config = mission.builtin_scenario("two_behavior_demo")
    config = replace(config, max_ticks=60, delay=sim.DelaySpec.uniform(0, 100), seed=0)
    team, world = Team.start(plan), sim.make_world(plan, config)
    for _ in range(config.max_ticks):
        sim.tick(world, team, config)
    assert team.cache.present.sum() == 10 and len(world.in_flight) == 400
    assert digest(sim.write_outputs(sim.run(plan, config), tmp_path)) == HORIZON_GOLDEN_DIGEST


def test_delayed_run_past_the_first_delay_block_keeps_its_bytes(tmp_path):
    plan, config = mission.builtin_scenario("two_behavior_demo")
    record = sim.run(plan, replace(config, max_ticks=1100, delay=sim.DelaySpec.uniform(0, 10), seed=0))
    events = [ev["event"] for ev in record.events]
    assert record.outcome == "timeout" and record.ticks == 1100
    assert events.count("mode_switch") == 15 and events.count("behavior_complete_local") == 5
    assert digest(sim.write_outputs(record, tmp_path)) == LONG_DELAY_GOLDEN_DIGEST


def test_glue_hold_still_path_keeps_its_bytes(tmp_path):
    plan, config = mission.builtin_scenario("seven_behavior_energy")
    record = sim.run(plan, replace(config, max_ticks=800, glue_transitions=True))
    events = [ev["event"] for ev in record.events]
    assert events.count("mode_switch") == 30 and events.count("behavior_complete_local") == 12
    assert digest(sim.write_outputs(record, tmp_path)) == GLUE_GOLDEN_DIGEST


def test_crowd_grids_keep_their_bytes():
    crowd_mission_text = load_bench_module("bench_workloads", WORKLOADS).crowd_mission_text
    h = hashlib.sha256()
    for (rows, cols), ticks in zip(((6, 8), (12, 16)), (436, 437)):
        plan, config = mission.parse_mission(crowd_mission_text(0, rows, cols))
        record = sim.run(plan, config)
        assert (plan.n, record.outcome, record.ticks) == (rows * cols, "done", ticks)
        for a in (record.positions, record.controls, record.sigma, record.eta):
            h.update(a.tobytes())
        for ev in record.events:
            h.update(json.dumps(ev, sort_keys=True).encode())
    assert h.hexdigest() == CROWD_GOLDEN_DIGEST
