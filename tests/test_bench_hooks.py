"""The benchmark's per-layer hooks still reach every in-tick layer.

``bench/tracer.py`` times a layer by replacing a module attribute
(``sim.tick``, ``agent.constraint_row``, ``agent.solve``, ...) for the
duration of a run. A renamed function, or a call that no longer goes through
the module attribute, would silently report zero for that layer. This runs
the tracer, unchanged, around a short two_behavior_demo.
"""

import hashlib
import importlib.util
import os
from dataclasses import replace

from swarmseq import mission, sim

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py")

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
GOLDEN_DIGEST = "937ff7fbcb7bfa6509af8e7d4473a3a827beaa713978c3d176bb91ea45b61023"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


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
    assert 0 < metrics["qp.rows_per_solve_mean"][0] <= 64
    assert metrics["sim.output_bytes"][0] > 0
    assert digest(paths) == GOLDEN_DIGEST
