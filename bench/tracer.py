"""Per-layer spans recorded from outside the program.

``Tracer`` replaces, for the duration of a ``with`` block, each layer's
public function in the module that looks it up (``sim.tick`` is called by
``sim.run``, ``agent.solve`` by ``agent.step``, ...), and restores the
originals on exit. A span's self time is its duration minus the spans it
encloses. Spans are timed with ``time.perf_counter`` (wall clock).
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from swarmseq import agent, behaviors, cli, mission, sim

# (metric prefix, module whose attribute is patched, attribute name)
LAYERS = (
    ("sim.tick", sim, "tick"),
    ("agent.step", sim, "step"),
    ("geometry.proximity_graph", sim, "proximity_graph"),
    ("agent.consensus_update", agent, "consensus_update"),
    ("behaviors.nominal_control", behaviors, "nominal_control"),
    ("barriers.constraint_row", agent, "constraint_row"),
    ("qp.solve", agent, "solve"),
    ("sim.write_outputs", sim, "write_outputs"),
    ("mission.parse", mission, "parse_mission"),
    ("mission.validate", mission, "validate"),
    ("cli.run_metrics", cli, "run_metrics"),
)


class Tracer:
    """Accumulates busy time, self time and call counts per layer, plus the
    counters each layer's arguments and results carry."""

    def __init__(self):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.rows_max = 0
        self._open = []  # child time accumulated by each enclosing span
        self._nominal_depth = 0
        self._saved = []

    def __enter__(self):
        for name, module, attr in LAYERS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrapped = self._span(name, original, getattr(self, "_after_" + attr, None))
            if attr == "nominal_control":
                wrapped = self._outermost(wrapped, original)
            setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _span(self, name, fn, after):
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                self.time[name] += elapsed
                self.self_time[name] += elapsed - children
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _outermost(self, wrapped, original):
        # composites call nominal_control again for their group's controller;
        # only the call made by the agent is a span
        def wrapper(*args, **kwargs):
            if self._nominal_depth:
                return original(*args, **kwargs)
            self._nominal_depth += 1
            try:
                return wrapped(*args, **kwargs)
            finally:
                self._nominal_depth -= 1

        return wrapper

    def _after_tick(self, args, result):
        self.counts["in_flight"] += len(args[0].in_flight)

    def _after_step(self, args, result):
        self.counts["inbox_msgs"] += len(args[2])

    def _after_proximity_graph(self, args, result):
        self.counts["live_edges"] += len(result.edges)

    def _after_solve(self, args, result):
        rows = len(args[0].rows)
        self.counts["qp_rows"] += rows
        self.rows_max = max(self.rows_max, rows)
        self.counts["qp." + result.status] += 1

    def _after_write_outputs(self, args, result):
        self.counts["output_bytes"] += sum(os.path.getsize(p) for p in result.values())

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        t, c = self.time, self.calls
        ticks = c["sim.tick"]
        solves = c["qp.solve"]
        graphs = c["geometry.proximity_graph"]
        return {
            "sim.tick_s": (t["sim.tick"], "s"),
            "sim.ticks": (ticks, "count"),
            "sim.tick_self_s": (self.self_time["sim.tick"], "s"),
            "sim.in_flight_mean": (self.counts["in_flight"] / max(ticks, 1), "msgs"),
            "agent.inbox_msgs": (self.counts["inbox_msgs"], "count"),
            "agent.step_s": (t["agent.step"], "s"),
            "agent.steps": (c["agent.step"], "count"),
            "agent.step_self_s": (self.self_time["agent.step"], "s"),
            "agent.consensus_update_s": (t["agent.consensus_update"], "s"),
            "agent.consensus_updates": (c["agent.consensus_update"], "count"),
            "behaviors.nominal_control_s": (t["behaviors.nominal_control"], "s"),
            "behaviors.nominal_calls": (c["behaviors.nominal_control"], "count"),
            "barriers.constraint_row_s": (t["barriers.constraint_row"], "s"),
            "barriers.rows": (c["barriers.constraint_row"], "count"),
            "qp.solve_s": (t["qp.solve"], "s"),
            "qp.solves": (solves, "count"),
            "qp.rows_per_solve_mean": (self.counts["qp_rows"] / max(solves, 1), "rows"),
            "qp.rows_per_solve_max": (self.rows_max, "rows"),
            "qp.relaxed": (self.counts["qp.relaxed"], "count"),
            "qp.infeasible_hard": (self.counts["qp.infeasible_hard"], "count"),
            "qp.optimal_share": (self.counts["qp.optimal"] / max(solves, 1), "ratio"),
            "geometry.proximity_graph_s": (t["geometry.proximity_graph"], "s"),
            "geometry.live_edges_mean": (self.counts["live_edges"] / max(graphs, 1), "edges"),
            "sim.write_outputs_s": (t["sim.write_outputs"], "s"),
            "sim.output_bytes": (self.counts["output_bytes"], "bytes"),
            "mission.parse_s": (t["mission.parse"], "s"),
            "mission.validate_s": (t["mission.validate"], "s"),
            "cli.run_metrics_s": (t["cli.run_metrics"], "s"),
        }
