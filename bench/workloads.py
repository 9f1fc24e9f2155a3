"""The benchmark's workloads: their inputs, their set-up, and the checks
every mission they run must pass.

Calls into the program go through module attributes
(``mission.parse_mission``, ``mission.validate``, ...), so the tracer's
patches on those attributes see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, replace

import numpy as np
import yaml

from swarmseq import mission, sim

# the acceptance suite's gate on collision and obstacle barrier minima
HARD_BARRIER_FLOOR = -1e-3

CROWD_ROWS = 6
CROWD_COLS = 8
CROWD_SPACING = 0.3
CROWD_JITTER = 0.03  # half-width of the uniform position jitter per axis (m)
# lattice for 2 s, cyclic pursuit on the snake cycle for 2 s, lattice for 3 s;
# closer spacing or a final rendezvous froze robots on hard barrier rows
CROWD_PHASES = (("lattice", 2.0), ("cyclic_pursuit", 2.0), ("lattice", 3.0))
CROWD_PURSUIT_ANGLE = 0.8

class CheckFailed(Exception):
    """A generated input is not what the workload promises."""


def snake_cycle(rows, cols):
    """Hamiltonian cycle of a rows x cols grid as a list of (row, col).

    Row 0 runs left to right, rows 1.. snake over columns 1.., and column 0
    leads back up to the start; this closes only for an even row count.
    """
    if rows % 2 or rows < 2 or cols < 2:
        raise CheckFailed(f"no snake cycle on a {rows} x {cols} grid")
    order = [(0, c) for c in range(cols)]
    for r in range(1, rows):
        span = range(cols - 1, 0, -1) if r % 2 else range(1, cols)
        order.extend((r, c) for c in span)
    order.extend((r, 0) for r in range(rows - 1, 0, -1))
    return order


def crowd_mission_text(seed, rows=CROWD_ROWS, cols=CROWD_COLS):
    """Mission YAML for a jittered grid crowd; the seed sets only the jitter.

    Raises CheckFailed unless the snake cycle visits every robot exactly once
    along grid edges and the parsed plan validates without violations.
    """
    n = rows * cols
    rng = random.Random(seed)
    positions = []
    for r in range(rows):
        for c in range(cols):
            x = (c - (cols - 1) / 2) * CROWD_SPACING + rng.uniform(-CROWD_JITTER, CROWD_JITTER)
            y = (r - (rows - 1) / 2) * CROWD_SPACING + rng.uniform(-CROWD_JITTER, CROWD_JITTER)
            positions.append([round(x, 6), round(y, 6)])

    cells = snake_cycle(rows, cols)
    ids = [r * cols + c + 1 for r, c in cells]
    if sorted(ids) != list(range(1, n + 1)):
        raise CheckFailed("snake cycle does not visit every robot exactly once")
    closed = cells + cells[:1]
    if any(abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1 for a, b in zip(closed, closed[1:])):
        raise CheckFailed("snake cycle leaves the grid edges")
    cycle = [[ids[k], ids[(k + 1) % n]] for k in range(n)]

    behaviors = []
    for name, duration in CROWD_PHASES:
        doc = {"name": name, "controller": name, "graph": [],
               "completion": {"type": "elapsed", "duration": duration}}
        if name == "lattice":
            doc["spacing"] = CROWD_SPACING
        else:
            doc["angle"] = CROWD_PURSUIT_ANGLE
            doc["graph"] = cycle
        behaviors.append(doc)
    half_w = cols * CROWD_SPACING
    half_h = rows * CROWD_SPACING
    doc = {
        "mission": {"n": n, "delta": 0.5, "min_sep": 0.12, "rho": 0.5, "gamma": 1.0,
                    "initial_positions": positions},
        "domain": {"bounds": [-half_w, half_w, -half_h, half_h], "obstacles": []},
        "behaviors": behaviors,
        "sim": {"dt": 0.02, "max_ticks": 2000, "delta": 0.5, "speed_limit": 0.2,
                "delay": "none", "seed": seed, "oracle_sensing": True},
    }
    text = yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)
    plan, _ = mission.parse_mission(text)
    violations = mission.validate(plan)
    if violations:
        raise CheckFailed(f"generated crowd mission is invalid: {violations}")
    return text


@dataclass(frozen=True)
class Workload:
    """One named workload. ``params`` either name a builtin ``scenario``
    (optionally run under ``delay`` over ``seeds_per_run`` consecutive seeds)
    or describe a generated crowd grid of ``rows`` x ``cols`` robots."""

    name: str
    why: str
    writes: bool  # writes the CSV set and summary.json, as ``swarmseq run --out``
    params: dict

    def source(self, seed):
        """The input the program receives: a builtin name or mission text."""
        if "scenario" in self.params:
            return self.params["scenario"]
        return crowd_mission_text(seed, self.params["rows"], self.params["cols"])

    def setup(self, source, seed):
        """Validated (plan, config) pairs, one per simulated mission of a run."""
        if "scenario" in self.params:
            plan, config = mission.builtin_scenario(source)
        else:
            plan, config = mission.parse_mission(source)
        violations = mission.validate(plan)
        if violations:
            raise CheckFailed(f"{self.name}: plan has violations: {violations}")
        if "delay" in self.params:
            delay = sim.DelaySpec.uniform(*self.params["delay"])
            return [(plan, replace(config, delay=delay, seed=seed + k))
                    for k in range(self.params["seeds_per_run"])]
        return [(plan, replace(config, seed=seed))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "building",
            "the only mission with obstacles, relaxed QPs and output writing: "
            "securing_a_building run and written as `swarmseq run --out` does",
            True,
            {"scenario": "securing_a_building"},
        ),
        Workload(
            "delay",
            "message-bound: two_behavior_demo under uniform 0-10 tick delay over three "
            "consecutive seeds; no obstacles, every QP optimal, nothing written",
            False,
            {"scenario": "two_behavior_demo", "delay": [0, 10], "seeds_per_run": 3},
        ),
        Workload(
            "crowd",
            "scale case: 48 robots on a jittered 6x8 grid, O(n^2) proximity and wide "
            "QPs; a generated mission parsed from YAML text",
            False,
            {"rows": CROWD_ROWS, "cols": CROWD_COLS, "spacing": CROWD_SPACING,
             "jitter": CROWD_JITTER, "phases": [list(p) for p in CROWD_PHASES],
             "pursuit_angle": CROWD_PURSUIT_ANGLE},
        ),
    )
}


def write_summary(metrics, outdir):
    """summary.json exactly as ``swarmseq run --out`` writes it."""
    path = os.path.join(outdir, "summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def output_digest(paths):
    """sha256 over the written files, in name order."""
    h = hashlib.sha256()
    for name in sorted(paths):
        h.update(name.encode())
        with open(paths[name], "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def hard_barrier_minima(record):
    """Worst collision and obstacle barrier values over the whole run, one
    robot's pairs at a time so the check adds little to peak memory."""
    plan = record.plan
    pos = record.positions
    coll = obst = np.inf
    for i in range(plan.n - 1):
        d = pos[:, i + 1:, :] - pos[:, i:i + 1, :]
        coll = min(coll, float((d[..., 0] ** 2 + d[..., 1] ** 2).min()) - plan.min_sep**2)
    for o in plan.domain.obstacles:
        v = pos - np.asarray(o.center)
        obst = min(obst, float((o.a * v[:, :, 0] ** 2 + o.b * v[:, :, 1] ** 2 - 1.0).min()))
    return coll, obst


def exact_values(record, metrics):
    """Simulated quantities a change that only makes the program faster must
    leave identical, with the run's QP outcome counts."""
    transitions = [b["transition_seconds"] for b in metrics["behaviors"]]
    events = [ev["event"] for ev in record.events]
    return {
        "mission_s_sim": record.ticks * record.dt,
        "transition_s_sim": float(sum(t for t in transitions if t is not None)),
        "control_effort": float(sum(metrics["control_effort_per_robot"])),
        "qp.relaxed": events.count("qp_relaxed"),
        "qp.infeasible_hard": events.count("qp_infeasible_hard"),
        "ticks": record.ticks,
        "robots": record.n,
    }


def check_record(record):
    """Failures of the per-run checks that need only the record."""
    failures = []
    if record.outcome != "done":
        failures.append(f"outcome {record.outcome} after {record.ticks} ticks")
    coll, obst = hard_barrier_minima(record)
    if coll < HARD_BARRIER_FLOOR:
        failures.append(f"collision barrier minimum {coll:.3e} below {HARD_BARRIER_FLOOR:g}")
    if obst < HARD_BARRIER_FLOOR:
        failures.append(f"obstacle barrier minimum {obst:.3e} below {HARD_BARRIER_FLOOR:g}")
    return failures

