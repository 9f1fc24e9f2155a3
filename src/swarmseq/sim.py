"""Deterministic tick-based world: motion integration, sensing, delayed messages.

Every tick: deliver due messages, step every agent against the previous
tick's snapshot (so agents are order-independent within a tick), filter the
team's nominal inputs through their QPs in one pass, saturate controls,
integrate positions with explicit Euler, recompute the proximity graph, and
enqueue the new broadcasts with sampled delays. Identical
(mission, config, seed) triples produce byte-identical outputs; message
delays are drawn from a stream keyed by (seed, sender, tick) so scheduling
order cannot perturb them.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field

import numpy as np

from .agent import EXECUTING, AgentNode, Delivery, StepEnv, filter_team, step
from .barriers import Collision, Connectivity, ObstacleAvoid
from .geometry import RobotState, proximity_graph


class SimConfigError(ValueError):
    """Configuration rejected before the run starts."""


@dataclass(frozen=True)
class DelaySpec:
    kind: str  # "none" | "uniform"
    min_ticks: int = 0
    max_ticks: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "uniform"):
            raise SimConfigError(f"unknown delay kind '{self.kind}'")
        if self.min_ticks < 0 or self.max_ticks < self.min_ticks:
            raise SimConfigError("delay bounds must satisfy 0 <= min <= max")

    @classmethod
    def none(cls):
        return cls("none")

    @classmethod
    def uniform(cls, lo, hi):
        return cls("uniform", lo, hi)


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.02
    max_ticks: int = 20000
    speed_limit: float = 0.2
    delay: DelaySpec = field(default_factory=DelaySpec.none)
    seed: int = 0
    oracle_sensing: bool = True
    sigma_bar: float = 0.8
    eta_bar: float = 0.8
    staleness_ticks: int = 50
    glue_transitions: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise SimConfigError("dt must be positive")
        if self.speed_limit <= 0:
            raise SimConfigError("speed limit must be positive")
        if self.max_ticks < 1:
            raise SimConfigError("max_ticks must be at least 1")


@dataclass
class WorldState:
    tick: int
    positions: np.ndarray  # (n, 2)
    live_graph: object
    in_flight: list  # heap of (deliver_tick, seq, send_tick, (recipient, Delivery))
    event_log: list
    sent: int = 0  # messages posted so far; the next one's seq


@dataclass
class RunRecord:
    n: int
    dt: float
    outcome: str  # done | timeout | infeasible_hard
    ticks: int
    positions: np.ndarray  # (ticks + 1, n, 2)
    controls: np.ndarray  # (ticks, n, 2)
    sigma: np.ndarray  # (ticks, n)
    eta: np.ndarray  # (ticks, n)
    mode: np.ndarray  # (ticks, n) int
    behavior_index: np.ndarray  # (ticks, n) int
    events: list
    config: SimConfig
    plan: object


# re-seeded before every draw, so no state carries from one call to the next:
# the same draws as random.Random(key), without building a generator per
# sender per tick (not safe to share between threads)
_DELAY_RNG = random.Random()


def _delay_ticks(config, sender, tick):
    if config.delay.kind == "none":
        return 0
    key = (config.seed * 1000003 + sender) * 1000003 + tick
    _DELAY_RNG.seed(key & 0xFFFFFFFFFFFFFFFF)
    return _DELAY_RNG.randint(config.delay.min_ticks, config.delay.max_ticks)


def _post(world, deliver_tick, recipient, delivery):
    """Queue one delivery for its recipient at the start of ``deliver_tick``;
    the recipients of one broadcast share its (immutable) delivery."""
    entry = (deliver_tick, world.sent, delivery.send_tick, (recipient, delivery))
    heapq.heappush(world.in_flight, entry)
    world.sent += 1


def _deliver(world, t):
    """Pop the messages due by tick t: recipient -> deliveries, in post order."""
    due = {}
    queue = world.in_flight
    while queue and queue[0][0] <= t:
        recipient, delivery = heapq.heappop(queue)[3]
        due.setdefault(recipient, []).append(delivery)
    return due


def _specs_for(node, plan):
    """(nominal spec, target spec) per the node's stage; either may be None."""
    k = node.behavior_index
    specs = plan.behaviors
    m = len(specs)
    if node.done:
        return None, None
    if node.mode == EXECUTING:
        nominal = specs[k - 1]
        upcoming = specs[k] if k < m else None
        return nominal, upcoming
    nominal = specs[k - 2] if k >= 2 else None
    return nominal, specs[k - 1]


def make_nodes(plan):
    """Fresh agent nodes, all starting in assembly toward the first behavior."""
    return [AgentNode(id=i, n_behaviors=len(plan.behaviors)) for i in range(1, plan.n + 1)]


def make_world(plan, config):
    positions = plan.initial_positions.copy()
    graph = proximity_graph(positions, plan.delta)
    return WorldState(tick=0, positions=positions, live_graph=graph, in_flight=[], event_log=[])


def tick(world, nodes, plan, config):
    """Advance the world and all nodes by one tick; returns applied controls."""
    t = world.tick
    due = _deliver(world, t)

    graph = world.live_graph
    # views, not copies: the tick replaces world.positions rather than writing into it
    rows = list(world.positions)
    oracle = dict(enumerate(rows, start=1)) if config.oracle_sensing else None

    controls = np.zeros((plan.n, 2))
    outboxes = []
    step_events = []
    for node in nodes:
        i = node.id
        neighbors = graph.neighbors(i)
        sensed = {j: rows[j - 1] for j in neighbors}
        env = StepEnv(
            tick=t,
            live_neighbors=neighbors,
            sensed=sensed,
            oracle=oracle,
            params=plan.fcbf,
            delta=plan.delta,
            min_sep=plan.min_sep,
            speed_limit=config.speed_limit,
            domain=plan.domain,
            sigma_bar=config.sigma_bar,
            eta_bar=config.eta_bar,
            staleness_ticks=config.staleness_ticks,
            glue_transitions=config.glue_transitions,
        )
        my_state = RobotState(i, rows[i - 1])
        behavior, upcoming = _specs_for(node, plan)
        node, _, outbox, events = step(node, my_state, due.get(i, []), behavior, upcoming, env, config.dt)
        outboxes.append((i, outbox, sorted(neighbors)))
        step_events.append(events)

    requests = [node.request for node in nodes if node.request is not None]
    if requests:
        solution = filter_team(requests, plan.fcbf, plan.min_sep, config.speed_limit, plan.domain)
        for request, u, status in zip(requests, solution.u, solution.statuses):
            i = request.robot
            controls[i - 1] = u
            if status != "optimal":
                # each robot's QP event follows its own step events
                k = nodes[i - 1].behavior_index
                step_events[i - 1].append({"event": "qp_" + status, "robot": i, "k": k})
    for events in step_events:
        for ev in events:
            ev["tick"] = t
            world.event_log.append(ev)

    np.clip(controls, -config.speed_limit, config.speed_limit, out=controls)
    world.positions = world.positions + config.dt * controls
    world.live_graph = proximity_graph(world.positions, plan.delta)
    for sender, msg, recipients in outboxes:
        delay = _delay_ticks(config, sender, t)
        delivery = Delivery(t, msg)
        for r in recipients:
            _post(world, t + 1 + delay, r, delivery)
    world.tick = t + 1
    return controls


def run(plan, config):
    """Run the mission to completion, timeout, or hard infeasibility."""
    nodes = make_nodes(plan)
    world = make_world(plan, config)

    positions_log = [world.positions.copy()]
    controls_log = []
    sigma_log, eta_log, mode_log, k_log = [], [], [], []

    rescue_state = _RescueTracker(plan) if plan.rescue is not None else None

    outcome = "timeout"
    while world.tick < config.max_ticks:
        controls = tick(world, nodes, plan, config)
        controls_log.append(controls)
        positions_log.append(world.positions.copy())
        sigma_log.append([n.sigma for n in nodes])
        eta_log.append([n.eta for n in nodes])
        mode_log.append([n.mode for n in nodes])
        k_log.append([n.behavior_index for n in nodes])
        if rescue_state is not None:
            rescue_state.observe(world, nodes)
        if all(n.done for n in nodes):
            outcome = "done"
            break
    if outcome != "done" and any(
        ev["event"] == "qp_infeasible_hard" for ev in world.event_log
    ):
        outcome = "infeasible_hard"

    record = RunRecord(
        n=plan.n,
        dt=config.dt,
        outcome=outcome,
        ticks=len(controls_log),
        positions=np.array(positions_log),
        controls=np.array(controls_log),
        sigma=np.array(sigma_log),
        eta=np.array(eta_log),
        mode=np.array(mode_log, dtype=int),
        behavior_index=np.array(k_log, dtype=int),
        events=world.event_log,
        config=config,
        plan=plan,
    )
    return record


class _RescueTracker:
    """Watches the subject: located when any robot senses it, escorted when the
    escorting group's centroid carries it into the safe zone."""

    def __init__(self, plan):
        self.plan = plan
        self.located = False
        self.escorted = False

    def observe(self, world, nodes):
        r = self.plan.rescue
        if not self.located:
            # the subject is sensed like a robot: within the connectivity range
            robots = np.arange(1, self.plan.n + 1)
            h = Connectivity(robots, 0, self.plan.delta).value(world.positions, r.target)
            if np.any(h >= 0):
                self.located = True
                world.event_log.append(
                    {"tick": world.tick - 1, "event": "target_located", "robot": int(np.argmax(h)) + 1}
                )
        if self.located and not self.escorted:
            escorting = all(
                nodes[i - 1].behavior_index > r.escort_behavior
                or (
                    nodes[i - 1].behavior_index == r.escort_behavior
                    and nodes[i - 1].mode == EXECUTING
                )
                for i in r.escort_robots
            )
            if escorting:
                group = np.array([world.positions[i - 1] for i in r.escort_robots])
                centroid = group.mean(axis=0)
                if float(np.linalg.norm(centroid - np.asarray(r.safe_center))) <= r.safe_radius:
                    self.escorted = True
                    world.event_log.append(
                        {"tick": world.tick - 1, "event": "target_escorted"}
                    )


# --- post-run analysis ----------------------------------------------------------


def compute_behavior_windows(record):
    """Per-behavior timing extracted from the recorded per-robot stages.

    For behavior k (1-based):
      assembly_first: first tick any robot is assembling toward k
      assembly_all:   first tick every robot's stage is at least Assembling(k)
      exec_start:     first tick every robot's stage is at least Executing(k)
                      (the behavior's recorded team start)
      exec_end:       first tick some robot moves past Executing(k), or the
                      run's end for the final behavior
    Any entry is None if the run never reached it.
    """
    m = len(record.plan.behaviors)
    ranks = np.where(
        record.mode == EXECUTING, 2 * record.behavior_index, 2 * record.behavior_index - 1
    )
    min_rank = ranks.min(axis=1)
    max_rank = ranks.max(axis=1)
    windows = []
    for k in range(1, m + 1):
        asm, exc = 2 * k - 1, 2 * k
        first_asm = _first_tick(max_rank >= asm)
        all_asm = _first_tick(min_rank >= asm)
        exec_start = _first_tick(min_rank >= exc)
        past = _first_tick(min_rank > exc)
        exec_end = past if past is not None else (record.ticks if exec_start is not None else None)
        windows.append(
            {
                "k": k,
                "assembly_first": first_asm,
                "assembly_all": all_asm,
                "exec_start": exec_start,
                "exec_end": exec_end,
            }
        )
    return windows


def _first_tick(mask):
    idx = np.flatnonzero(mask)
    return int(idx[0]) if len(idx) else None


def connectivity_trace(record, edge):
    """Barrier value of one connectivity edge across the whole run."""
    i, j = edge
    pos = record.positions
    return Connectivity(i, j, record.plan.delta).value(pos[:, i - 1], pos[:, j - 1])


# --- serialization ----------------------------------------------------------------


def _per_tick(traces, positions):
    """Barrier traces over the run as a (ticks + 1, len(traces)) array."""
    return np.array(traces).reshape(len(traces), len(positions)).T


def write_outputs(record, outdir):
    """Write the CSV set and the event log; returns the file paths.

    trajectory.csv: tick,robot,x,y,ux,uy (position at tick start; the final
    row per robot carries tick=ticks with zero control).
    barriers.csv: tick,kind,a,b,h with kind conn (a,b robots; union of all
    required edges), coll (a,b robots currently in range), obst (a robot,
    b obstacle index of that robot's worst obstacle barrier).
    consensus.csv: tick,robot,sigma,eta,mode,k.
    events.jsonl: one JSON object per event.
    """
    import os

    os.makedirs(outdir, exist_ok=True)
    paths = {}

    # one string per tick, formatted from tolist() rows: repr of a Python float
    # is the text the CSV formats promise
    path = os.path.join(outdir, "trajectory.csv")
    controls = np.concatenate([record.controls, np.zeros((1, record.n, 2))])  # final row: 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tick,robot,x,y,ux,uy\n")
        for t, (xs, us) in enumerate(zip(record.positions, controls)):
            rows = enumerate(zip(xs.tolist(), us.tolist()), start=1)
            fh.write("".join(f"{t},{i},{x!r},{y!r},{ux!r},{uy!r}\n" for i, ((x, y), (ux, uy)) in rows))
    paths["trajectory"] = path

    path = os.path.join(outdir, "barriers.csv")
    plan = record.plan
    pos = record.positions
    edges = sorted({e for spec in plan.behaviors for e in spec.required_graph.edges})
    pairs = [(i, j) for i in range(1, record.n + 1) for j in range(i + 1, record.n + 1)]
    conn = _per_tick([connectivity_trace(record, e) for e in edges], pos)
    in_range = _per_tick(
        [Connectivity(i, j, plan.delta).value(pos[:, i - 1], pos[:, j - 1]) >= 0 for i, j in pairs],
        pos,
    )
    coll = _per_tick(
        [Collision(i, j, plan.min_sep).value(pos[:, i - 1], pos[:, j - 1]) for i, j in pairs], pos
    )
    # each robot's worst obstacle: the first one attaining the minimum
    worst = np.full(pos.shape[:2], np.inf)
    worst_m = np.zeros(pos.shape[:2], dtype=int)
    for m, o in enumerate(plan.domain.obstacles, start=1):
        for i in range(1, record.n + 1):
            h = ObstacleAvoid(i, o).value(pos[:, i - 1])
            better = h < worst[:, i - 1]
            worst[better, i - 1] = h[better]
            worst_m[better, i - 1] = m
    conn_keys = [f"conn,{i},{j}," for i, j in edges]
    coll_keys = [f"coll,{i},{j}," for i, j in pairs]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tick,kind,a,b,h\n")
        for t in range(record.ticks):
            lines = [f"{t},{key}{h!r}\n" for key, h in zip(conn_keys, conn[t].tolist())]
            lines += [
                f"{t},{key}{h!r}\n"
                for key, near, h in zip(coll_keys, in_range[t].tolist(), coll[t].tolist())
                if near
            ]
            if plan.domain.obstacles:
                lines += [
                    f"{t},obst,{i},{m},{h!r}\n"
                    for i, (m, h) in enumerate(zip(worst_m[t].tolist(), worst[t].tolist()), start=1)
                ]
            fh.write("".join(lines))
    paths["barriers"] = path

    path = os.path.join(outdir, "consensus.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tick,robot,sigma,eta,mode,k\n")
        for t in range(record.ticks):
            rows = enumerate(zip(record.sigma[t].tolist(), record.eta[t].tolist(),
                                 record.mode[t].tolist(), record.behavior_index[t].tolist()), start=1)
            fh.write("".join(f"{t},{i},{s!r},{e!r},{m},{k}\n" for i, (s, e, m, k) in rows))
    paths["consensus"] = path

    path = os.path.join(outdir, "events.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for ev in record.events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")
    paths["events"] = path
    return paths
