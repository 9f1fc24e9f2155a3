"""Deterministic tick-based world: motion integration, sensing, delayed messages.

Every tick: deliver due messages, step the team against the tick's snapshot
(so robots are order-independent within a tick), filter every robot's nominal
input through its QP in one pass (a robot that is done asks for a zero input
under no rows), saturate controls, integrate positions with explicit Euler,
sense every pair's squared distance and range, and post the tick's broadcasts
into a ring of (n, n) arrays by send tick. Identical (mission, config, seed)
triples produce byte-identical outputs; a message's delay is a hash of (seed,
sender, tick), with no generator state, so scheduling order cannot perturb
it. The world draws the delays of up to ``DELAY_BLOCK`` ticks at once.
``run`` writes each tick's row of the record in place into arrays that double
when full, and the record's fields are views of their written rows, so a
run's memory tracks what it records. The rescue events are read from the
finished run's record."""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .agent import EXECUTING, Inbox, Team, filter_team, step
from .barriers import Collision, Connectivity, KeepWithin, _yaml
from .geometry import _pairs, proximity_graph

DELAY_BLOCK = 1024  # ticks whose delays are drawn at once


class SimConfigError(ValueError):
    """Configuration rejected before the run starts."""


@dataclass(frozen=True)
class DelaySpec:
    """Message delays drawn uniformly from min_ticks..max_ticks; (0, 0) is none."""

    min_ticks: int = 0
    max_ticks: int = 0

    def __post_init__(self):
        if self.min_ticks < 0 or self.max_ticks < self.min_ticks:
            raise SimConfigError("delay bounds must satisfy 0 <= min <= max")

    @classmethod
    def none(cls):
        return cls()

    @classmethod
    def uniform(cls, lo, hi):
        return cls(lo, hi)


@dataclass(frozen=True)
class SimConfig:
    """The ``[sim]`` section; each field's metadata gives its YAML converter
    kind (``mission`` holds the converters), and a key left out keeps the
    field's default. ``glue_transitions`` has no YAML form."""

    dt: float = _yaml("num", default=0.02)
    max_ticks: int = _yaml("int", default=20000)
    speed_limit: float = _yaml("num", default=0.2)
    delay: DelaySpec = _yaml("delay", default=DelaySpec())
    seed: int = _yaml("int", default=0)
    oracle_sensing: bool = _yaml("flag", default=True)
    sigma_bar: float = _yaml("num", default=0.8)
    eta_bar: float = _yaml("num", default=0.8)
    staleness_ticks: int = _yaml("int", default=50)
    glue_transitions: bool = False

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise SimConfigError("dt must be positive and finite")
        if not 0 < self.speed_limit < np.inf:
            raise SimConfigError("speed limit must be positive and finite")
        if self.max_ticks < 1:
            raise SimConfigError("max_ticks must be at least 1")
        # consensus values lie in [0, 1] and a robot moves on only when its
        # value exceeds the threshold, so a threshold of 1 or more never passes
        if not (0 <= self.sigma_bar < 1 and 0 <= self.eta_bar < 1):
            raise SimConfigError("sigma_bar and eta_bar must be in [0, 1)")
        if self.staleness_ticks < 0:
            raise SimConfigError("staleness_ticks must be non-negative")


class InFlight:
    """Broadcasts not yet delivered, in a ring: slot s % span holds tick s's,
    ``due[slot, i, j]`` the tick robot j + 1's message to robot i + 1 is due
    on (or -1), ``state`` and ``k`` what each robot broadcast. A message is due
    within max_delay + 1 ticks, or past the horizon, never, so span =
    min(max_delay, horizon) + 1 slots keep each message until it is due.
    ``len`` counts the undelivered (recipient, message) pairs."""

    def __init__(self, n, max_delay, horizon):
        span = min(max_delay, horizon) + 1
        self.due = np.full((span, n, n), -1)
        self.sent = np.full(span, -1)
        self.state = np.zeros((span, n, 4))
        self.k = np.zeros((span, n), dtype=int)

    def __len__(self):
        return np.count_nonzero(self.due >= 0)

    def post(self, t, delays, sensed, x, sigma, eta, k):
        """Queue every robot's broadcast of tick t: ``sensed[i, j]`` means
        robot j + 1's reaches robot i + 1, due at the start of tick t + 1 +
        the sender's entry of ``delays``."""
        s = t % len(self.sent)
        self.due[s] = np.where(sensed, t + 1 + delays, -1)
        self.sent[s] = t
        self.state[s, :, :2], self.state[s, :, 2], self.state[s, :, 3], self.k[s] = x, sigma, eta, k

    def pop(self, t):
        """The ``Inbox`` of the messages due on tick t."""
        hit = self.due == t
        self.due[hit] = -1
        return Inbox(np.where(hit, self.sent[:, None, None], -1).max(axis=0), self.state, self.k, np.count_nonzero(hit))


@dataclass
class WorldState:
    tick: int
    positions: np.ndarray  # (n, 2)
    sensed: np.ndarray  # (n, n) bool: the pairs in sensing range
    in_flight: InFlight
    event_log: list
    # the delays of the broadcasts of ticks delay_from, delay_from + 1, ...,
    # one row per tick and one column per sender
    delay_block: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=int))
    delay_from: int = 0


@dataclass
class RunRecord:
    """A finished run. The arrays are views of the first rows of the buffers
    ``run`` grew while it ran; their unwritten tail holds no memory."""

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


def _delay_ticks(config, senders, ticks):
    """The delays of the broadcasts by ``senders`` (uint64) on ``ticks`` (uint64,
    broadcasting against them: (B, 1) for B ticks), as an int array:
    SplitMix64's finalizer over the key ((seed * 1000003 + sender) * 1000003 +
    tick) mod 2**64, mod the span, from min_ticks. Each value's probability is
    within 2**-64 of 1 / span, a relative bias <= span / 2**64."""
    lo, hi = config.delay.min_ticks, config.delay.max_ticks
    # wraps mod 2**64; the operands are arrays, as numpy scalars warn on wrapping
    z = senders * 1000003 + (np.asarray(ticks, dtype="u8") + (config.seed * 1000003**2 & 0xFFFFFFFFFFFFFFFF))
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9
    z = (z ^ z >> 27) * 0x94D049BB133111EB
    return ((z ^ z >> 31) % (hi - lo + 1) + lo).astype(int)


def _delays(world, n, config):
    """The delays of the broadcasts of ``world.tick`` by robots 1..n, from the
    world's block, which is drawn anew for up to ``DELAY_BLOCK`` ticks, none
    at or past max_ticks, when the tick leaves it."""
    t = world.tick
    if not world.delay_from <= t < world.delay_from + len(world.delay_block):
        ticks = np.arange(t, min(t + DELAY_BLOCK, config.max_ticks), dtype="u8")[:, None]
        world.delay_block = _delay_ticks(config, np.arange(1, n + 1, dtype="u8"), ticks)
        world.delay_from = t
    return world.delay_block[t - world.delay_from]


def make_world(plan, config):
    positions = plan.initial_positions.copy()
    in_flight = InFlight(plan.n, config.delay.max_ticks, config.max_ticks)
    return WorldState(0, positions, proximity_graph(positions, plan.delta).mask, in_flight, [])


def tick(world, team, config):
    """Advance the world and the team, on ``team.plan``, by one tick, which
    must come before ``config.max_ticks``; returns applied controls."""
    t, x, sensed, plan = world.tick, world.positions, world.sensed, team.plan
    if t >= config.max_ticks:
        # the delays and the message ring cover the ticks before the cap only
        raise SimConfigError(f"tick {t} is at or past max_ticks ({config.max_ticks})")
    request, events = step(team, world, world.in_flight.pop(t), config)
    solution = filter_team(request, plan.fcbf, config.speed_limit)
    controls = solution.u
    for robot, status in enumerate(solution.statuses, 1):
        if status != "optimal":
            # each robot's QP event follows its own step events
            event = {"event": "qp_" + status, "robot": robot, "k": int(team.k[robot - 1])}
            events.setdefault(robot, []).append(event)
    for robot in sorted(events):
        for ev in events[robot]:
            ev["tick"] = t
            world.event_log.append(ev)

    np.clip(controls, -config.speed_limit, config.speed_limit, out=controls)
    world.positions = x + config.dt * controls
    world.sensed = proximity_graph(world.positions, plan.delta).mask
    # no draws under a zero delay: every draw on 0..0 is 0
    delays = _delays(world, plan.n, config) if config.delay.max_ticks else 0
    world.in_flight.post(t, delays, sensed, x, team.sigma, team.eta, team.k)
    world.tick = t + 1
    return controls


def run(plan, config):
    """Run the mission to completion, timeout, or hard infeasibility: the
    tick cap reached with some robot frozen (``qp_infeasible_hard``) on the
    final tick."""
    if plan.rescue is not None and not plan.rescue.escort_robots:
        raise SimConfigError("rescue: escort group is empty")
    team = Team.start(plan)
    world = make_world(plan, config)

    # each tick's positions (one row ahead: the start is row 0), controls,
    # sigma, eta, mode and k, written in place into arrays that double when
    # full; np.empty leaves a row's pages unused until it is written
    size = min(config.max_ticks, 1024)
    logs = [np.empty((size + 1, plan.n, 2)), np.empty((size, plan.n, 2))]
    logs += [np.empty((size, plan.n), dtype) for dtype in (float, float, int, int)]
    logs[0][0] = world.positions

    outcome = "timeout"
    while world.tick < config.max_ticks:
        t = world.tick
        controls = tick(world, team, config)
        if t == len(logs[1]):
            logs = [_doubled(log) for log in logs]
        logs[0][t + 1] = world.positions
        for log, now in zip(logs[1:], (controls, team.sigma, team.eta, team.mode, team.k)):
            log[t] = now
        if team.done.all():
            outcome = "done"
            break
    if outcome != "done" and any(  # a freeze that has ended leaves a timeout
        ev["event"] == "qp_infeasible_hard" and ev["tick"] == world.tick - 1 for ev in world.event_log
    ):
        outcome = "infeasible_hard"

    ticks = world.tick
    positions, controls, sigma, eta, mode, k = logs[0][:ticks + 1], *(log[:ticks] for log in logs[1:])
    record = RunRecord(n=plan.n, dt=config.dt, outcome=outcome, ticks=ticks, positions=positions,
                       controls=controls, sigma=sigma, eta=eta, mode=mode, behavior_index=k,
                       events=world.event_log, config=config, plan=plan)
    if plan.rescue is not None:
        _add_rescue_events(record)
    return record


def _doubled(log):
    """``log``'s rows at the start of an array twice as long, the rest unwritten."""
    grown = np.empty((2 * len(log), *log.shape[1:]), log.dtype)
    grown[:len(log)] = log
    return grown


def _add_rescue_events(record):
    """Insert the rescue events, each after its tick's events: the subject is
    located on the first tick to end with a robot (the nearest) in range of
    it, and escorted on the first tick from then on to end with the escorting
    group at or past executing the escort behavior, its centroid in the safe
    zone (the zone's keep-within barrier nonnegative)."""
    r, events, after = record.plan.rescue, record.events, record.positions[1:]
    kind = Connectivity(np.arange(1, record.n + 1), 0, record.plan.delta)
    t0 = _first_in_blocks(lambda t: (kind.value(after[t] - r.target) >= 0).any(axis=1), 0, record.ticks)
    if t0 is None:
        return
    found = [{"tick": t0, "event": "target_located", "robot": int(np.argmax(kind.value(after[t0] - r.target))) + 1}]
    group, zone = np.subtract(r.escort_robots, 1), KeepWithin(0, r.safe_center, r.safe_radius)

    def escorted(t):
        k, mode = record.behavior_index[t, group], record.mode[t, group]
        at = ((k > r.escort_behavior) | (k == r.escort_behavior) & (mode == EXECUTING)).all(axis=1)
        return at & (zone.value(after[t, group].mean(axis=1) - zone.center) >= 0)

    t = _first_in_blocks(escorted, t0, record.ticks)
    if t is not None:
        found.append({"tick": t, "event": "target_escorted"})
    ticks = [ev["tick"] for ev in events]
    for at, ev in enumerate(found):
        events.insert(bisect.bisect_right(ticks, ev["tick"]) + at, ev)


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
    ranks = np.where(record.mode == EXECUTING, 2 * record.behavior_index, 2 * record.behavior_index - 1)
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
        windows.append({"k": k, "assembly_first": first_asm, "assembly_all": all_asm, "exec_start": exec_start,
                        "exec_end": exec_end})
    return windows


def _first_tick(mask):
    idx = np.flatnonzero(mask)
    return int(idx[0]) if len(idx) else None


def _first_in_blocks(test, start, stop):
    """The first tick in [start, stop) at which ``test``, a mask over a slice
    of ticks, holds (None: none), tested 1024 ticks at a time so that a pass
    over a run adds little to its peak memory."""
    hits = (a + np.flatnonzero(test(slice(a, min(a + 1024, stop)))) for a in range(start, stop, 1024))
    return next((int(h[0]) for h in hits if len(h)), None)


# --- serialization ----------------------------------------------------------------


def write_outputs(record, outdir):
    """Write the CSV set and the event log; returns the file paths.

    trajectory.csv: tick,robot,x,y,ux,uy (position at tick start; the final
    row per robot carries tick=ticks with zero control).
    barriers.csv: tick,kind,a,b,h with kind conn (a,b robots; union of all
    required edges), coll (a,b robots currently in range), obst (a robot,
    b obstacle index of that robot's worst obstacle barrier); its tables are
    built per block of ticks, about 2**13 values each, never for the run.
    consensus.csv: tick,robot,sigma,eta,mode,k.
    events.jsonl: one JSON object per event.
    """
    import os

    os.makedirs(outdir, exist_ok=True)
    paths = {}

    # one string per tick, formatted from tolist() rows: repr of a Python float
    # is the text the CSV formats promise
    path = os.path.join(outdir, "trajectory.csv")
    controls = itertools.chain(record.controls, np.zeros((1, record.n, 2)))  # final row: 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tick,robot,x,y,ux,uy\n")
        for t, (xs, us) in enumerate(zip(record.positions, controls)):
            rows = enumerate(zip(xs.tolist(), us.tolist()), start=1)
            fh.write("".join(f"{t},{i},{x!r},{y!r},{ux!r},{uy!r}\n" for i, ((x, y), (ux, uy)) in rows))
    paths["trajectory"] = path

    path = os.path.join(outdir, "barriers.csv")
    plan = record.plan
    edges = sorted({e for spec in plan.behaviors for e in spec.required_graph.edges})
    a, b = np.array(edges, dtype=int).reshape(-1, 2).T
    pi, pj = _pairs(record.n)
    conn, near, coll = Connectivity(a, b, plan.delta), Connectivity(pi, pj, plan.delta), Collision(pi, pj, plan.min_sep)
    conn_keys = [f"conn,{i},{j}," for i, j in edges]
    coll_keys = [f"coll,{i},{j}," for i, j in zip(pi.tolist(), pj.tolist())]
    # the tables of a block of ticks at a time, about 2**13 values each, so
    # that no table spans the run
    step = max(1, 2**13 // (record.n * (record.n + len(plan.domain.obstacles))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tick,kind,a,b,h\n")
        for t0 in range(0, record.ticks, step):
            x = record.positions[t0:min(t0 + step, record.ticks)]
            d = x[:, pi - 1] - x[:, pj - 1]
            tables = [conn.value(x[:, a - 1] - x[:, b - 1]), near.value(d) >= 0, coll.value(d)]
            if plan.domain.obstacles:
                # each robot's worst obstacle, the first one attaining the minimum
                h = plan.domain.obstacle_values(x)
                m = h.argmin(axis=-1)[..., None]
                tables += [m[..., 0] + 1, np.take_along_axis(h, m, axis=-1)[..., 0]]
            for t, rows in enumerate(zip(*(table.tolist() for table in tables)), start=t0):
                lines = [f"{t},{key}{h!r}\n" for key, h in zip(conn_keys, rows[0])]
                lines += [f"{t},{key}{h!r}\n" for key, hit, h in zip(coll_keys, rows[1], rows[2]) if hit]
                lines += [f"{t},obst,{i},{m},{h!r}\n" for i, (m, h) in enumerate(zip(*rows[3:]), start=1)]
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
