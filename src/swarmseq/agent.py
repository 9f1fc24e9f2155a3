"""Team node logic: message caches, completion consensus, mode machine, row requests.

The team is one ``Team`` of arrays, robot i + 1 at index i, and so is every
array of a tick, from the cached graph to the QP: a robot that is done is a
robot without rows and with a zero nominal. A tick runs in two phases.
``step`` advances every robot at once: it files the delivered ``Inbox`` in
each robot's message cache, takes each robot's view of the others as masks
(which positions it sees, which it knows), runs each controller class's
nominal law and each behavior's completion test once for all its robots,
then updates the consensus and the mode machine as array passes. It returns
a ``TeamRequest``: every robot's nominal and the partner positions its QP
rows read, all from the robot's own row of the view and the cache, on the
team's ``TickGraph``: what the laws and rows take from the stage, the sensed
and known masks and the obstacle activation mask (the pairs where the tick
reads the view, the rows' ``RowStack`` and ``RowLayout``), rebuilt only when
one of the four changes, which few ticks do. A tick reads positions only at
those pairs, in one gather. ``filter_team`` then builds every robot's rows
and solves every robot's QP in one ``qp.solve`` call on them.

Each robot is either executing the behavior at its index k or assembling the
interaction graph for it. Two gated consensus variables drive the switches:
sigma aggregates task completion while executing, eta aggregates graph
readiness while assembling. Both follow the same multiplicative update

    value = flag * (sum of neighbor values + 1) / (neighbor count + 1)

so a single robot with a false flag pins itself to zero and suppresses the
whole network, while all-true flags drive every value to 1.

Mode timeline for behavior k:
  - Assembling(k): the just-concluded controller (k-1) stays nominal while
    connectivity rows cover the union of the old and new edge sets; eta
    crossing its threshold starts Executing(k).
  - Executing(k): behavior k's controller is nominal and rows cover its edge
    set; sigma crossing its threshold advances to Assembling(k+1), or ends
    the mission after the last behavior.

Robots at different indices exchange values safely: a neighbor that has
already advanced past my index counts as 1 in my consensus (its progress
certifies completion of my stage), one that lags counts as 0. Without this
alignment the reset-to-zero at each switch deadlocks sparse graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import behaviors
from .barriers import Collision, Connectivity, ObstacleAvoid, RowStack, constraint_row
from .qp import QpProblem, RowLayout, solve

EXECUTING = 0
ASSEMBLING = 1

# obstacle rows join the constraint set once the robot is inside the doubled
# ellipse; one Euler step at full speed cannot cross that margin
OBSTACLE_ACTIVATION = 3.0

# assembly drives edges to a slightly tightened range so they finish strictly
# inside the sensing radius: rows stop pulling at their own boundary, and an
# edge parked exactly at the range limit flickers in the assembled-edge test
ASSEMBLY_RANGE_FACTOR = 0.96


class AgentError(RuntimeError):
    """Team stepped against an inconsistent mission view."""


@dataclass(frozen=True)
class Inbox:
    """The messages delivered on a tick: ``sent[i, j]`` is the newest send
    tick s among robot j + 1's to robot i + 1 (-1 for none), whose position,
    sigma, eta are ``state[s % len(state), j]`` and k ``k[s % len(state), j]``.
    ``len`` counts the delivered (recipient, message) pairs, superseded ones too."""

    sent: np.ndarray  # (n, n) int
    state: np.ndarray  # (span, n, 4)
    k: np.ndarray  # (span, n) int
    size: int

    def __len__(self):
        return self.size


@dataclass
class Cache:
    """Every robot's newest message from each robot: entry [i, j] is what
    robot i + 1 last heard from robot j + 1, where ``present``. Robot i reads
    row i only."""

    position: np.ndarray  # (n, n, 2)
    sigma: np.ndarray
    eta: np.ndarray
    k: np.ndarray
    send_tick: np.ndarray
    receive_tick: np.ndarray
    present: np.ndarray

    @classmethod
    def empty(cls, n):
        ticks = np.zeros((n, n), dtype=int)
        return cls(np.zeros((n, n, 2)), np.zeros((n, n)), np.zeros((n, n)), ticks, ticks.copy(), ticks.copy(),
                   np.zeros((n, n), dtype=bool))

    def ingest(self, inbox, tick, staleness):
        """File the ``Inbox`` delivered on ``tick``: a message replaces the
        cached entry unless that one was sent later. Then every entry that no
        message refreshed for more than ``staleness`` ticks expires. The
        fresh cells are written through their flat indices, into views of the
        (contiguous) tables."""
        n, sent = len(self.present), inbox.sent
        cells = ((sent >= 0) & (~self.present | (self.send_tick <= sent))).ravel().nonzero()[0]
        sent = sent.take(cells)
        message = sent % len(inbox.state) * n + cells % n  # (send slot, sender), flat
        body = inbox.state.reshape(-1, 4).take(message, axis=0)
        self.position.reshape(-1, 2)[cells] = body[:, :2]
        self.sigma.reshape(-1)[cells], self.eta.reshape(-1)[cells] = body[:, 2], body[:, 3]
        self.k.reshape(-1)[cells], self.send_tick.reshape(-1)[cells] = inbox.k.take(message), sent
        self.receive_tick.reshape(-1)[cells], self.present.reshape(-1)[cells] = tick, True
        self.present &= tick - self.receive_tick <= staleness

    def view(self, positions, sensed, oracle):
        """Every robot's view of the others, as a ``View`` of masks:
        ``seen[i, j]`` when robot i sees robot j's position (sensed, or the
        oracle's) and ``known[i, j]`` when it has one at all, seen or cached
        (never for j = i). No table of positions is built: ``View.at`` reads
        the view at the pairs it is given."""
        seen = sensed | oracle
        known = seen | self.present
        np.fill_diagonal(known, False)
        return View(seen, known, positions, self.position)

    def aligned(self, k, executing):
        """Each robot's consensus values of the others, relative to its own
        stage k: the cached sigma (while executing) or eta of a robot at the
        same index, 1 for one ahead, 0 for one behind or never heard."""
        mine = k[:, None]
        value = np.where(executing[:, None], self.sigma, self.eta)
        return np.where(self.present & (self.k == mine), value, self.present & (self.k > mine))


class View(NamedTuple):
    """A ``Cache.view``: the ``seen`` and ``known`` masks and the positions
    they choose between, the team's ``positions`` and the ``cached`` ones."""

    seen: np.ndarray
    known: np.ndarray
    positions: np.ndarray
    cached: np.ndarray

    def at(self, cols, flat):
        """Robot i's best position of robot j at the pairs (i, j) = (flat //
        n, ``cols``), ``flat`` = i n + j: the seen one, else the cached one."""
        cached = self.cached.reshape(-1, 2).take(flat, axis=0)
        return np.where(self.seen.take(flat)[:, None], self.positions.take(cols, axis=0), cached)


@dataclass
class Team:
    """Every robot's stage and consensus state, robot i + 1 at index i, and
    the robots' message caches, for the mission ``plan`` it was started for.
    ``graphs[k]`` is behavior k's required graph as an adjacency mask;
    ``graphs[0]`` has no edges."""

    k: np.ndarray  # behavior index, past the last behavior once done
    mode: np.ndarray
    sigma: np.ndarray
    eta: np.ndarray
    s_task: np.ndarray
    s_assembly: np.ndarray
    elapsed: np.ndarray
    cache: Cache
    graphs: np.ndarray  # (behaviors + 1, n, n)
    plan: object
    stage: Stage | None = None  # of the robots' current stages
    tick_graph: TickGraph | None = None  # of the current stage and masks

    @classmethod
    def start(cls, plan):
        """Every robot assembling toward the first behavior, having heard nothing."""
        n = plan.n
        graphs = np.zeros((len(plan.behaviors) + 1, n, n), dtype=bool)
        for k, spec in enumerate(plan.behaviors, start=1):
            graphs[k] = spec.required_graph.mask
        return cls(np.ones(n, dtype=int), np.full(n, ASSEMBLING), np.zeros(n), np.zeros(n),
                   np.zeros(n, dtype=bool), np.zeros(n, dtype=bool), np.zeros(n), Cache.empty(n), graphs, plan)

    @property
    def done(self):
        return self.k >= len(self.graphs)


@dataclass(eq=False)
class TickGraph:
    """What a tick's laws and rows read of the team's graph, fixed while the
    stage, the sensed and known masks and the obstacle activation mask are
    (``key``: the ``Stage`` object and the masks' bytes).

    The laws read the view at the pairs ``laws`` (rows, columns), robot i +
    1 at index i; ``absent`` is the error for a required neighbor without a
    position, if any, and ``missing`` the (robot, other) ids of the
    connectivity partners without one, in event order. ``rows`` is the
    ``RowStack`` of every row: the pairwise rows (connectivity, then
    collision, each by robot and within a robot in its row order), the
    active obstacle rows, then each initial constraint. ``layout``, their
    ``RowLayout``, puts each robot's rows in the order of its own constraint
    set, robot i + 1 at slot i; a row's kind and other robot or obstacle in
    ``rows.kinds`` name its cell. ``reads`` holds the pairs where a tick
    reads the view, the law pairs and then the pairwise rows', as
    ``View.at`` takes them (columns, flat i n + j indices in a team of n),
    and ``fold`` the law pairs' ``behaviors.fold_index``.
    """

    key: tuple
    laws: tuple
    absent: str | None
    missing: tuple
    reads: tuple
    fold: tuple
    rows: RowStack
    layout: RowLayout

    @classmethod
    def of(cls, key, n, laws, conn, coll, active, initial, min_sep, stack, missing, absent):
        """The graph of a team of n: the connectivity rows ``conn`` (robots,
        partners, deltas) and collision rows ``coll`` (robots, partners),
        0-based, the rows of the obstacles of ``stack`` that the (robots,
        obstacles) mask ``active`` marks, and the kinds ``initial``."""
        (r, p, deltas), (cr, cp), (obst, o) = conn, coll, active.nonzero()
        kinds = [Connectivity(r + 1, p + 1, deltas), Collision(cr + 1, cp + 1, min_sep),
                 ObstacleAvoid(obst + 1, stack, o + 1), *initial]
        pairs = np.concatenate((r, cr)), np.concatenate((p, cp))
        robots, cols = (np.concatenate(a) for a in zip(laws, pairs))
        rows = RowStack.of(kinds)
        return cls(key, laws, absent, tuple(missing), (cols, robots * n + cols), behaviors.fold_index(laws[0]), rows,
                   RowLayout.of(rows.i - 1, rows.hard, n))


class TeamRequest(NamedTuple):
    """The team's QPs for this tick, before their rows are built: robot i +
    1 at ``position[i]``, asking for the input nearest its ``nominal[i]``,
    on the rows of the ``TickGraph``. ``seen[k]`` is the partner position of
    the graph's pairwise row k, as the robot sees it. A robot that is done
    has no rows and a zero nominal.
    """

    graph: TickGraph
    position: np.ndarray
    nominal: np.ndarray
    seen: np.ndarray


def consensus_update(own_flag, neighbor_values, neighbors):
    """Gated averaging step toward team agreement for every robot at once;
    results clamped to [0, 1].

    Robot i averages ``neighbor_values[i, j]`` over the robots j that
    ``neighbors[i]`` marks, plus a +1 bias. The sum is a left fold in
    ascending j (a cumulative sum), as Python's ``sum`` was up to 3.11. The
    map does not read the robot's own value: completion information enters
    through the flag and the +1 numerator bias and diffuses via the
    neighbors.
    """
    total = np.where(neighbors, neighbor_values, 0.0).cumsum(axis=1)[:, -1] + 1.0
    value = total / (neighbors.sum(axis=1) + 1.0)
    return np.where(own_flag, np.minimum(1.0, np.maximum(0.0, value)), 0.0)


def _switch(robot, mode, k):
    return {"event": "mode_switch", "robot": robot, "mode": mode, "k": k}


# the glue baseline's assembly law
_RENDEZVOUS = behaviors.Rendezvous()


class Stage(NamedTuple):
    """What the robots' stages (their k and mode) fix until one switches.

    A robot runs the leaf controller (composites resolved) of the behavior
    it executes or has just concluded, or the glue baseline's rendezvous;
    ``laws`` holds one ``behaviors.Law`` per controller class. The robots
    whose positions a robot's law reads are fixed (``reads``: its behavior's
    required neighbors) or else the sensed (``in_range``) or known
    (``knows``) ones its mask row marks, all within its composite group.
    ``tasks`` pairs each executed behavior's completion test with its
    robots. ``targets`` holds each assembling robot's required neighbors in
    the behavior it assembles (None when no robot assembles). ``conn`` gives
    the connectivity rows as (robots, partners, deltas), before the
    known-position filter, and ``initial`` the initial constraints' kinds,
    by robot.
    """

    key: tuple
    live: np.ndarray
    executing: np.ndarray
    assembling: np.ndarray
    laws: list
    reads: np.ndarray
    in_range: np.ndarray
    knows: np.ndarray
    tasks: list
    targets: np.ndarray | None
    conn: tuple
    initial: tuple


def _stage(team, config):
    """The team's ``Stage``, rebuilt only when some robot's k or mode changed."""
    key = (team.k.tobytes(), team.mode.tobytes())
    if team.stage is not None and team.stage.key == key:
        return team.stage
    plan, glue = team.plan, config.glue_transitions
    specs, n = plan.behaviors, plan.n
    k, robots = team.k, np.arange(n)
    live = ~team.done
    executing = live & (team.mode == EXECUTING)
    assembling = live & ~executing
    members = {}  # controller class -> [(robot, leaf controller)]
    reads, in_range, knows = (np.zeros((n, n), dtype=bool) for _ in range(3))
    ks, ex = k.tolist(), executing.tolist()
    for i in live.nonzero()[0].tolist():
        g = ks[i] if ex[i] else ks[i] - 1  # the behavior whose controller is nominal
        if glue and not ex[i]:
            leaf, group, kind = _RENDEZVOUS, None, behaviors.IN_RANGE
        elif g:
            leaf, group = specs[g - 1].controller.leaf(i + 1)
            kind = leaf.reads(i + 1)
        else:
            continue
        members.setdefault(type(leaf), []).append((i, leaf))
        peers = True if group is None else np.isin(robots, np.subtract(group, 1))
        if kind == behaviors.IN_RANGE:
            in_range[i] = peers
        elif kind == behaviors.KNOWN:
            knows[i] = peers
        else:
            reads[i] = team.graphs[g, i] & peers
    laws = [behaviors.Law.of(kind, found, reads) for kind, found in members.items()]
    tasks = [(specs[g - 1].completion.done, (executing & (k == g)).nonzero()[0])
             for g in sorted(set(k[executing].tolist()))]
    # connectivity partners: each robot adjacent to it in the active spec's
    # graph, by id, then (while assembling) in the concluded one's; the glue
    # baseline assembles by rendezvous, without transition rows
    ruled = executing if glue else live
    target = np.where(ruled, k, 0)
    first = team.graphs[target, robots]
    then = team.graphs[np.where(ruled & ~executing, k - 1, 0), robots] & ~first
    r, p = np.concatenate((first, then), axis=1).nonzero()
    p %= n
    delta = np.where(executing[r], plan.delta, plan.delta * ASSEMBLY_RANGE_FACTOR)
    initial = sorted((kind for g in sorted(set(target.tolist()) - {0})
                      for kind in specs[g - 1].initial_constraints if target[kind.i - 1] == g), key=lambda kind: kind.i)
    targets = team.graphs[np.where(assembling, k, 0), robots] if assembling.any() else None
    team.stage = Stage(key, live, executing, assembling, laws, reads, in_range, knows, tasks, targets,
                       (r, p, delta), tuple(initial))
    return team.stage


def _tick_graph(team, stage, sensed, known, active):
    """The team's ``TickGraph`` for ``stage``, the masks and the (robots,
    obstacles) activation mask ``active``, rebuilt only when one changed."""
    graph, masks = team.tick_graph, (sensed.tobytes(), known.tobytes(), active.tobytes())
    if graph is not None and graph.key[0] is stage and graph.key[1:] == masks:
        return graph
    rows, cols = (stage.reads | sensed & stage.in_range | known & stage.knows).nonzero()
    absent = ~known[rows, cols]
    error = None
    if absent.any():
        i = rows[absent][0]
        error = (f"robot {i + 1}: no position available for required neighbors "
                 f"{(cols[absent & (rows == i)] + 1).tolist()}")
    r, p, delta = stage.conn
    ok = known[r, p]
    missing = zip((r[~ok] + 1).tolist(), (p[~ok] + 1).tolist())
    live, plan = stage.live[:, None], team.plan
    team.tick_graph = TickGraph.of((stage, *masks), len(known), (rows, cols), (r[ok], p[ok], delta[ok]),
                                   (sensed & live).nonzero(), active & live, stage.initial, plan.min_sep,
                                   plan.domain.obstacle_stack, missing, error)
    return team.tick_graph


def step(team, world, inbox, config):
    """Advance every robot of the team, on its ``plan``, by one tick.

    ``world`` is the tick's snapshot (``tick``, ``positions`` and the mask
    ``sensed``) and ``inbox`` the messages delivered on it. Returns (request,
    events): the team's ``TeamRequest``, in which a robot that is done (also
    one that finished on this tick) has no rows and a zero nominal, and each
    robot's events in order, by robot id; each robot then broadcasts its
    snapshot position and its new sigma, eta and k. A robot's nominal law and
    completion test read its own row of the view and the cache, in ascending
    partner id order; each law and each completion test runs once for all its
    robots. The laws read the ``TickGraph`` of the stage the tick starts in,
    the rows that of the stage it ends in.
    """
    t, x, plan = world.tick, world.positions, team.plan
    cache = team.cache
    cache.ingest(inbox, t, config.staleness_ticks)
    sensed = world.sensed
    view = cache.view(x, sensed, config.oracle_sensing)
    active = np.zeros((plan.n, 0), dtype=bool)
    if plan.domain.obstacles:
        # rows activate inside the doubled ellipse (h <= 3); farther obstacles
        # cannot be reached before their rows activate, so invariance holds
        active = plan.domain.obstacle_values(x) <= OBSTACLE_ACTIVATION
    stage = _stage(team, config)
    graph = _tick_graph(team, stage, sensed, view.known, active)
    if graph.absent is not None:
        raise AgentError(graph.absent)
    k, executing, assembling = team.k, stage.executing, stage.assembling
    rows, cols = graph.laws
    seen = view.at(*graph.reads)
    seen_at = seen[:len(rows)]
    nominal = np.zeros((plan.n, 2))
    for law in stage.laws:
        nominal[law.robots] = behaviors.nominal_control(law, x, rows, cols, seen_at, graph.fold)
    if config.glue_transitions:
        # the glue baseline starts rendezvous only upon collective completion:
        # hold still while any visible neighbor is still on the previous
        # behavior, otherwise its task would be perturbed before it finishes
        behind = (sensed & ~(cache.present & (cache.k >= k[:, None]))).any(axis=1)
        nominal[assembling & behind] = 0.0
    for done, robots in stage.tasks:
        # completion latches for the rest of the behavior: teammates that
        # switch early may perturb the configuration, which must not revoke
        # an already-achieved completion and deadlock the consensus
        robots = robots[~team.s_task[robots]]
        if len(robots):
            team.s_task[robots] = done(nominal[robots], team.elapsed[robots], x[robots])

    if stage.targets is not None:
        ready = ~(stage.targets & ~sensed).any(axis=1)
        team.s_assembly = np.where(assembling, ready, team.s_assembly)
    value = consensus_update(np.where(executing, team.s_task, team.s_assembly), cache.aligned(k, executing), sensed)
    team.sigma = np.where(executing, value, team.sigma)
    team.eta = np.where(assembling, value, team.eta)
    team.elapsed = np.where(executing, team.elapsed + config.dt, team.elapsed)

    finish = executing & (team.sigma > config.sigma_bar)
    start = assembling & (team.eta > config.eta_bar)
    events = {}
    if finish.any() or start.any():
        team.k = k = k + finish
        done = team.done
        team.mode = np.where(finish & ~done, ASSEMBLING, np.where(start, EXECUTING, team.mode))
        team.sigma[finish] = team.eta[finish] = 0.0
        team.s_task[finish | start] = team.s_assembly[finish] = False
        team.elapsed[start] = 0.0
        nominal[finish & done] = 0.0  # a robot that is done stays put
        for i in (finish | start).nonzero()[0].tolist():
            robot, now = i + 1, int(k[i])
            if start[i]:
                events[robot] = [_switch(robot, "executing", now)]
            else:
                events[robot] = [
                    {"event": "behavior_complete_local", "robot": robot, "k": now - 1},
                    {"event": "mission_done_local", "robot": robot} if done[i] else _switch(robot, "assembling", now),
                ]
        graph = _tick_graph(team, _stage(team, config), sensed, view.known, active)
        seen = view.at(*graph.reads)

    for robot, other in graph.missing:
        events.setdefault(robot, []).append({"event": "missing_position", "robot": robot, "other": other})
    return TeamRequest(graph, x, nominal, seen[len(graph.laws[0]):]), events


def team_rows(request, params):
    """Every robot's QP rows, (normals (R, 2), offsets (R,)) in the order of
    the request's ``graph.rows``, row k a row of the robot at index
    ``graph.layout.slots[k]``: one ``constraint_row`` call, each row bit for
    bit the row of the robot's own one-robot stack of its kind. An obstacle
    row's h is the activation test's bit for bit, both the one barrier form
    at the same offset.
    """
    graph, x = request.graph, request.position
    p = np.concatenate((request.seen, graph.rows.center))
    block = constraint_row(graph.rows, params, x.take(graph.layout.slots, axis=0) - p)
    return block.normals, block.offsets


def filter_team(request, params, speed_limit):
    """Every robot's QP of a ``TeamRequest``, built and solved in one pass;
    returns the team's ``QpSolution``, with one control and one status per
    robot. ``solve`` takes the rows flat, on the graph's ``RowLayout``."""
    normals, offsets = team_rows(request, params)
    return solve(QpProblem(request.nominal, request.graph.layout, normals, offsets, speed_limit))
