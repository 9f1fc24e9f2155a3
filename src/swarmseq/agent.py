"""Team node logic: message caches, completion consensus, mode machine, row requests.

The team is one ``Team`` of arrays, robot i + 1 at index i. A tick runs in
two phases. ``step`` advances every robot at once: it files the delivered
``Inbox`` in each robot's message cache, builds each robot's view of the
others, runs each controller class's nominal law and each behavior's
completion test once for all its robots, then updates the consensus and the
mode machine as array passes. It returns a
``TeamRequest``: every robot's nominal and the partner positions its QP rows
read, all from the robot's own row of the view and the cache, on the team's
``TickGraph``. The graph holds what the laws and the rows take from the
stage and the sensed and known masks (the index arrays, the missing
positions and the row plan), and the team rebuilds it only when one of the
three changes, which few ticks do. ``filter_team`` then builds every robot's
rows and, unless every nominal already satisfies its rows and the speed box,
solves every robot's QP in one pass.

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
from .barriers import Collision, Connectivity, ObstacleAvoid, PairStack, constraint_row
from .qp import QpProblem, RowLayout, quiet, solve

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
        message refreshed for more than ``staleness`` ticks expires."""
        sent = inbox.sent
        i, j = ((sent >= 0) & (~self.present | (self.send_tick <= sent))).nonzero()
        sent = sent[i, j]
        slot = sent % len(inbox.state)
        body = inbox.state[slot, j]
        self.position[i, j], self.sigma[i, j], self.eta[i, j] = body[:, :2], body[:, 2], body[:, 3]
        self.k[i, j], self.send_tick[i, j], self.receive_tick[i, j] = inbox.k[slot, j], sent, tick
        self.present[i, j] = True
        self.present &= tick - self.receive_tick <= staleness

    def view(self, positions, sensed, oracle):
        """(view, known): ``view[i, j]`` is robot i's best position of robot
        j, the sensed one, else the oracle's, else its cached message's, and
        ``known[i, j]`` whether it has one (never for j = i)."""
        seen = sensed | oracle
        known = seen | self.present
        np.fill_diagonal(known, False)
        return np.where(seen[..., None], positions, self.position), known

    def aligned(self, k, executing):
        """Each robot's consensus values of the others, relative to its own
        stage k: the cached sigma (while executing) or eta of a robot at the
        same index, 1 for one ahead, 0 for one behind or never heard."""
        mine = k[:, None]
        value = np.where(executing[:, None], self.sigma, self.eta)
        return np.where(self.present & (self.k == mine), value, self.present & (self.k > mine))


@dataclass
class Team:
    """Every robot's stage and consensus state, robot i + 1 at index i, and
    the robots' message caches. ``graphs[k]`` is behavior k's required graph
    as an adjacency mask; ``graphs[0]`` has no edges."""

    k: np.ndarray  # behavior index, past the last behavior once done
    mode: np.ndarray
    sigma: np.ndarray
    eta: np.ndarray
    s_task: np.ndarray
    s_assembly: np.ndarray
    elapsed: np.ndarray
    cache: Cache
    graphs: np.ndarray  # (behaviors + 1, n, n)
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
                   np.zeros(n, dtype=bool), np.zeros(n, dtype=bool), np.zeros(n), Cache.empty(n), graphs)

    @property
    def done(self):
        return self.k >= len(self.graphs)


@dataclass(eq=False)
class TickGraph:
    """What a tick's laws and rows read of the team's graph, fixed while the
    stage and the sensed and known masks are (``key``: the ``Stage`` object
    and the masks' bytes; None for a graph built by hand).

    Slot s is robot ``robots[s]`` (ids ascending; ``index`` holds them
    0-based). The laws read the view at the pairs (``laws``: rows, columns),
    and ``absent`` is the error for a required neighbor without a position,
    None if every one has one. Pairwise row k is robot ``pairs[0][k]``'s
    barrier with robot ``pairs[1][k]`` (0-based), of the robot at slot
    ``slots[k]``: first the ``conn`` connectivity rows, with ``deltas``, then
    the collision rows, each part ordered by slot and within a slot in the
    robot's row order. ``initial`` holds (slot, kind) for the active spec's
    initial constraints, in slot order, and ``missing`` the (robot, other)
    ids of the connectivity partners without a position, in event order.
    ``plan`` is the ``RowPlan`` of the last tick's rows.
    """

    key: tuple | None
    robots: np.ndarray
    index: np.ndarray
    laws: tuple
    absent: str | None
    pairs: tuple
    slots: np.ndarray
    conn: int
    deltas: np.ndarray
    initial: tuple
    missing: tuple
    plan: RowPlan | None = None

    @classmethod
    def of(cls, index, conn, coll, initial=(), laws=None, missing=(), absent=None, key=None):
        """The graph of the live robots ``index`` (0-based, ascending), with
        the connectivity rows ``conn`` (robots, partners, deltas) and the
        collision rows ``coll`` (robots, partners), 0-based."""
        (r, p, deltas), (cr, cp) = conn, coll
        pairs = np.concatenate((r, cr)), np.concatenate((p, cp))
        none = np.empty(0, dtype=int)
        return cls(key, index + 1, index, laws or (none, none), absent, pairs, index.searchsorted(pairs[0]), len(r),
                   deltas, tuple(initial), tuple(missing))


class TeamRequest(NamedTuple):
    """The team's QPs for this tick, before their rows are built.

    Slot s is robot ``robots[s]`` of the ``TickGraph`` at ``position[s]``,
    asking for the input nearest its ``nominal[s]``. ``seen[k]`` is the
    partner position of the graph's pairwise row k, as the robot sees it.
    """

    graph: TickGraph
    position: np.ndarray
    nominal: np.ndarray
    seen: np.ndarray

    @property
    def robots(self):
        return self.graph.robots


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
    (``knows``) ones its mask row marks, all within its composite group;
    ``partners`` are the pairs (rows, columns) when all are fixed. ``tasks``
    pairs each executed behavior's completion test with its robots.
    ``targets`` holds each assembling robot's required neighbors in the
    behavior it assembles (None when no robot assembles). ``conn`` gives the
    connectivity rows as (robots, partners, deltas), before the
    known-position filter, and ``initial`` the (slot, kind) pairs of the
    initial constraints; a slot indexes ``ids``.
    """

    key: tuple
    live: np.ndarray
    executing: np.ndarray
    assembling: np.ndarray
    ids: np.ndarray
    laws: list
    reads: np.ndarray
    in_range: np.ndarray
    knows: np.ndarray
    partners: tuple | None
    tasks: list
    targets: np.ndarray | None
    conn: tuple
    initial: tuple


def _stage(team, plan, config):
    """The team's ``Stage``, rebuilt only when some robot's k or mode changed."""
    key = (team.k.tobytes(), team.mode.tobytes())
    if team.stage is not None and team.stage.key == key:
        return team.stage
    specs, n, glue = plan.behaviors, plan.n, config.glue_transitions
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
    ids = live.nonzero()[0]
    delta = np.where(executing[r], plan.delta, plan.delta * ASSEMBLY_RANGE_FACTOR)
    initial = sorted(
        ((int(np.searchsorted(ids, kind.i - 1)), kind) for g in sorted(set(target.tolist()) - {0})
         for kind in specs[g - 1].initial_constraints if target[kind.i - 1] == g),
        key=lambda entry: entry[0],
    )
    targets = team.graphs[np.where(assembling, k, 0), robots] if assembling.any() else None
    fixed = None if in_range.any() or knows.any() else reads.nonzero()
    team.stage = Stage(key, live, executing, assembling, ids, laws, reads, in_range, knows, fixed, tasks, targets,
                       (r, p, delta), tuple(initial))
    return team.stage


def _tick_graph(team, stage, sensed, known):
    """The team's ``TickGraph`` for ``stage`` and the masks, rebuilt only when
    one of them changed."""
    graph, masks = team.tick_graph, (sensed.tobytes(), known.tobytes())
    if graph is not None and graph.key[0] is stage and graph.key[1:] == masks:
        return graph
    rows, cols = stage.partners or (stage.reads | sensed & stage.in_range | known & stage.knows).nonzero()
    absent = ~known[rows, cols]
    error = None
    if absent.any():
        i = rows[absent][0]
        error = (f"robot {i + 1}: no position available for required neighbors "
                 f"{(cols[absent & (rows == i)] + 1).tolist()}")
    r, p, delta = stage.conn
    ok = known[r, p]
    missing = zip((r[~ok] + 1).tolist(), (p[~ok] + 1).tolist())
    team.tick_graph = TickGraph.of(stage.ids, (r[ok], p[ok], delta[ok]), (sensed & stage.live[:, None]).nonzero(),
                                   stage.initial, (rows, cols), missing, error, (stage, *masks))
    return team.tick_graph


def step(team, world, inbox, plan, config):
    """Advance every robot by one tick.

    ``world`` is the tick's snapshot (``tick``, ``positions`` and the mask
    ``sensed``) and ``inbox`` the messages delivered on it. Returns (request,
    events): the ``TeamRequest`` of the robots not done and each robot's
    events in order, by robot id; each robot then broadcasts its snapshot
    position and its new sigma, eta and k. A robot's nominal law and
    completion test read its own row of the view and the cache, in ascending
    partner id order; each law and each completion test runs once for all its
    robots. The laws read the ``TickGraph`` of the stage the tick starts in,
    the rows that of the stage it ends in.
    """
    t, x, specs = world.tick, world.positions, plan.behaviors
    if len(team.graphs) != len(specs) + 1 or len(team.k) != plan.n:
        raise AgentError("the team was started for another plan")
    cache = team.cache
    cache.ingest(inbox, t, config.staleness_ticks)
    sensed = world.sensed
    view, known = cache.view(x, sensed, config.oracle_sensing)
    stage = _stage(team, plan, config)
    graph = _tick_graph(team, stage, sensed, known)
    if graph.absent is not None:
        raise AgentError(graph.absent)
    k, executing, assembling = team.k, stage.executing, stage.assembling
    rows, cols = graph.laws
    seen_at = view[rows, cols]
    nominal = np.zeros((plan.n, 2))
    for law in stage.laws:
        nominal[law.robots] = behaviors.nominal_control(law, x, rows, cols, seen_at)
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
        for i in (finish | start).nonzero()[0].tolist():
            robot, now = i + 1, int(k[i])
            if start[i]:
                events[robot] = [_switch(robot, "executing", now)]
            else:
                events[robot] = [
                    {"event": "behavior_complete_local", "robot": robot, "k": now - 1},
                    {"event": "mission_done_local", "robot": robot} if done[i] else _switch(robot, "assembling", now),
                ]
        graph = _tick_graph(team, _stage(team, plan, config), sensed, known)

    for robot, other in graph.missing:
        events.setdefault(robot, []).append({"event": "missing_position", "robot": robot, "other": other})
    if len(graph.index) < plan.n:
        x, nominal = x[graph.index], nominal[graph.index]
    r, p = graph.pairs
    return TeamRequest(graph, x, nominal, view[r, p]), events


class RowPlan(NamedTuple):
    """The structure of a team's rows, fixed while its ``TickGraph`` and its
    active (robot, obstacle) pairs are.

    ``calls`` holds one (barrier kind, robot slots, source) per
    ``constraint_row`` call: the graph's pairwise rows as one ``PairStack``
    (source ``pairs``), the active obstacle rows (``obst``), then each
    initial constraint (None). Each robot's rows come in the order of its
    own constraint set (connectivity, collision, obstacle, initial
    constraints). ``slots`` is every row's robot slot and ``flat`` its flat
    index in the layout, call by call, so a row's kind and other robot or
    obstacle in ``calls`` name the layout cell at ``flat``. ``template`` is
    a read-only layout with the pad rows and the hard mask, which only the
    plan builds. A plan serves the ticks whose activation mask has the bytes
    ``active`` (None without obstacles) and whose ``min_sep`` and obstacle
    ``stack`` are its own objects.
    """

    active: bytes | None
    min_sep: float
    stack: object
    calls: list
    slots: np.ndarray
    flat: np.ndarray
    template: RowLayout

    @classmethod
    def of(cls, graph, active, min_sep, stack):
        """The plan of a graph's rows whose activation mask is ``active``
        (None without obstacles)."""
        ids, p, m, slots = graph.robots, graph.pairs[1], graph.conn, graph.slots
        calls = []
        if len(slots):
            kinds = (Connectivity(ids[slots[:m]], p[:m] + 1, graph.deltas), Collision(ids[slots[m:]], p[m:] + 1, min_sep))
            calls.append((PairStack.of(kinds), slots, "pairs"))
        if active is not None and active.any():
            slot, m = active.nonzero()
            calls.append((ObstacleAvoid(ids[slot], stack, m + 1), slot, "obst"))
        calls += [(kind, s, None) for s, kind in graph.initial]
        counts = np.zeros(len(ids), dtype=int)
        cells = []  # (robot slots, columns) per call
        for _, slot, _ in calls:
            slot = np.atleast_1d(slot)
            # each robot's rows are one run in the call's order, after its earlier calls' rows
            order = slot.argsort(kind="stable")
            rank = np.empty(len(slot), dtype=int)
            rank[order] = np.arange(len(slot)) - slot[order].searchsorted(slot[order])
            cells.append((slot, counts[slot] + rank))
            counts += np.bincount(slot, minlength=len(counts))
        template = RowLayout.empty(ids.copy(), counts)
        for (slot, column), (kind, _, _) in zip(cells, calls):
            template.hard[slot, column] = kind.hard
        none = np.empty(0, dtype=int)
        slots, columns = (np.concatenate(c) for c in zip(*cells)) if cells else (none, none)
        flat = slots * template.offsets.shape[1] + columns
        for a in (slots, flat, template.robots, template.counts, template.normals, template.offsets, template.hard):
            a.flags.writeable = False
        return cls(None if active is None else active.tobytes(), min_sep, stack, calls, slots, flat, template)

    def fill(self, normals, offsets):
        """A fresh layout of the template with the rows of the plan's calls,
        flat in call order; the template is left as it is."""
        t = self.template
        layout = RowLayout(t.robots, t.counts, t.normals.copy(), t.offsets.copy(), t.hard)
        layout.normals.reshape(-1, 2)[self.flat] = normals
        layout.offsets.reshape(-1)[self.flat] = offsets
        return layout


def team_rows(request, params, min_sep, domain):
    """Every robot's QP rows, with the ``RowPlan`` that lays them out: returns
    (plan, normals (R, 2), offsets (R,)), row k a row of the robot at slot
    ``plan.slots[k]``; ``plan.fill(normals, offsets)`` is the solver's layout.

    Each ``constraint_row`` call of the plan builds the rows of one barrier
    kind for the whole team, the connectivity and collision rows one pairwise
    stack, and each row goes to its robot's layout row in the order of the
    robot's own constraint set (connectivity, collision, obstacle, initial
    constraints), bit for bit the row of the robot's own one-robot stack.
    Obstacle rows take the activation test's values, for the pairs inside its
    margin only. The request's ``TickGraph`` keeps the plan until the
    activation mask, ``min_sep`` or the obstacle stack changes.
    """
    graph, x = request.graph, request.position
    stack, active, near, key = None, None, None, None
    if domain.obstacles:
        # rows activate inside the doubled ellipse (h <= 3); farther obstacles
        # cannot be reached before their rows activate, so invariance holds
        stack = domain.obstacle_stack
        h = ObstacleAvoid(graph.robots[:, None], stack).value(x[:, None])
        active = h <= OBSTACLE_ACTIVATION
        near, key = h[active], active.tobytes()
    plan = graph.plan
    if plan is None or plan.active != key or plan.min_sep is not min_sep or plan.stack is not stack:
        plan = graph.plan = RowPlan.of(graph, active, min_sep, stack)
    blocks = []
    for kind, slot, source in plan.calls:
        positions = (x[slot], request.seen) if source == "pairs" else (x[slot],)
        h = near if source == "obst" else kind.value(*positions)
        blocks.append(constraint_row(kind, params, h, *positions))
    if not blocks:
        return plan, np.empty((0, 2)), np.empty(0)
    return plan, np.concatenate([b.normals for b in blocks]), np.concatenate([b.offsets for b in blocks])


def filter_team(request, params, min_sep, speed_limit, domain):
    """Every robot's QP of a ``TeamRequest``, built and solved in one pass;
    returns the team's ``QpSolution``, with one control and one status per slot.

    A tick on which every nominal satisfies its rows and the speed box is
    answered from the flat rows; only other ticks lay the rows out and solve."""
    plan, normals, offsets = team_rows(request, params, min_sep, domain)
    solution = quiet(request.nominal, plan.slots, normals, offsets, speed_limit, plan.template)
    if solution is None:
        solution = solve(QpProblem(request.nominal, plan.fill(normals, offsets), speed_limit))
    return solution
