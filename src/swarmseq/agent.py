"""Per-robot node logic: mode machine, completion consensus, constraint assembly.

A tick runs in two phases. ``step`` advances one robot: it ingests its inbox,
updates its consensus, computes its nominal input, runs the mode machine and
leaves on the node a ``RowRequest``: the nominal and everything its QP rows
are built from, all taken from the robot's own local view. ``filter_team``
then builds every robot's rows and solves every robot's QP in one pass.

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

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import behaviors
from .barriers import Collision, Connectivity, ObstacleAvoid, RowBlock, constraint_row
from .geometry import Obstacle, RobotState
from .qp import QpProblem, solve

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
    """Node stepped against an inconsistent mission view."""


@dataclass(frozen=True)
class AgentMessage:
    """The only inter-robot wire type."""

    sender: int
    position: tuple
    sigma: float
    eta: float
    behavior_index: int

    def __post_init__(self):
        object.__setattr__(self, "position", (float(self.position[0]), float(self.position[1])))


@dataclass(frozen=True)
class Delivery:
    """Inbox envelope: the message plus the tick it was sent on."""

    send_tick: int
    message: AgentMessage


@dataclass
class CacheEntry:
    message: AgentMessage
    send_tick: int
    received_tick: int


@dataclass
class AgentNode:
    id: int
    n_behaviors: int
    mode: int = ASSEMBLING
    behavior_index: int = 1
    sigma: float = 0.0
    eta: float = 0.0
    s_task: bool = False
    s_assembly: bool = False
    elapsed: float = 0.0
    neighbor_cache: dict = field(default_factory=dict)
    request: RowRequest | None = None  # of the last step; None once done

    @property
    def done(self):
        return self.behavior_index > self.n_behaviors


class RowRequest(NamedTuple):
    """One robot's QP for this tick, before its rows are built.

    Every position is the robot's own view of a partner (sensed, oracle or
    cached message; see ``_lookup_position``).
    """

    robot: int
    position: np.ndarray  # its own
    nominal: np.ndarray  # u_hat, the input the filter perturbs minimally
    delta: float  # the range its connectivity rows drive partners into
    partners: list  # connectivity partners with a known position, in row order
    partner_positions: list
    colliders: list  # sensed robots, ascending
    collider_positions: list
    initial: tuple  # the active spec's initial-constraint kinds on this robot


@dataclass(frozen=True)
class StepEnv:
    """Everything a node can observe this tick besides its own state."""

    tick: int
    live_neighbors: frozenset  # ids currently within sensing range
    sensed: dict  # id -> position, for robots in range
    oracle: dict | None  # id -> position for all robots, None when oracle off
    params: object  # FcbfParams
    delta: float
    min_sep: float
    speed_limit: float
    domain: object  # Domain: its obstacles are known to every robot
    sigma_bar: float = 0.8
    eta_bar: float = 0.8
    staleness_ticks: int = 50
    # comparison baseline: assemble graphs by running rendezvous on the live
    # graph instead of minimally invasive connectivity rows
    glue_transitions: bool = False


def consensus_update(own_flag, own_value, neighbor_values):
    """Gated averaging step toward team agreement; result clamped to [0, 1].

    ``own_value`` is part of the update contract but the map itself depends
    only on the flag and the neighbors: completion information enters through
    the +1 numerator bias and diffuses via the neighbors.
    """
    del own_value
    if not own_flag:
        return 0.0
    total = sum(neighbor_values) + 1.0
    value = total / (len(neighbor_values) + 1.0)
    return min(1.0, max(0.0, value))


def _aligned_values(node, env, attr):
    """Neighbor consensus values re-expressed relative to this node's stage."""
    vals = []
    for j in sorted(env.live_neighbors):
        entry = node.neighbor_cache.get(j)
        if entry is None:
            vals.append(0.0)
        elif entry.message.behavior_index > node.behavior_index:
            vals.append(1.0)
        elif entry.message.behavior_index < node.behavior_index:
            vals.append(0.0)
        else:
            vals.append(getattr(entry.message, attr))
    return vals


def _ingest(node, inbox, tick, staleness):
    for d in sorted(inbox, key=lambda d: (d.message.sender, d.send_tick)):
        msg = d.message
        prev = node.neighbor_cache.get(msg.sender)
        if prev is not None and prev.send_tick > d.send_tick:
            continue
        node.neighbor_cache[msg.sender] = CacheEntry(msg, d.send_tick, tick)
    expired = [j for j, e in node.neighbor_cache.items() if tick - e.received_tick > staleness]
    for j in expired:
        del node.neighbor_cache[j]


def _lookup_position(node, env, j):
    """Best available position of robot j: sensed, then oracle, then cache."""
    if j in env.sensed:
        return env.sensed[j]
    if env.oracle is not None and j in env.oracle:
        return env.oracle[j]
    entry = node.neighbor_cache.get(j)
    if entry is not None:
        return np.asarray(entry.message.position)
    return None


def _known_states(node, env, exclude):
    out = []
    ids = set(env.sensed)
    if env.oracle is not None:
        ids |= set(env.oracle)
    ids |= set(node.neighbor_cache)
    for j in sorted(ids):
        if j == exclude:
            continue
        pos = _lookup_position(node, env, j)
        if pos is not None:
            out.append(RobotState(j, pos))
    return out


def _controller_inputs(node, my_state, spec, env):
    """Neighbor states and required ids for the given behavior's controller."""
    controller = spec.controller
    if isinstance(controller, behaviors.Composite):
        group = controller.group_of(node.id)
        inner = group.controller
    else:
        inner = controller
    if isinstance(inner, behaviors.Lattice):
        states = [
            RobotState(j, env.sensed[j]) for j in sorted(env.live_neighbors) if j in env.sensed
        ]
        return states, []
    if isinstance(inner, behaviors.Coverage):
        return _known_states(node, env, exclude=node.id), []
    required = sorted(spec.required_graph.neighbors(node.id))
    states = []
    missing = []
    for j in required:
        pos = _lookup_position(node, env, j)
        if pos is None:
            missing.append(j)
        else:
            states.append(RobotState(j, pos))
    if missing:
        raise AgentError(f"robot {node.id}: no position available for required neighbors {missing}")
    return states, required


def _nominal(node, my_state, spec, env):
    if spec is None:
        return np.zeros(2)
    states, required = _controller_inputs(node, my_state, spec, env)
    return behaviors.nominal_control(spec.controller, node.id, my_state, states, required)


def _row_request(node, x, u_hat, graphs, spec, env, events, delta):
    """The robot's row request: a connectivity partner per robot adjacent to
    it in ``graphs`` whose position is known, in graph order, then by id;
    every sensed robot as a collision partner; its initial constraints."""
    partners = []
    partner_positions = []
    seen = set()
    for graph in graphs:
        for j in sorted(graph.neighbors(node.id)):
            if j in seen:
                continue
            seen.add(j)
            pos = _lookup_position(node, env, j)
            if pos is None:
                events.append(
                    {"event": "missing_position", "robot": node.id, "other": j}
                )
                continue
            partners.append(j)
            partner_positions.append(pos)
    sensed = env.sensed
    colliders = [j for j in sorted(env.live_neighbors) if j in sensed]
    initial = () if spec is None else tuple(
        kind for kind in spec.initial_constraints if kind.i == node.id
    )
    return RowRequest(
        node.id, x, u_hat, delta, partners, partner_positions,
        colliders, [sensed[j] for j in colliders], initial,
    )


def _flatten(requests, ids, positions):
    """(request index, partner id, partner position) of every partner listed
    in the requests' ``ids`` and ``positions`` fields, request by request."""
    slot = [s for s, r in enumerate(requests) for _ in getattr(r, ids)]
    others = [j for r in requests for j in getattr(r, ids)]
    where = [p for r in requests for p in getattr(r, positions)]
    return np.array(slot, dtype=int), np.array(others, dtype=int), np.array(where)


def team_rows(requests, params, min_sep, domain):
    """Every request's QP rows as one block, kind by kind.

    Each barrier kind is one ``constraint_row`` call for the whole team. A
    robot's rows keep the order of its own constraint set (connectivity,
    collision, obstacle, initial constraints), and each equals, bit for bit,
    the row of the robot's own one-robot stack.
    """
    ids = np.array([r.robot for r in requests])
    x = np.array([r.position for r in requests])
    blocks = []
    slot, others, where = _flatten(requests, "partners", "partner_positions")
    if len(slot):
        delta = np.array([requests[s].delta for s in slot.tolist()])
        kind = Connectivity(ids[slot], others, delta)
        blocks.append(constraint_row(kind, params, x[slot], where))
    slot, others, where = _flatten(requests, "colliders", "collider_positions")
    if len(slot):
        kind = Collision(ids[slot], others, min_sep)
        blocks.append(constraint_row(kind, params, x[slot], where))
    if domain.obstacles:
        # rows activate inside the doubled ellipse (h <= 3); farther obstacles
        # cannot be reached before their rows activate, so invariance holds
        stack = domain.obstacle_stack
        h = ObstacleAvoid(ids[:, None], stack).value(x[:, None])
        slot, m = np.nonzero(h <= OBSTACLE_ACTIVATION)
        if len(slot):
            near = Obstacle(stack.center[m], stack.a[m], stack.b[m])
            block = constraint_row(ObstacleAvoid(ids[slot], near), params, x[slot])
            blocks.append(replace(block, others=m + 1))  # the index in the domain's stack
    for s, r in enumerate(requests):
        blocks += [constraint_row(kind, params, x[s]) for kind in r.initial]
    return RowBlock.team(blocks)


def filter_team(requests, params, min_sep, speed_limit, domain):
    """Every request's QP, built and solved in one pass for the whole team.

    ``requests`` come in ascending robot order; returns the team's
    ``QpSolution``, with one control and one status per request.
    """
    problem = QpProblem(
        np.array([r.nominal for r in requests]),
        team_rows(requests, params, min_sep, domain),
        speed_limit,
        robots=tuple(r.robot for r in requests),
    )
    return solve(problem)


def step(node, my_state, inbox, behavior, next_behavior, env, dt):
    """Advance one robot by one tick.

    ``behavior`` is the spec whose controller is nominal right now (the
    active one while executing, the just-concluded one while assembling,
    None during the initial assembly), ``next_behavior`` the upcoming spec
    (None when none remains). Returns (node, nominal, outbox, events) and
    leaves the robot's row request on ``node.request``, for ``filter_team``
    to turn into its control. A robot that is done asks for nothing and
    returns a zero nominal.
    """
    events = []
    _ingest(node, inbox, env.tick, env.staleness_ticks)

    if node.done:
        outbox = AgentMessage(
            sender=node.id,
            position=tuple(my_state.position),
            sigma=node.sigma,
            eta=node.eta,
            behavior_index=node.behavior_index,
        )
        node.request = None
        return node, np.zeros(2), outbox, events

    if env.glue_transitions and node.mode == ASSEMBLING:
        # the glue baseline starts rendezvous only upon collective completion:
        # hold still while any visible neighbor is still on the previous
        # behavior, otherwise its task would be perturbed before it finishes
        behind = False
        for j in env.live_neighbors:
            entry = node.neighbor_cache.get(j)
            if entry is None or entry.message.behavior_index < node.behavior_index:
                behind = True
                break
        if behind:
            u_hat = np.zeros(2)
        else:
            live = [
                RobotState(j, env.sensed[j])
                for j in sorted(env.live_neighbors)
                if j in env.sensed
            ]
            u_hat = behaviors.nominal_control(
                behaviors.Rendezvous(), node.id, my_state, live, [s.id for s in live]
            )
    else:
        u_hat = _nominal(node, my_state, behavior, env)

    switched_to_executing = False
    if node.mode == EXECUTING:
        if behavior is None:
            raise AgentError(f"robot {node.id}: executing with no behavior spec")
        # completion latches for the rest of the behavior: teammates that
        # switch early may perturb the configuration, which must not revoke
        # an already-achieved completion and deadlock the consensus
        node.s_task = node.s_task or behaviors.is_complete(
            behavior.completion, u_hat, node.elapsed, my_state
        )
        node.sigma = consensus_update(
            node.s_task, node.sigma, _aligned_values(node, env, "sigma")
        )
        node.elapsed += dt
        if node.sigma > env.sigma_bar:
            events.append(
                {"event": "behavior_complete_local", "robot": node.id, "k": node.behavior_index}
            )
            node.behavior_index += 1
            node.sigma = 0.0
            node.eta = 0.0
            node.s_task = False
            node.s_assembly = False
            if node.done:
                events.append({"event": "mission_done_local", "robot": node.id})
            else:
                node.mode = ASSEMBLING
                events.append(
                    {
                        "event": "mode_switch",
                        "robot": node.id,
                        "mode": "assembling",
                        "k": node.behavior_index,
                    }
                )
    else:
        if next_behavior is None:
            raise AgentError(f"robot {node.id}: assembling with no target behavior")
        required = next_behavior.required_graph.neighbors(node.id)
        node.s_assembly = all(j in env.live_neighbors for j in required)
        node.eta = consensus_update(
            node.s_assembly, node.eta, _aligned_values(node, env, "eta")
        )
        if node.eta > env.eta_bar:
            node.mode = EXECUTING
            node.s_task = False
            node.elapsed = 0.0
            switched_to_executing = True
            events.append(
                {
                    "event": "mode_switch",
                    "robot": node.id,
                    "mode": "executing",
                    "k": node.behavior_index,
                }
            )

    outbox = AgentMessage(
        sender=node.id,
        position=tuple(my_state.position),
        sigma=node.sigma,
        eta=node.eta,
        behavior_index=node.behavior_index,
    )
    if node.done:
        node.request = None
        return node, np.zeros(2), outbox, events

    row_delta = env.delta
    if node.mode == EXECUTING:
        active = next_behavior if switched_to_executing else behavior
        graphs = [active.required_graph]
        constraint_spec = active
    elif env.glue_transitions:
        # glue baseline: rendezvous does the assembling, no transition rows
        graphs = []
        constraint_spec = None
    else:
        graphs = [next_behavior.required_graph]
        if behavior is not None:
            graphs.append(behavior.required_graph)
        constraint_spec = next_behavior
        row_delta = env.delta * ASSEMBLY_RANGE_FACTOR
    node.request = _row_request(
        node, my_state.position, u_hat, graphs, constraint_spec, env, events, row_delta
    )
    return node, u_hat, outbox, events
