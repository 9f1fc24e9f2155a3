"""Mission plans: an ordered behavior sequence plus the world it runs in.

Mission files are YAML documents with four sections (``mission``, ``domain``,
``behaviors``, ``sim``) and an optional ``rescue`` section for scenarios that
track a subject to be escorted. The grammar is documented in the README and
the packaged scenario files are the reference examples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np
import yaml

from . import behaviors as bh
from .barriers import Collision, FcbfParams, KeepWithin, _yaml
from .geometry import Domain, InteractionGraph, Obstacle, _pairs
from .sim import DelaySpec, SimConfig


# libyaml's parser when PyYAML was built with it (about 7x faster on
# securing_a_building), else the pure-Python one; both build the same document
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class MissionFormatError(ValueError):
    """Unparseable or structurally invalid mission document."""


@dataclass(frozen=True)
class BehaviorSpec:
    """One step of the mission: controller, required graph, completion test."""

    controller: object
    required_graph: InteractionGraph
    completion: object
    initial_constraints: tuple = ()
    name: str = ""


@dataclass(frozen=True)
class RescueProbe:
    """Scenario bookkeeping for locate-and-escort missions (the ``[rescue]`` section)."""

    target: tuple = _yaml("vec")
    safe_center: tuple = _yaml("vec", "safe_zone.center")
    safe_radius: float = _yaml("num", "safe_zone.radius")
    escort_behavior: int = _yaml("int")  # 1-based index of the escorting behavior
    escort_robots: tuple = _yaml("ints")

    def __post_init__(self):
        if self.safe_radius <= 0:
            raise ValueError("rescue: safe-zone radius must be positive")


@dataclass(frozen=True)
class MissionPlan:
    n: int
    initial_positions: np.ndarray
    behaviors: tuple
    domain: Domain
    fcbf: FcbfParams
    delta: float
    min_sep: float
    rescue: RescueProbe | None = None

    def __post_init__(self):
        pos = np.asarray(self.initial_positions, dtype=float).reshape(self.n, 2)
        object.__setattr__(self, "initial_positions", pos)
        object.__setattr__(self, "behaviors", tuple(self.behaviors))


def validate(plan):
    """All structural violations of the plan; empty means runnable."""
    out = []
    if plan.n < 1:
        out.append("mission has no robots")
    if len(plan.behaviors) < 1:
        out.append("mission has no behaviors")
    if plan.min_sep <= 0:
        out.append("minimum separation must be positive")
    if plan.delta <= plan.min_sep:
        out.append(f"sensing range {plan.delta:g} must exceed minimum separation {plan.min_sep:g}")
    for idx, pos in enumerate(plan.initial_positions, start=1):
        if not plan.domain.contains(pos):
            out.append(f"initial position of robot {idx} lies outside the domain")
    x, (i, j) = plan.initial_positions, _pairs(plan.n)
    inside = plan.domain.obstacle_values(x) < 0
    out += [f"initial position of robot {r + 1} lies inside obstacle {k + 1}" for r, k in zip(*inside.nonzero())]
    close = Collision(i, j, plan.min_sep).value(x[i - 1] - x[j - 1]) <= 0
    out += [f"robots {a} and {b} start within the minimum separation" for a, b in zip(i[close], j[close])]
    for k, spec in enumerate(plan.behaviors, start=1):
        label = spec.name or f"behavior {k}"
        if spec.required_graph.n != plan.n:
            out.append(f"{label}: required graph has {spec.required_graph.n} vertices, not {plan.n}")
            continue
        for v in spec.controller.violations(spec.required_graph, range(1, plan.n + 1), plan.delta):
            out.append(f"{label}: {v}")
        for kind in spec.initial_constraints:
            if not (1 <= kind.i <= plan.n):
                out.append(f"{label}: initial constraint references robot {kind.i}")
    if plan.rescue is not None:
        r = plan.rescue
        if not (1 <= r.escort_behavior <= len(plan.behaviors)):
            out.append(f"rescue: escort behavior index {r.escort_behavior} out of range")
        bad = [i for i in r.escort_robots if not (1 <= i <= plan.n)]
        if bad:
            out.append(f"rescue: escort robots {bad} out of range")
        if not r.escort_robots:
            out.append("rescue: escort group is empty")
    return out


# --- document parsing ---------------------------------------------------------


def _req(section, key, where, default=None):
    """``section[key]``; a missing key is an error unless a default is given."""
    if not isinstance(section, dict):
        raise MissionFormatError(f"{where} must be a mapping, got {section!r}")
    if key not in section and default is None:
        raise MissionFormatError(f"missing '{key}' in {where}")
    return section.get(key, default)


_NOT_A_NUMBER = (TypeError, ValueError, OverflowError)


def _cast(raw, cast=float):
    """``cast(raw)``, refusing a non-finite number and, for an int, a fractional one."""
    value = cast(raw)
    if not math.isfinite(value) or value != float(raw):
        raise ValueError(f"not a finite {cast.__name__}: {raw!r}")
    return value


def _number(raw, key, where, cast=float):
    try:
        return _cast(raw, cast)
    except _NOT_A_NUMBER:
        raise MissionFormatError(f"'{key}' in {where} is not a finite {cast.__name__}: {raw!r}") from None


def _num(section, key, where, default=None, cast=float):
    return _number(_req(section, key, where, default), key, where, cast)


def _nums(raw, count, where, cast=float):
    """A list of ``count`` numbers (of any length when count is None)."""
    try:
        out = [_cast(v, cast) for v in raw]
        if count is None or len(out) == count:
            return out
    except _NOT_A_NUMBER:
        pass
    raise MissionFormatError(f"expected {count or 'a list of'} finite {cast.__name__}s in {where}, got {raw!r}")


_TYPE_NAMES = {list: "a list", dict: "a mapping", bool: "true or false"}


def _expect(raw, key, where, cls=list):
    """``raw``, the value of ``key``, if it is a ``cls`` (a list unless said)."""
    if not isinstance(raw, cls):
        raise MissionFormatError(f"'{key}' in {where} must be {_TYPE_NAMES[cls]}, got {raw!r}")
    return raw


def _edges(raw, where):
    try:
        return [(_cast(i, int), _cast(j, int)) for i, j in raw]
    except _NOT_A_NUMBER as exc:
        raise MissionFormatError(f"bad edge list in {where}: {exc}") from None


def _vec(raw, where):
    return tuple(_nums(raw, 2, f"{where} (a 2-vector)"))


def _distances(raw, key, where):
    triples = (_nums(t, 3, f"{where} {key}") for t in _expect(raw, key, where))
    return {tuple(_nums((i, j), 2, f"{where} {key}", int)): t for i, j, t in triples}


def _goals(raw, key, where):
    return {_number(i, key, where, int): _vec(g, where) for i, g in _expect(raw, key, where, dict).items()}


def _groups(raw, key, where):
    groups = []
    for gi, g in enumerate(_expect(raw, key, where)):
        gwhere = f"{where} group {gi}"
        groups.append(bh.CompositeGroup(robots=tuple(_nums(_req(g, "robots", gwhere), None, gwhere, int)),
                                        controller=_named(CONTROLLERS, "controller", "controller", g, gwhere),
                                        edges=tuple(_edges(g.get("edges", []), gwhere))))
    return tuple(groups)


def _delay(raw, key, where):
    if raw is None or raw == "none":
        return DelaySpec.none()
    return DelaySpec.uniform(*(_num(raw, k, f"{where} {key}", cast=int) for k in ("min", "max")))


def _group_doc(g):
    return {"robots": list(g.robots), "edges": [list(e) for e in g.edges], **_doc(g.controller, "controller")}


# converter kind of a field (its ``metadata["kind"]``) -> (parse(raw, key, where), dump(value))
_KINDS = {
    "num": (_number, lambda v: v),
    "int": (lambda raw, key, where: _number(raw, key, where, int), lambda v: v),
    "ints": (lambda raw, key, where: tuple(_nums(raw, None, where, int)), list),
    "flag": (lambda raw, key, where: _expect(raw, key, where, bool), bool),
    "vec": (lambda raw, key, where: _vec(raw, where), list),
    "delay": (_delay, lambda d: {"min": d.min_ticks, "max": d.max_ticks} if d.max_ticks else "none"),
    "distances": (_distances, lambda d: [[i, j, t] for (i, j), t in sorted(d.items())]),
    "bounds": (lambda raw, key, where: Domain(*_nums(raw, 4, where)), lambda d: [d.xmin, d.xmax, d.ymin, d.ymax]),
    "goals": (_goals, lambda goals: {i: list(g) for i, g in sorted(goals.items())}),
    "groups": (_groups, lambda groups: [_group_doc(g) for g in groups]),
}

# the YAML name of each controller, completion predicate and initial constraint -> its class
CONTROLLERS = {
    c.yaml: c
    for c in (
        bh.Rendezvous, bh.Scatter, bh.Formation, bh.LeaderFollower, bh.CyclicPursuit,
        bh.Lattice, bh.Coverage, bh.GoToGoal, bh.Containment, bh.Composite,
    )
}
COMPLETIONS = {c.yaml: c for c in (bh.ControlNormBelow, bh.ElapsedTime, bh.GoalReached)}
INITIAL_CONSTRAINTS = {KeepWithin.yaml: KeepWithin}


@functools.cache
def _schema(cls):
    """(field, (parse, dump), key path) of each field of ``cls`` with a YAML form."""
    return [(f, _KINDS[f.metadata["kind"]], (f.metadata["key"] or f.name).split("."))
            for f in fields(cls) if "kind" in f.metadata]


def _read(cls, doc, where):
    """An instance of ``cls``, each of its YAML fields read from ``doc`` by its
    kind's parser; a key left out keeps the field's default, and only a field
    without one must be given."""
    values = {}
    for f, (parse, _), (*path, key) in _schema(cls):
        section, at = doc, where
        for part in path:
            section, at = _req(section, part, at), f"{at} {part}"
        raw = _req(section, key, at, None if f.default is MISSING else MISSING)
        if raw is not MISSING:
            values[f.name] = parse(raw, key, at)
    return cls(**values)


def _write(obj):
    """The YAML mapping of ``obj``'s YAML fields, the inverse of ``_read``."""
    doc = {}
    for f, (_, dump), (*path, key) in _schema(type(obj)):
        section = doc
        for part in path:
            section = section.setdefault(part, {})
        section[key] = dump(getattr(obj, f.name))
    return doc


def _named(table, what, tag, doc, where):
    """The instance of the class ``table`` names under ``doc[tag]``, read from ``doc``."""
    name = _req(doc, tag, where)
    cls = table.get(name) if isinstance(name, str) else None
    if cls is None:
        raise MissionFormatError(f"unknown {what} '{name}' in {where}")
    return _read(cls, doc, where)


def _doc(obj, tag):
    """The YAML mapping of a named object, the inverse of ``_named``."""
    return {tag: obj.yaml, **_write(obj)}


def parse_mission(text):
    """Parse a mission document into (MissionPlan, SimConfig)."""
    try:
        doc = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise MissionFormatError(f"not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise MissionFormatError("mission document must be a mapping")

    mission = _req(doc, "mission", "document")
    n = _num(mission, "n", "[mission]", cast=int)
    delta = _num(mission, "delta", "[mission]")
    positions = _expect(_req(mission, "initial_positions", "[mission]"), "initial_positions", "[mission]")
    positions = [_vec(p, "[mission] initial_positions") for p in positions]
    if len(positions) != n:
        raise MissionFormatError(f"expected {n} initial positions, got {len(positions)}")

    dom_doc = _req(doc, "domain", "document")
    obstacles = tuple(
        Obstacle(
            center=np.asarray(_vec(_req(o, "center", "[domain] obstacle"), "[domain] obstacle")),
            a=_num(o, "a", "[domain] obstacle"),
            b=_num(o, "b", "[domain] obstacle"),
        )
        for o in _expect(_req(dom_doc, "obstacles", "[domain]", []), "obstacles", "[domain]")
    )
    domain = Domain(*_nums(_req(dom_doc, "bounds", "[domain]"), 4, "[domain] bounds"), obstacles)

    specs = []
    for bi, bdoc in enumerate(_expect(_req(doc, "behaviors", "document"), "behaviors", "document"), start=1):
        where = f"behavior {bi}"
        controller = _named(CONTROLLERS, "controller", "controller", bdoc, where)
        graph = InteractionGraph.from_edges(n, _edges(bdoc.get("graph", []), where))
        completion = _named(COMPLETIONS, "completion type", "type", _req(bdoc, "completion", where), where)
        init = tuple(
            _named(INITIAL_CONSTRAINTS, "initial constraint type", "type", c, f"{where} initial constraint")
            for c in _expect(bdoc.get("initial_constraints", []), "initial_constraints", where)
        )
        specs.append(
            BehaviorSpec(
                controller=controller,
                required_graph=graph,
                completion=completion,
                initial_constraints=init,
                name=str(bdoc.get("name", "")),
            )
        )

    plan = MissionPlan(
        n=n,
        initial_positions=np.asarray(positions),
        behaviors=tuple(specs),
        domain=domain,
        fcbf=_read(FcbfParams, mission, "[mission]"),
        delta=delta,
        min_sep=_num(mission, "min_sep", "[mission]", 0.12),
        rescue=_read(RescueProbe, doc["rescue"], "[rescue]") if "rescue" in doc else None,
    )

    sim_doc = doc.get("sim", {})
    if _num(sim_doc, "delta", "[sim]", delta) != delta:
        raise MissionFormatError(
            f"[sim] delta {sim_doc['delta']} differs from [mission] delta {delta:g}; "
            "the sensing range is set in [mission] only"
        )
    return plan, _read(SimConfig, sim_doc, "[sim]")


# --- document serialization ----------------------------------------------------


def serialize_mission(plan, config):
    """Serialize a plan and config back to the YAML document form."""
    doc = {
        "mission": {
            "n": plan.n,
            "delta": plan.delta,
            "min_sep": plan.min_sep,
            **_write(plan.fcbf),
            "initial_positions": [[float(x), float(y)] for x, y in plan.initial_positions],
        },
        "domain": {
            "bounds": [plan.domain.xmin, plan.domain.xmax, plan.domain.ymin, plan.domain.ymax],
            "obstacles": [
                {"center": [float(o.center[0]), float(o.center[1])], "a": o.a, "b": o.b}
                for o in plan.domain.obstacles
            ],
        },
        "behaviors": [],
        "sim": _write(config),
    }
    for spec in plan.behaviors:
        bdoc = {"name": spec.name} if spec.name else {}
        bdoc.update(_doc(spec.controller, "controller"))
        bdoc["graph"] = [list(e) for e in spec.required_graph.sorted_edges()]
        bdoc["completion"] = _doc(spec.completion, "type")
        if spec.initial_constraints:
            bdoc["initial_constraints"] = [_doc(c, "type") for c in spec.initial_constraints]
        doc["behaviors"].append(bdoc)
    if plan.rescue is not None:
        doc["rescue"] = _write(plan.rescue)
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=None)


def load_mission_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mission(fh.read())


def builtin_scenario(name):
    """Load one of the packaged scenarios by its stable CLI name."""
    from importlib import resources

    names = builtin_scenario_names()
    if name not in names:
        raise KeyError(f"unknown scenario '{name}'; available: {', '.join(names)}")
    text = resources.files("swarmseq.scenarios").joinpath(f"{name}.yaml").read_text()
    return parse_mission(text)


def builtin_scenario_names():
    return ("two_behavior_demo", "seven_behavior_energy", "securing_a_building")
