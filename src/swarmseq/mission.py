"""Mission plans: an ordered behavior sequence plus the world it runs in.

Mission files are YAML documents with four sections (``mission``, ``domain``,
``behaviors``, ``sim``) and an optional ``rescue`` section for scenarios that
track a subject to be escorted. The grammar is documented in the README and
the packaged scenario files are the reference examples. The document's shape
is the field metadata of ``MissionPlan``, ``SimConfig`` and the types they
hold, which ``_read`` and ``_write`` walk.
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

    controller: object = _yaml("controller", "")
    required_graph: InteractionGraph = _yaml("graph", "")
    completion: object = _yaml("completion")
    initial_constraints: tuple = _yaml("constraints", default=())
    name: str = _yaml("name", default="")


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
    """The whole document but ``[sim]``: each field's metadata gives its YAML
    converter kind and key path (``_read``/``_write``)."""

    n: int = _yaml("int", "mission.n")
    initial_positions: np.ndarray = _yaml("vecs", "mission.initial_positions")
    behaviors: tuple = _yaml("behaviors")
    domain: Domain = _yaml("domain", "domain.")
    fcbf: FcbfParams = _yaml("fcbf", "mission.")
    delta: float = _yaml("num", "mission.delta")
    min_sep: float = _yaml("num", "mission.min_sep", default=0.12)
    rescue: RescueProbe | None = _yaml("rescue", default=None)

    def __post_init__(self):
        pos = np.asarray(self.initial_positions, dtype=float)
        if len(pos) != self.n:
            raise MissionFormatError(f"expected {self.n} initial positions, got {len(pos)}")
        object.__setattr__(self, "initial_positions", pos.reshape(self.n, 2))
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


# --- the document's schema ----------------------------------------------------


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


def _number(raw, key, where, cast=float, **_):
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


def _edges(raw, key, where, **_):
    try:
        return [(_cast(i, int), _cast(j, int)) for i, j in raw]
    except _NOT_A_NUMBER as exc:
        raise MissionFormatError(f"bad edge list in {where}: {exc}") from None


def _vec(raw, key, where, **_):
    return tuple(_nums(raw, 2, f"{where} (a 2-vector)"))


def _once(items, what, key, where):
    """The mapping of (key, value) ``items``, refusing a key given twice."""
    out = {}
    for k, value in items:
        if k in out:
            raise MissionFormatError(f"'{key}' in {where} gives {what} {k} twice")
        out[k] = value
    return out


def _distances(raw, key, where, **_):
    triples = (_nums(t, 3, f"{where} {key}") for t in _expect(raw, key, where))
    edges = [(tuple(sorted(_nums((i, j), 2, f"{where} {key}", int))), t) for i, j, t in triples]
    return _once(edges, "edge", key, where)


def _goals(raw, key, where, **_):
    items = _expect(raw, key, where, dict).items()
    return _once([(_number(i, key, where, int), _vec(g, key, where)) for i, g in items], "robot", key, where)


def _delay(raw, key, where, **_):
    if raw is None or raw == "none":
        return DelaySpec.none()
    return DelaySpec.uniform(*(_num(raw, k, f"{where} {key}", cast=int) for k in ("min", "max")))


def _domain(raw, key, where, **_):
    """A ``[domain]``: the four bounds, one YAML list, and the obstacles."""
    obstacles = _OBSTACLES[0](_req(raw, "obstacles", where, []), "obstacles", where)
    return Domain(*_nums(_req(raw, "bounds", where), 4, f"{where} bounds"), obstacles)


def _object(cls):
    """The parser of an instance of ``cls``, read from the mapping where it sits."""
    return lambda raw, key, where, **ctx: _read(cls, raw, where, **ctx)


def _named(table, what, tag):
    """The (parse, dump) of an object whose class ``table`` names under its key ``tag``."""

    def parse(raw, key, where, **_):
        name = _req(raw, tag, where)
        cls = table.get(name) if isinstance(name, str) else None
        if cls is None:
            raise MissionFormatError(f"unknown {what} '{name}' in {where}")
        return _read(cls, raw, where)

    return parse, lambda obj: {tag: obj.yaml, **_write(obj)}


def _each(kind, place, optional=False):
    """The (parse, dump) of a YAML list of ``kind``'s values, item k (from 0)
    read at ``place(where, key, k)``; an ``optional`` list left empty is left out."""
    parse, dump = kind
    return (lambda raw, key, where, **ctx: tuple([parse(item, key, place(where, key, k), **ctx)
                                                  for k, item in enumerate(_expect(raw, key, where))]),
            lambda items: [dump(item) for item in items] or (None if optional else []))


def _vec_doc(v):
    # Python floats: an obstacle's center is an array
    return [float(v[0]), float(v[1])]


@functools.cache
def _schema(cls):
    """(field, (parse, dump), key path) of each field of ``cls`` with a YAML form."""
    return [(f, _KINDS[f.metadata["kind"]], (f.name if f.metadata["key"] is None else f.metadata["key"]).split("."))
            for f in fields(cls) if "kind" in f.metadata]


def _read(cls, doc, where, **ctx):
    """An instance of ``cls``, each of its YAML fields read from ``doc`` by its
    kind's parser, which is handed ``ctx`` (every behavior's graph is built on
    the mission's ``n``). An empty last key reads the enclosing mapping itself;
    a key left out keeps the field's default, and only a field without one
    must be given."""
    values = {}
    for f, (parse, _), (*path, key) in _schema(cls):
        section, at = doc, where
        for part in path:
            # a top-level section is [section] in error text
            section, at = _req(section, part, at), f"[{part}]" if at == "document" else f"{at} {part}"
        raw = _req(section, key, at, None if f.default is MISSING else MISSING) if key else section
        if raw is not MISSING:
            values[f.name] = parse(raw, key, at, **ctx)
    return cls(**values)


def _write(obj):
    """The YAML mapping of ``obj``'s YAML fields, the inverse of ``_read``: an
    empty last key writes the value's keys into the enclosing mapping, and a
    value that dumps as None leaves its key out."""
    doc = {}
    for f, (_, dump), (*path, key) in _schema(type(obj)):
        value = dump(getattr(obj, f.name))
        if value is None:
            continue
        section = doc
        for part in path:
            section = section.setdefault(part, {})
        section.update({key: value} if key else value)
    return doc


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

_OBSTACLES = _each((_object(Obstacle), _write), lambda at, key, k: f"{at} obstacle")

# converter kind of a field (its ``metadata["kind"]``) -> (parse(raw, key, where, **ctx), dump(value))
_KINDS = {
    "num": (_number, lambda v: v),
    "int": (functools.partial(_number, cast=int), lambda v: v),
    "ints": (lambda raw, key, where, **_: tuple(_nums(raw, None, where, int)), list),
    "flag": (lambda raw, key, where, **_: _expect(raw, key, where, bool), bool),
    "name": (lambda raw, key, where, **_: str(raw), lambda name: name or None),
    "vec": (_vec, _vec_doc),
    "vecs": _each((_vec, _vec_doc), lambda at, key, k: f"{at} {key}"),
    "delay": (_delay, lambda d: {"min": d.min_ticks, "max": d.max_ticks} if d.max_ticks else "none"),
    "distances": (_distances, lambda d: [[i, j, t] for (i, j), t in sorted(d.items())]),
    "bounds": (lambda raw, key, where, **_: Domain(*_nums(raw, 4, where)), lambda d: [d.xmin, d.xmax, d.ymin, d.ymax]),
    "domain": (_domain, lambda d: {"bounds": _KINDS["bounds"][1](d), "obstacles": _OBSTACLES[1](d.obstacles)}),
    "goals": (_goals, lambda goals: {i: _vec_doc(g) for i, g in sorted(goals.items())}),
    "edges": (_edges, lambda edges: [list(e) for e in edges]),
    "graph": (lambda raw, key, where, n: InteractionGraph.from_edges(n, _edges(raw.get("graph", []), key, where)),
              lambda g: {"graph": [list(e) for e in g.sorted_edges()]}),
    "groups": _each((_object(bh.CompositeGroup), _write), lambda at, key, k: f"{at} group {k}"),
    "controller": _named(CONTROLLERS, "controller", "controller"),
    "completion": _named(COMPLETIONS, "completion type", "type"),
    "constraints": _each(_named(INITIAL_CONSTRAINTS, "initial constraint type", "type"),
                         lambda at, key, k: f"{at} initial constraint", optional=True),
    "behaviors": _each((_object(BehaviorSpec), _write), lambda at, key, k: f"behavior {k + 1}"),
    "fcbf": (_object(FcbfParams), _write),
    "rescue": (lambda raw, key, where, **_: _read(RescueProbe, raw, f"[{key}]"),
               lambda r: None if r is None else _write(r)),
}


def parse_mission(text):
    """Parse a mission document into (MissionPlan, SimConfig)."""
    try:
        doc = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise MissionFormatError(f"not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise MissionFormatError("mission document must be a mapping")
    # every behavior's graph is built on n, so n is read first and handed to every parser
    plan = _read(MissionPlan, doc, "document", n=_num(_req(doc, "mission", "document"), "n", "[mission]", cast=int))
    sim_doc = doc.get("sim", {})
    if _num(sim_doc, "delta", "[sim]", plan.delta) != plan.delta:
        raise MissionFormatError(
            f"[sim] delta {sim_doc['delta']} differs from [mission] delta {plan.delta:g}; "
            "the sensing range is set in [mission] only"
        )
    return plan, _read(SimConfig, sim_doc, "[sim]")


def serialize_mission(plan, config):
    """Serialize a plan and config back to the YAML document form."""
    return yaml.safe_dump({**_write(plan), "sim": _write(config)}, sort_keys=True, default_flow_style=None)


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
