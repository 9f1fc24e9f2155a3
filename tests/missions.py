"""A seeded generator of random missions, as YAML text.

``mission_text(seed)`` writes one mission document from a
``random.Random(seed)`` and checks that it parses and validates, so the
corpus of seeds 0, 1, 2, ... is fixed. Its settings:

- 2-6 robots, at least 2 min_sep apart, in [-0.6, 0.6]^2; delta 0.5 and
  min_sep 0.1;
- 1-4 behaviors from rendezvous, cyclic_pursuit, lattice, go_to_goal and
  scatter, each on a random connected graph (cyclic pursuit on a cycle, so
  only for 3 or more robots), completed after an elapsed time or once the
  robot's nominal is below 0.01;
- 0-2 ellipse obstacles clear of every robot's start;
- the global-position oracle on for 70% of the seeds, and a uniform 0..m
  tick message delay, m in 1..8, for 40%.

A test that pins outcomes of this corpus pins the generator too: a changed
generator takes new seeds.
"""

from __future__ import annotations

import random

import yaml

from swarmseq import mission

DELTA = 0.5
MIN_SEP = 0.1
HALF = 0.6  # the start box's half-width
BOUNDS = 1.5  # the domain's half-width
CONTROLLERS = ("rendezvous", "cyclic_pursuit", "lattice", "go_to_goal", "scatter")


def _positions(rng, n):
    """n starts in the box, every pair at least 2 min_sep apart."""
    out = []
    while len(out) < n:
        p = [round(rng.uniform(-HALF, HALF), 6), round(rng.uniform(-HALF, HALF), 6)]
        if all((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 >= (2 * MIN_SEP) ** 2 for q in out):
            out.append(p)
    return out


def _connected(rng, n):
    """A random connected graph on robots 1..n: a random spanning tree, then
    each other pair with probability 0.3."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {tuple(sorted((order[k], rng.choice(order[:k])))) for k in range(1, n)}
    edges |= {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.3}
    return sorted(edges)


def _cycle(rng, n):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return [sorted((order[k], order[(k + 1) % n])) for k in range(n)]


def _behavior(rng, n, k):
    name = rng.choice([c for c in CONTROLLERS if c != "cyclic_pursuit" or n >= 3])
    doc = {"name": f"b{k}_{name}", "controller": name}
    if name == "cyclic_pursuit":
        doc["angle"] = round(rng.uniform(0.5, 1.5), 3)
        doc["graph"] = _cycle(rng, n)
    else:
        doc["graph"] = [list(e) for e in _connected(rng, n)]
    if name == "lattice":
        doc["spacing"] = round(rng.uniform(0.2, 0.45), 3)
    elif name == "go_to_goal":
        doc["goals"] = {i: [round(rng.uniform(-HALF, HALF), 6), round(rng.uniform(-HALF, HALF), 6)]
                        for i in range(1, n + 1) if rng.random() < 0.6}
    if rng.random() < 0.5:
        doc["completion"] = {"type": "elapsed", "duration": round(rng.uniform(0.5, 4.0), 2)}
    else:
        doc["completion"] = {"type": "control_norm_below", "epsilon": 0.01}
    return doc


def _obstacles(rng, starts):
    """0-2 ellipses whose barrier is at least 1 at every start."""
    out = []
    for _ in range(rng.randint(0, 2)):
        while True:
            c = [round(rng.uniform(-1.0, 1.0), 6), round(rng.uniform(-1.0, 1.0), 6)]
            a, b = round(rng.uniform(25.0, 400.0), 3), round(rng.uniform(25.0, 400.0), 3)
            if all(a * (p[0] - c[0]) ** 2 + b * (p[1] - c[1]) ** 2 - 1.0 >= 1.0 for p in starts):
                out.append({"center": c, "a": a, "b": b})
                break
    return out


def mission_text(seed, max_ticks=3000):
    """The corpus's mission ``seed`` as YAML text, checked to parse and
    validate (``ValueError`` otherwise)."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    starts = _positions(rng, n)
    behaviors = [_behavior(rng, n, k) for k in range(1, rng.randint(1, 4) + 1)]
    obstacles = _obstacles(rng, starts)
    oracle = rng.random() < 0.7
    delay = {"min": 0, "max": rng.randint(1, 8)} if rng.random() < 0.4 else "none"
    doc = {
        "mission": {"n": n, "delta": DELTA, "min_sep": MIN_SEP, "rho": 0.5, "gamma": 1.0,
                    "initial_positions": starts},
        "domain": {"bounds": [-BOUNDS, BOUNDS, -BOUNDS, BOUNDS], "obstacles": obstacles},
        "behaviors": behaviors,
        "sim": {"dt": 0.02, "max_ticks": max_ticks, "delay": delay, "seed": seed, "oracle_sensing": oracle},
    }
    text = yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)
    plan, _ = mission.parse_mission(text)
    violations = mission.validate(plan)
    if violations:
        raise ValueError(f"mission {seed} is invalid: {violations}")
    return text


def hard_minima(record):
    """The run's worst collision and obstacle barrier values (inf without any)."""
    plan, x = record.plan, record.positions
    coll = obst = float("inf")
    for i in range(plan.n - 1):
        d = x[:, i + 1:] - x[:, i:i + 1]
        coll = min(coll, float((d[..., 0] ** 2 + d[..., 1] ** 2).min()) - plan.min_sep**2)
    for o in plan.domain.obstacles:
        v = x - o.center
        obst = min(obst, float((o.a * v[..., 0] ** 2 + o.b * v[..., 1] ** 2 - 1.0).min()))
    return coll, obst
