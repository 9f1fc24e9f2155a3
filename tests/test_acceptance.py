"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite completes in a few minutes on a laptop.
"""

import tracemalloc

import numpy as np
import pytest

from swarmseq.agent import EXECUTING, consensus_update
from swarmseq.barriers import (
    Collision,
    Connectivity,
    FcbfParams,
    ObstacleAvoid,
    RowBlock,
    team_settling_bound,
)
from swarmseq.cli import run_metrics, transition_comparison
from swarmseq.geometry import (
    Domain,
    InteractionGraph,
    is_spanning_subgraph,
    proximity_graph,
)
from swarmseq.mission import BehaviorSpec, MissionPlan, builtin_scenario
from swarmseq.behaviors import ElapsedTime, Scatter
from swarmseq.qp import solve
from swarmseq.sim import (
    DelaySpec,
    SimConfig,
    compute_behavior_windows,
    run,
    write_outputs,
)
from oracle import kkt_residuals, oracle_solve
from test_bench_hooks import digest
from test_qp import one_robot
from traces import connectivity_trace

# sha256 of the whole securing_a_building run's CSV set and event log, as
# test_bench_hooks.digest computes it. A change that alters the arithmetic on
# purpose updates this value and says why in CHANGES.md.
SECURING_GOLDEN_DIGEST = "fccf03c9578e862171b511fb48d50aa6373e4b2571b208268de93ca0ab58985e"


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def demo_record():
    plan, config = builtin_scenario("two_behavior_demo")
    return plan, config, run(plan, config)


@pytest.fixture(scope="module")
def securing_record(securing_ticks):
    """The flagship's session run (conftest.py): (plan, config, record)."""
    return securing_ticks[:3]


@pytest.fixture(scope="module")
def energy_comparison():
    plan, config = builtin_scenario("seven_behavior_energy")
    return transition_comparison(plan, config)


def test_criterion_1_settling_time_bound():
    """Theorem bound: measured first tick with h >= 0 stays within the
    settling bound plus two Euler steps, over 200 randomized pair instances."""
    params = FcbfParams(rho=0.5, gamma=1.0)
    dt = 0.02
    rng = np.random.default_rng(2024)
    worst_margin = -np.inf
    checked = 0
    for _ in range(200):
        pts = rng.uniform(-1.0, 1.0, size=(2, 2))
        while float(np.linalg.norm(pts[0] - pts[1])) <= 0.13:
            pts = rng.uniform(-1.0, 1.0, size=(2, 2))
        plan = MissionPlan(
            n=2,
            initial_positions=pts,
            behaviors=(
                BehaviorSpec(
                    controller=Scatter(),
                    required_graph=InteractionGraph.from_edges(2, [(1, 2)]),
                    completion=ElapsedTime(0.1),
                ),
            ),
            domain=Domain(-4, 4, -4, 4),
            fcbf=params,
            delta=0.5,
            min_sep=0.12,
        )
        config = SimConfig(dt=dt, max_ticks=600, speed_limit=3.0)
        rec = run(plan, config)
        h = connectivity_trace(rec, (1, 2))
        h0 = float(h[0])
        bound = team_settling_bound([((1, 2), h0)], params)
        nonneg = np.flatnonzero(h >= 0)
        assert len(nonneg), f"edge never assembled from h0={h0}"
        measured = float(nonneg[0]) * dt
        worst_margin = max(worst_margin, measured - bound)
        assert measured <= bound + 2 * dt, (h0, measured, bound)
        checked += 1
    report(
        "1 settling-time bound",
        checked == 200,
        f"200 instances, worst margin {worst_margin:+.3f}s vs +{2 * dt:.2f}s allowed",
    )


def _hard_barrier_minima(plan, rec):
    x = rec.positions
    robots = range(1, plan.n + 1)
    worst_coll = min(
        (
            float(Collision(i, j, plan.min_sep).value(x[:, i - 1] - x[:, j - 1]).min())
            for i in robots
            for j in robots
            if i < j
        ),
        default=np.inf,
    )
    worst_obst = min(
        (
            float(ObstacleAvoid(i, o).value(x[:, i - 1] - o.center).min())
            for o in plan.domain.obstacles
            for i in robots
        ),
        default=np.inf,
    )
    return worst_coll, worst_obst


def _connectivity_invariance_minimum(plan, rec):
    """Worst post-nonnegative barrier value of each behavior's edges within
    the span where both endpoints still enforce them (from assembling the
    behavior until either endpoint starts executing the next one)."""
    ranks = np.where(rec.mode == EXECUTING, 2 * rec.behavior_index, 2 * rec.behavior_index - 1)
    worst = np.inf
    for k in range(1, len(plan.behaviors) + 1):
        lo, hi = 2 * k - 1, 2 * k + 1
        for i, j in plan.behaviors[k - 1].required_graph.sorted_edges():
            span = (
                (ranks[:, i - 1] >= lo)
                & (ranks[:, i - 1] <= hi)
                & (ranks[:, j - 1] >= lo)
                & (ranks[:, j - 1] <= hi)
            )
            idx = np.flatnonzero(span)
            if not len(idx):
                continue
            h = connectivity_trace(rec, (i, j))[idx]
            nonneg = np.flatnonzero(h >= 0)
            if len(nonneg):
                worst = min(worst, float(h[nonneg[0]:].min()))
    return worst


def test_criterion_2_forward_invariance(demo_record, securing_record, energy_comparison):
    tol = -1e-3
    details = []
    ok = True
    checks = [
        ("two_behavior_demo", demo_record[0], demo_record[2]),
        ("securing_a_building", securing_record[0], securing_record[2]),
    ]
    energy_plan, energy_config = builtin_scenario("seven_behavior_energy")
    checks.append(("seven_behavior_energy", energy_plan, run(energy_plan, energy_config)))
    for name, plan, rec in checks:
        conn = _connectivity_invariance_minimum(plan, rec)
        coll, obst = _hard_barrier_minima(plan, rec)
        details.append(f"{name}: conn {conn:.1e} coll {coll:.1e} obst {obst:.1e}")
        for value in (conn, coll, obst):
            if np.isfinite(value) and value < tol:
                ok = False
    report("2 forward invariance", ok, "; ".join(details))


def test_criterion_3_qp_oracle_equivalence():
    rng = np.random.default_rng(31337)
    worst_du = 0.0
    worst_kkt = 0.0
    for _ in range(1000):
        nominal = rng.uniform(-1, 1, 2)
        m = int(rng.integers(0, 7))
        normals, offsets, hard = np.zeros((m, 2)), np.zeros(m), np.zeros(m, dtype=bool)
        for r in range(m):
            a = rng.normal(size=2)
            normals[r] = a / np.linalg.norm(a) * rng.uniform(0.3, 3.0)
            offsets[r] = rng.uniform(-1, 1)
            hard[r] = rng.random() < 0.4
        problem = one_robot(nominal, RowBlock(normals, offsets, hard), float(rng.uniform(0.3, 2.0)))
        got = solve(problem)
        ref = oracle_solve(problem)
        assert got.status == ref.status
        worst_du = max(worst_du, float(np.max(np.abs(got.u - ref.u))))
        if got.status != "infeasible_hard":
            for sol in (got, ref):
                worst_kkt = max(worst_kkt, max(kkt_residuals(problem, sol).values()))
    ok = worst_du <= 1e-6 and worst_kkt <= 1e-8
    report(
        "3 qp oracle equivalence",
        ok,
        f"1000 instances, worst |du| {worst_du:.1e}, worst KKT {worst_kkt:.1e}",
    )


def _graph_library():
    """20 connected test graphs with n <= 8 as adjacency dicts (0-based)."""
    graphs = {}

    def complete(n):
        return {i: [j for j in range(n) if j != i] for i in range(n)}

    def cycle(n):
        return {i: [(i - 1) % n, (i + 1) % n] for i in range(n)}

    def star(n):
        adj = {0: list(range(1, n))}
        for i in range(1, n):
            adj[i] = [0]
        return adj

    for n in range(2, 9):
        graphs[f"K{n}"] = complete(n)
    for n in range(3, 8):
        graphs[f"C{n}"] = cycle(n)
    for n in range(4, 9):
        graphs[f"S{n}"] = star(n)
    # complete bipartite K_{2,3} and K_{3,3}
    graphs["K23"] = {0: [2, 3, 4], 1: [2, 3, 4], 2: [0, 1], 3: [0, 1], 4: [0, 1]}
    graphs["K33"] = {
        0: [3, 4, 5], 1: [3, 4, 5], 2: [3, 4, 5],
        3: [0, 1, 2], 4: [0, 1, 2], 5: [0, 1, 2],
    }
    # wheel on 6 vertices: hub 0 plus a 5-cycle
    rim = cycle(5)
    graphs["W6"] = {0: [1, 2, 3, 4, 5]}
    for i in range(5):
        graphs["W6"][i + 1] = [0] + [r + 1 for r in rim[i]]
    assert len(graphs) == 20
    return graphs


def _team_update(neighbors, flags, vals):
    """One synchronous team step of the consensus map: robot i averages the
    values of the robots its ``neighbors`` row marks."""
    return consensus_update(flags, np.broadcast_to(vals, neighbors.shape), neighbors)


def test_criterion_4_consensus_convergence():
    graphs = _graph_library()
    ok = True
    details = []
    for name, adj in sorted(graphs.items()):
        n = len(adj)
        neighbors = np.zeros((n, n), dtype=bool)
        for i, js in adj.items():
            neighbors[i, list(js)] = True
        vals = np.zeros(n)
        for _ in range(200):
            vals = _team_update(neighbors, np.ones(n, dtype=bool), vals)
        if not all(v > 0.999 for v in vals):
            ok = False
            details.append(f"{name}: convergence min {min(vals):.4f}")
        bound = 1 - 1 / (2 * n)
        for off in range(n):
            vals = np.zeros(n)
            peak = 0.0
            for _ in range(500):
                vals = _team_update(neighbors, np.arange(n) != off, vals)
                peak = max(peak, max(vals))
            if peak >= bound:
                ok = False
                details.append(f"{name} off={off}: peak {peak:.4f} >= {bound:.4f}")
    report(
        "4 consensus convergence",
        ok,
        details[0] if details else "20 graphs, exhaustive single-dissenter sweeps",
    )


def test_criterion_5_two_behavior_transition(demo_record):
    plan, config, rec = demo_record
    ok = rec.outcome == "done"
    details = [f"outcome {rec.outcome}"]

    w2 = compute_behavior_windows(rec)[1]
    t_transition = w2["assembly_first"]
    t_start = w2["exec_start"]
    for edge in ((2, 5), (3, 5)):
        h = connectivity_trace(rec, edge)
        if not (h[t_transition] < 0 and h[t_start] >= 0):
            ok = False
            details.append(f"edge {edge}: h {h[t_transition]:.3f} -> {h[t_start]:.3f}")
    pos = rec.positions[-1]
    worst_err = 0.0
    for (i, j), theta in sorted(plan.behaviors[1].controller.distances.items()):
        d = float(np.linalg.norm(pos[i - 1] - pos[j - 1]))
        worst_err = max(worst_err, abs(d - theta) / theta)
    if worst_err > 0.02:
        ok = False
    details.append(f"worst edge-length error {worst_err * 100:.2f}%")
    to_assembling = {}
    to_executing = {}
    for ev in rec.events:
        if ev["event"] == "mode_switch":
            target = to_assembling if ev["mode"] == "assembling" else to_executing
            target.setdefault(ev["robot"], 0)
            target[ev["robot"]] += 1
    if not all(to_assembling.get(r, 0) == 1 and to_executing.get(r, 0) == 2 for r in range(1, 6)):
        ok = False
        details.append(f"switch counts {to_assembling} {to_executing}")
    report("5 two-behavior transition", ok, "; ".join(details))


def test_criterion_6_delay_robustness():
    plan, config = builtin_scenario("two_behavior_demo")
    from dataclasses import replace

    any_nonmonotone = False
    worst_spread = 0
    ok = True
    for seed in range(10):
        cfg = replace(config, delay=DelaySpec.uniform(0, 10), seed=seed, max_ticks=20000)
        rec = run(plan, cfg)
        if rec.outcome != "done":
            ok = False
            break
        per_robot_k = {}
        for ev in rec.events:
            if ev["event"] == "mode_switch" and ev["mode"] == "executing":
                per_robot_k.setdefault(ev["robot"], []).append(ev["k"])
        if not all(ks == sorted(ks) == [1, 2] for ks in per_robot_k.values()):
            ok = False
            break
        for trace in (rec.sigma, rec.eta):
            diffs = np.diff(trace, axis=0)
            if (diffs > 1e-12).any() and (diffs < -1e-12).any():
                any_nonmonotone = True
        for mode, k in (("assembling", 2), ("executing", 2)):
            ticks = [
                ev["tick"]
                for ev in rec.events
                if ev["event"] == "mode_switch" and ev["mode"] == mode and ev["k"] == k
            ]
            spread = max(ticks) - min(ticks)
            worst_spread = max(worst_spread, spread)
            if len(ticks) != 5 or spread > 100:
                ok = False
    ok = ok and any_nonmonotone
    report(
        "6 delay robustness",
        ok,
        f"10 seeds, worst mode-switch spread {worst_spread} ticks, "
        f"non-monotone traces observed {any_nonmonotone}",
    )


def test_criterion_7_energy_comparison(energy_comparison):
    report_data = energy_comparison
    mi = report_data["minimally_invasive"]
    glue = report_data["rendezvous_glue"]
    ok = mi["outcome"] == "done" and glue["outcome"] == "done"
    wins = 0
    total_mi = total_glue = 0
    for wm, wg in zip(mi["windows"], glue["windows"]):
        if wm["ticks"] is None or wg["ticks"] is None:
            ok = False
            continue
        total_mi += wm["ticks"]
        total_glue += wg["ticks"]
        if wm["mean_norm"] < wg["mean_norm"]:
            wins += 1
    if wins < 6 or total_mi > total_glue:
        ok = False
    report(
        "7 energy comparison",
        ok,
        f"minimally invasive wins {wins}/7 windows; transition ticks {total_mi} vs {total_glue}",
    )


def test_criterion_8_securing_a_building(securing_record):
    plan, config, rec = securing_record
    ok = rec.outcome == "done"
    details = [f"outcome {rec.outcome} in {rec.ticks} ticks"]

    spanning = True
    for w in compute_behavior_windows(rec):
        t = w["exec_start"]
        if t is None:
            spanning = False
            break
        live = proximity_graph(rec.positions[t], plan.delta)
        if not is_spanning_subgraph(plan.behaviors[w["k"] - 1].required_graph, live):
            spanning = False
    if not spanning:
        ok = False
    details.append(f"required graphs spanning at all starts: {spanning}")

    names = [e["event"] for e in rec.events]
    if "target_escorted" not in names or "target_located" not in names:
        ok = False
    details.append("subject located and escorted" if "target_escorted" in names else "no escort")

    coll, obst = _hard_barrier_minima(plan, rec)
    if min(coll, obst) < -1e-3:
        ok = False
    details.append(f"hard barrier minima coll {coll:.1e} obst {obst:.1e}")
    report("8 securing a building", ok, "; ".join(details))


def test_securing_a_building_keeps_its_bytes(securing_record, tmp_path):
    _, _, rec = securing_record
    events = [ev["event"] for ev in rec.events]
    assert rec.ticks == 11179
    assert events.count("qp_relaxed") == 819 and events.count("qp_infeasible_hard") == 103
    assert digest(write_outputs(rec, tmp_path)) == SECURING_GOLDEN_DIGEST


def test_writing_the_flagship_record_builds_no_whole_run_table(securing_record, tmp_path):
    """write_outputs builds barriers.csv's tables a block of ticks at a time,
    so writing the 11179-tick record allocates at most 3 MB at its peak;
    whole-run (ticks x pairs) tables took about 7.7 MB. tracemalloc sees
    numpy's buffers but not which pages are resident, so it can check the
    writer but not the run."""
    _, _, rec = securing_record
    tracemalloc.start()
    try:
        write_outputs(rec, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_settling_bounds_equal_the_whole_trace_form(securing_record):
    """summary.json's settling bounds read each required edge's connectivity
    value on the one tick they need; they equal the bounds read from the
    edges' whole-run traces bit for bit."""
    plan, _, rec = securing_record
    behaviors = run_metrics(rec)["behaviors"]
    windows = compute_behavior_windows(rec)
    assert len(behaviors) == len(windows) == len(plan.behaviors)
    for entry, w in zip(behaviors, windows):
        done = w["assembly_all"]
        h0 = [(e, float(connectivity_trace(rec, e)[done]))
              for e in plan.behaviors[w["k"] - 1].required_graph.sorted_edges()]
        assert repr(entry["settling_bound_seconds"]) == repr(team_settling_bound(h0, plan.fcbf))
    assert any(entry["settling_bound_seconds"] for entry in behaviors)


def test_rescue_events_equal_a_tracker_watching_each_tick(securing_record):
    """The rescue events read from the finished record are those a tracker
    watching the end of every tick appends, at the same places."""
    plan, _, rec = securing_record
    r, expected, located = plan.rescue, [], False
    for t in range(rec.ticks):
        x = rec.positions[t + 1]
        if not located:
            h = Connectivity(np.arange(1, plan.n + 1), 0, plan.delta).value(x - r.target)
            if np.any(h >= 0):
                located = True
                expected.append({"tick": t, "event": "target_located", "robot": int(np.argmax(h)) + 1})
        k, mode = rec.behavior_index[t], rec.mode[t]
        if located and all(k[i - 1] > r.escort_behavior or (k[i - 1] == r.escort_behavior and mode[i - 1] == EXECUTING)
                           for i in r.escort_robots):
            centroid = np.array([x[i - 1] for i in r.escort_robots]).mean(axis=0)
            # the safe zone's keep-within barrier r^2 - |d|^2, in Python floats
            dx, dy = (float(v) for v in centroid - np.asarray(r.safe_center))
            if r.safe_radius**2 - (dx * dx + dy * dy) >= 0:
                expected.append({"tick": t, "event": "target_escorted"})
                break
    found = [i for i, ev in enumerate(rec.events) if ev["event"].startswith("target_")]
    assert [rec.events[i] for i in found] == expected and len(expected) == 2
    ticks = [ev["tick"] for ev in rec.events]
    assert ticks == sorted(ticks)
    assert all(ticks[i + 1] > ticks[i] for i in found)  # the last event of its tick


def test_criterion_9_determinism(tmp_path):
    plan, config = builtin_scenario("two_behavior_demo")
    out_a = write_outputs(run(plan, config), tmp_path / "a")
    out_b = write_outputs(run(plan, config), tmp_path / "b")
    ok = True
    for key in out_a:
        with open(out_a[key], "rb") as a, open(out_b[key], "rb") as b:
            if a.read() != b.read():
                ok = False
    report("9 determinism", ok, "byte-identical CSV outputs across repeated runs")
