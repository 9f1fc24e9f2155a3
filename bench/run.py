#!/usr/bin/env python3
"""Run one swarmseq benchmark workload, check its outputs and print its metrics.

    python3 bench/run.py --workload {building,delay,crowd,all} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``. A run
repeats the workload while another repetition fits in ``--seconds`` (at least
once) and reports medians over repetitions. ``--trace 0`` prints the
end-to-end metrics: CPU times scaled to reference speed by ``speed.Probe``,
whose wrapper on ``sim.tick`` is the only one installed. ``--trace 1``
alternates such repetitions with traced ones and prints the per-layer metrics.
Readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each run also writes a result file with its provenance to ``bench/results/``.
``--workload all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
SETUP_BATCH_S = 0.5  # seconds of set-ups timed together as one sample

WORKLOAD_NAMES = ("building", "delay", "crowd")


def import_program():
    """Import swarmseq from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "swarmseq", "__init__.py")):
        sys.exit(f"error: no swarmseq package under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import swarmseq

    if os.path.dirname(os.path.dirname(os.path.abspath(swarmseq.__file__))) != SRC:
        sys.exit(f"error: swarmseq was imported from {swarmseq.__file__}, not {SRC}")


WALL, CPU, SCALED = range(3)  # the times of a span; see speed.Probe.span


def timed(probe, fn, *args):
    """``fn(*args)`` and its (wall, cpu, scaled) seconds; with no probe the
    scaled time is the CPU time."""
    if probe is not None:
        return probe.span(fn, *args)
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn(*args)
    cpu = time.process_time() - cpu
    return result, (time.perf_counter() - wall, cpu, cpu)


def add(acc, times):
    for k, value in enumerate(times):
        acc[k] += value


class Rep:
    """One repetition of a workload: set-up, then each mission's run and post-run."""

    def __init__(self):
        self.setup = (0.0, 0.0, 0.0)  # (wall, cpu, scaled) seconds
        self.run = [0.0, 0.0, 0.0]
        self.post = [0.0, 0.0, 0.0]
        self.robot_ticks = 0
        self.missions = []  # per mission: {"seed", "exact", "digest", "failures"}

    def total(self, k):
        return self.setup[k] + self.run[k] + self.post[k]


class SetupSampler:
    """Times set-up in batches of about SETUP_BATCH_S seconds.

    One set-up takes 10-80 ms, so a single one says little; a batch
    alternates set-ups with reference calls and is scaled by them (see
    speed.Probe). Batches taken before the first run and after every run
    and post-run span the whole run, and ``setup_s`` is their median.
    """

    def __init__(self, wl, source, seed, probe):
        self.wl, self.source, self.seed, self.probe = wl, source, seed, probe
        self.samples = []  # (wall, cpu, scaled) seconds per set-up
        single = min(self._time(1)[CPU] for _ in range(3))
        self.batch = max(1, math.ceil(SETUP_BATCH_S / max(single, 1e-6)))

    def _time(self, count):
        first = len(self.probe.samples)
        acc = [0.0, 0.0, 0.0]
        for _ in range(count):
            add(acc, self.probe.span(self.wl.setup, self.source, self.seed)[1])
        wall, cpu = acc[WALL] / count, acc[CPU] / count
        return wall, cpu, self.probe.scale(cpu, first)

    def sample(self):
        self.samples.append(self._time(self.batch))


def run_rep(wl, source, seed, workdir, write, probe=None, sampler=None):
    """Set up, run, post-process and check every mission of one repetition.
    With a ``probe``, its spans time each step (see speed.Probe); with a
    ``sampler``, a batch of set-ups is timed after each run and post-run,
    outside the repetition's own times."""
    from swarmseq import cli, sim
    import workloads

    def post(record, index):
        metrics = cli.run_metrics(record)
        paths = None
        if write:
            outdir = os.path.join(workdir, f"mission{index}")
            paths = sim.write_outputs(record, outdir)
            paths["summary"] = workloads.write_summary(metrics, outdir)
        return metrics, paths

    rep = Rep()
    runs, rep.setup = timed(probe, wl.setup, source, seed)
    for index, (plan, config) in enumerate(runs):
        entry = {"seed": config.seed, "exact": None, "digest": None, "failures": []}
        rep.missions.append(entry)
        try:
            record, times = timed(probe, sim.run, plan, config)
            add(rep.run, times)
            if sampler is not None:
                sampler.sample()
            (metrics, paths), times = timed(probe, post, record, index)
            add(rep.post, times)
            if sampler is not None:
                sampler.sample()
        except Exception:  # a crash of the program is a failed mission, not a harness error
            entry["failures"].append(traceback.format_exc(limit=3))
            continue
        rep.robot_ticks += record.n * record.ticks
        entry["exact"] = workloads.exact_values(record, metrics)
        entry["failures"] += workloads.check_record(record)
        if paths is not None:
            entry["digest"] = workloads.output_digest(paths)
    return rep


def source_fingerprint():
    """sha256 over the program's source tree and the benchmark's code, so
    result files of different code are never compared with each other."""
    h = hashlib.sha256()
    for top in (SRC, BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "results"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance(args, wl):
    import numpy

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=False)
        commit = out.stdout.strip() or None
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": source_fingerprint(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "workload": wl.name,
        "workload_params": wl.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def check_repeats(reps, earlier):
    """Exact values and output digests must agree across every repetition of
    a mission seed, in this run and in earlier result files of the same code.
    Adds a failure to each mission that disagrees; returns this run's values."""
    seen = {}
    for result in earlier:
        for key, value in result.get("repeat_keys", {}).items():
            seen.setdefault(key, value)
    keys = {}
    for rep in reps:
        for m in rep.missions:
            for kind in ("exact", "digest"):
                if m[kind] is None:
                    continue
                key = f"{kind}@seed{m['seed']}"
                first = seen.setdefault(key, m[kind])
                if first != m[kind]:
                    m["failures"].append(f"{key} differs across repeats: {first} vs {m[kind]}")
                keys[key] = m[kind]
    return keys


def earlier_results(wl, fingerprint):
    out = []
    if not os.path.isdir(RESULTS_DIR):
        return out
    for name in sorted(os.listdir(RESULTS_DIR)):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(RESULTS_DIR, name), encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            continue
        prov = result.get("provenance", {})
        if (prov.get("workload"), prov.get("source_sha256")) == (wl.name, fingerprint):
            out.append(result)
    return out


def end_to_end(reps, setup_samples):
    """End-to-end metrics: medians over repetitions of process CPU time
    scaled to reference speed (see speed.Probe), plus the exact simulated
    quantities summed over a repetition's missions."""
    good = [r for r in reps if r.robot_ticks]
    if not good:
        raise RuntimeError("no mission of any repetition ran to an end")
    first = good[0]

    def exact_sum(key):
        return sum(m["exact"][key] for m in first.missions if m["exact"] is not None)

    return {
        "setup_s": (median(s[SCALED] for s in setup_samples), "s"),
        "run_s": (median(r.run[SCALED] for r in good), "s"),
        "us_per_robot_tick": (median(r.run[SCALED] / r.robot_ticks * 1e6 for r in good), "us"),
        "total_s": (median(r.total(SCALED) for r in good), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "mission_s_sim": (exact_sum("mission_s_sim"), "s_sim"),
        "transition_s_sim": (exact_sum("transition_s_sim"), "s_sim"),
        "control_effort": (exact_sum("control_effort"), "m2/s"),
    }


def ungated(reps, setup_samples, probe, failed, attempted):
    """Metrics reported but not gated: the post-run time, which only
    ``building`` spends writing, the failed share, which is 0 on a good run,
    the host times unscaled, by CPU and by wall clock, and the reference
    call's median CPU time, which shows how fast the machine ran."""
    return {
        "write_s": (median(r.post[SCALED] for r in reps), "s"),
        "failed_share": (failed / attempted, "ratio"),
        "reference_ms": (median(probe.samples) * 1e3, "ms"),
        "setup_cpu_s": (median(s[CPU] for s in setup_samples), "s"),
        "run_cpu_s": (median(r.run[CPU] for r in reps), "s"),
        "write_cpu_s": (median(r.post[CPU] for r in reps), "s"),
        "total_cpu_s": (median(r.total(CPU) for r in reps), "s"),
        "setup_wall_s": (median(s[WALL] for s in setup_samples), "s"),
        "run_wall_s": (median(r.run[WALL] for r in reps), "s"),
        "write_wall_s": (median(r.post[WALL] for r in reps), "s"),
        "total_wall_s": (median(r.total(WALL) for r in reps), "s"),
    }


def measure(wl, args):
    """Repeat the workload for ``args.seconds``; returns the untraced and the
    traced repetitions, the set-up samples and the per-layer metrics (None
    when untraced)."""
    from speed import Probe
    from tracer import Tracer

    source = wl.source(args.seed)
    probe = Probe()
    sampler = SetupSampler(wl, source, args.seed, probe)
    for _ in range(3):
        sampler.sample()

    os.makedirs(RESULTS_DIR, exist_ok=True)
    reps, traced, layers = [], [], []
    begin = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR, prefix="outputs-") as workdir:
        while True:
            t0 = time.perf_counter()
            with probe:
                write = wl.writes and not args.trace
                reps.append(run_rep(wl, source, args.seed, workdir, write, probe, sampler))
            if args.trace:
                tracer = Tracer()
                with tracer:
                    traced.append(run_rep(wl, source, args.seed, workdir, write=True))
                layers.append(tracer.metrics())
            elapsed = time.perf_counter() - begin
            if elapsed + (time.perf_counter() - t0) > args.seconds:
                break
    setup_samples = sampler.samples

    per_layer = None
    if args.trace:
        per_layer = {
            name: (median(m[name][0] for m in layers), unit)
            for name, (_, unit) in layers[0].items()
        }
        overhead = median(r.run[CPU] for r in traced) / median(r.run[CPU] for r in reps)
        per_layer["trace.overhead"] = (overhead, "ratio")
    return reps, traced, setup_samples, probe, per_layer


def print_metrics(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")


def run_workload(args, wl):
    prov = provenance(args, wl)
    earlier = earlier_results(wl, prov["source_sha256"])
    reps, traced, setup_samples, probe, per_layer = measure(wl, args)
    repeat_keys = check_repeats(reps + traced, earlier)

    missions = [m for r in reps + traced for m in r.missions]
    attempted = len(missions)
    failed = sum(1 for m in missions if m["failures"])
    e2e = end_to_end(reps, setup_samples)
    extra = ungated(reps, setup_samples, probe, failed, attempted)
    metrics = per_layer if args.trace else e2e

    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {args.seed}, {len(reps)} repetitions, {attempted} missions, {failed} failed")
    for m in missions:
        for f in m["failures"]:
            print(f"  FAILED seed {m['seed']}: {f}")
    print_metrics("end-to-end (CPU time at reference speed; simulated time as s_sim):", e2e)
    print_metrics("not gated:", extra)
    if per_layer:
        print_metrics("per layer (traced repetitions, wall-clock spans):", per_layer)

    result = {
        "provenance": prov,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "ungated": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in (per_layer or {}).items()},
        "setup_samples_s": [list(s) for s in setup_samples],
        "reference_samples_s": probe.samples,
        "repetitions": [
            {"traced": r in traced, "setup_s": list(r.setup), "run_s": r.run,
             "write_s": r.post, "robot_ticks": r.robot_ticks, "missions": r.missions}
            for r in reps + traced
        ],
        "repeat_keys": repeat_keys,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(RESULTS_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}-"
                                     f"{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process, so peak memory belongs to one
    workload. The JSON line names each metric ``<workload>.<metric>``."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update(
            (f"{name}.{metric}", value) for metric, value in result["metrics"].items()
        )
    print(json.dumps(summary))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_program()
    import workloads

    return run_workload(args, workloads.WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
