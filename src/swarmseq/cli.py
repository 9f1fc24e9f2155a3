"""Command-line mission runner.

Exit codes are a stable contract: 0 done, 1 validation failure, 2 I/O,
parse or override error, 3 timeout, 4 hard infeasibility.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .mission import builtin_scenario, builtin_scenario_names, load_mission_file, validate
from .barriers import Connectivity, team_settling_bound
from .sim import DelaySpec, compute_behavior_windows, run, write_outputs

EXIT_DONE = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_TIMEOUT = 3
EXIT_INFEASIBLE = 4


def _load(source):
    if source in builtin_scenario_names():
        return builtin_scenario(source)
    if not os.path.exists(source):
        raise FileNotFoundError(f"no such mission file or builtin scenario: {source}")
    return load_mission_file(source)


def _parse_delay(text):
    if text == "none":
        return DelaySpec.none()
    parts = text.split(":")
    if len(parts) == 3 and parts[0] == "uniform":
        return DelaySpec.uniform(int(parts[1]), int(parts[2]))
    raise ValueError(f"bad delay spec '{text}'; use none or uniform:MIN:MAX")


def _apply_overrides(config, args):
    fields = {}
    for name in ("seed", "dt", "delay", "max_ticks"):
        value = getattr(args, name, None)
        if value is not None:
            fields[name] = _parse_delay(value) if name == "delay" else value
    return replace(config, **fields) if fields else config


class _Exit(Exception):
    """Ends a command early with an exit code; the reason is already printed."""

    def __init__(self, code):
        super().__init__(code)
        self.code = code


@contextlib.contextmanager
def _io_errors():
    """Turn an ``OSError`` into an error line and the I/O exit code."""
    try:
        yield
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise _Exit(EXIT_IO) from None


def _make_out(path):
    """Create the output directory, if one is asked for, before the mission
    runs, so that a path that cannot be one fails at once."""
    if path:
        with _io_errors():
            os.makedirs(path, exist_ok=True)


def _prepare(args):
    """Load and validate the mission, then apply any command-line overrides."""
    try:
        plan, config = _load(args.mission)
    except (OSError, ValueError) as exc:  # MissionFormatError, or a value a plan type rejects
        print(f"error: {exc}", file=sys.stderr)
        raise _Exit(EXIT_IO) from None
    violations = validate(plan)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        raise _Exit(EXIT_INVALID)
    try:
        return plan, _apply_overrides(config, args)
    except ValueError as exc:  # includes SimConfigError
        print(f"error: {exc}", file=sys.stderr)
        raise _Exit(EXIT_IO) from None


def run_metrics(record):
    """Summary metrics recomputable from the emitted CSV set."""
    plan, dt, per_behavior = record.plan, record.dt, []
    for w in compute_behavior_windows(record):
        k, a, done, start = w["k"], w["assembly_first"], w["assembly_all"], w["exec_start"]
        ticks = None if a is None or start is None else start - a
        bound = None
        if done is not None:
            # each required edge's connectivity value on the one tick it needs
            x, edges = record.positions[done], plan.behaviors[k - 1].required_graph.sorted_edges()
            h0 = [((i, j), float(Connectivity(i, j, plan.delta).value(x[i - 1] - x[j - 1]))) for i, j in edges]
            bound = team_settling_bound(h0, plan.fcbf)
        per_behavior.append({
            "k": k, "name": plan.behaviors[k - 1].name or f"behavior_{k}", "assembly_first_tick": a,
            "assembly_all_tick": done, "exec_start_tick": start, "transition_ticks": ticks,
            "transition_seconds": None if ticks is None else ticks * dt, "settling_bound_seconds": bound,
        })

    norms = np.linalg.norm(record.controls, axis=2)  # (ticks, n)
    effort = (norms**2).sum(axis=0) * dt
    return {
        "outcome": record.outcome,
        "ticks": record.ticks,
        "seconds": record.ticks * dt,
        "behaviors": per_behavior,
        "control_norm_mean": float(norms.mean()) if norms.size else 0.0,
        "control_norm_min": float(norms.min()) if norms.size else 0.0,
        "control_norm_max": float(norms.max()) if norms.size else 0.0,
        "control_effort_per_robot": [float(x) for x in effort],
    }


def _outcome_exit(outcome):
    return {"done": EXIT_DONE, "timeout": EXIT_TIMEOUT}.get(outcome, EXIT_INFEASIBLE)


def cmd_validate(args):
    plan, _ = _prepare(args)
    print(f"ok: {len(plan.behaviors)} behaviors, {plan.n} robots", file=sys.stderr)
    return EXIT_DONE


def _print_behavior_table(metrics, out=sys.stdout):
    print(f"outcome: {metrics['outcome']} after {metrics['ticks']} ticks ({metrics['seconds']:.2f} s)", file=out)
    print("  k  behavior                transition(s)  bound(s)", file=out)
    for b in metrics["behaviors"]:
        tr, bd = b["transition_seconds"], b["settling_bound_seconds"]
        tr_s = f"{tr:10.2f}" if tr is not None else "         -"
        bd_s = f"{bd:8.2f}" if bd is not None else "       -"
        print(f"  {b['k']:>2}  {b['name']:<22} {tr_s}  {bd_s}", file=out)


def cmd_run(args):
    plan, config = _prepare(args)
    _make_out(args.out)
    record = run(plan, config)
    metrics = run_metrics(record)
    if args.out:
        with _io_errors():
            paths = write_outputs(record, args.out)
            with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
                json.dump(metrics, fh, indent=2, sort_keys=True)
                fh.write("\n")
        paths["summary"] = os.path.join(args.out, "summary.json")
        for name in sorted(paths):
            print(f"wrote {paths[name]}", file=sys.stderr)
    _print_behavior_table(metrics)
    return _outcome_exit(record.outcome)


def transition_comparison(plan, config):
    """Run the mission under both transition strategies and collect per-window
    mean applied control norms and durations."""
    rec_mi = run(plan, replace(config, glue_transitions=False))
    rec_glue = run(plan, replace(config, glue_transitions=True))

    def windows(rec):
        out = []
        for w in compute_behavior_windows(rec):
            a, e = w["assembly_first"], w["exec_start"]
            if a is None or e is None:
                out.append({"k": w["k"], "ticks": None, "mean_norm": None})
                continue
            norms = np.linalg.norm(rec.controls[a:e], axis=2)
            out.append({"k": w["k"], "ticks": e - a, "mean_norm": float(norms.mean()) if norms.size else 0.0})
        return out

    return {
        "minimally_invasive": {"outcome": rec_mi.outcome, "windows": windows(rec_mi)},
        "rendezvous_glue": {"outcome": rec_glue.outcome, "windows": windows(rec_glue)},
    }


def cmd_compare_glue(args):
    plan, config = _prepare(args)
    _make_out(args.out)
    report = transition_comparison(plan, config)
    mi, glue = report["minimally_invasive"], report["rendezvous_glue"]
    print("transition  mi_ticks  mi_mean|u|  glue_ticks  glue_mean|u|")
    total_mi = total_glue = 0
    for wm, wg in zip(mi["windows"], glue["windows"]):
        mt = wm["ticks"] if wm["ticks"] is not None else "-"
        gt = wg["ticks"] if wg["ticks"] is not None else "-"
        mn = f"{wm['mean_norm']:.4f}" if wm["mean_norm"] is not None else "-"
        gn = f"{wg['mean_norm']:.4f}" if wg["mean_norm"] is not None else "-"
        total_mi, total_glue = total_mi + (wm["ticks"] or 0), total_glue + (wg["ticks"] or 0)
        print(f"{wm['k']:>10}  {mt:>8}  {mn:>10}  {gt:>10}  {gn:>12}")
    print(f"total transition ticks: minimally invasive {total_mi}, glue {total_glue}")
    if args.out:
        path = os.path.join(args.out, "comparison.json")
        with _io_errors(), open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    for outcome in (mi["outcome"], glue["outcome"]):
        if outcome != "done":
            return _outcome_exit(outcome)
    return EXIT_DONE


def build_parser():
    parser = argparse.ArgumentParser(prog="swarmseq",
                                     description="Validate and run multi-robot behavior-sequencing missions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a mission file or builtin scenario")
    p.add_argument("mission", help="mission file path or builtin name: " + ", ".join(builtin_scenario_names()))
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a mission and write trajectory logs")
    p.add_argument("mission")
    p.add_argument("--seed", type=int, default=None, help="override the delay hash seed")
    p.add_argument("--dt", type=float, default=None, help="override the tick length (s)")
    p.add_argument("--delay", default=None, help="none or uniform:MIN:MAX (ticks)")
    p.add_argument("--max-ticks", type=int, default=None, dest="max_ticks")
    p.add_argument("--out", default=None, help="directory for the CSV set and summary.json")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare-glue",
                       help="run twice, with barrier transitions and with rendezvous glue, and compare")
    p.add_argument("mission")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--delay", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare_glue)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as exc:
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
