#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (about 20 s).

    python3 bench/selftest.py

Runs a shrunken crowd (8 robots on a 2x4 grid) untraced and traced, checks
that every metric BENCHMARK.json names is printed with its unit, and that
the repeat checks fail when fed a wrong output digest or a wrong exact value.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def emitted(args, wl):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run_workload(args, wl)
    if code != 0:
        raise AssertionError(f"run_workload exited with {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def expect_units(result, declared):
    for spec in declared:
        got = result["metrics"].get(spec["name"])
        if got is None:
            raise AssertionError(f"metric {spec['name']} not emitted")
        if got["unit"] != spec["unit"]:
            raise AssertionError(f"{spec['name']}: unit {got['unit']}, declared {spec['unit']}")
        if not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{spec['name']}: value {got['value']!r} is not a number")
    extra = set(result["metrics"]) - {spec["name"] for spec in declared}
    if extra:
        raise AssertionError(f"undeclared metrics emitted: {sorted(extra)}")


def main():
    run.import_program()
    import workloads

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    crowd = workloads.WORKLOADS["crowd"]
    small = dataclasses.replace(
        crowd, name="crowd-small", params={**crowd.params, "rows": 2, "cols": 4}
    )
    os.makedirs(run.RESULTS_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=run.RESULTS_DIR, prefix="selftest-")
    run.RESULTS_DIR = scratch
    try:
        args = argparse.Namespace(workload=small.name, seed=0, seconds=1.0, trace=0)
        result = emitted(args, small)
        if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
            raise AssertionError(f"untraced shrunken crowd failed: {result}")
        expect_units(result, declared["end_to_end"])

        args.trace = 1
        result = emitted(args, small)
        if not result["correct"]:
            raise AssertionError(f"traced shrunken crowd failed: {result}")
        expect_units(result, declared["per_layer"])

        # an earlier result of the same code that disagrees must fail the run
        with open(os.path.join(scratch, sorted(os.listdir(scratch))[-1]), encoding="utf-8") as fh:
            good = json.load(fh)
        for key in ("digest@seed0", "exact@seed0"):
            bad = json.loads(json.dumps(good))
            bad["repeat_keys"][key] = "0" * 64 if key.startswith("digest") else {"ticks": -1}
            path = os.path.join(scratch, "0-wrong.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(bad, fh)
            result = emitted(args, small)
            os.remove(path)
            if result["correct"] or result["failed"] < 1:
                raise AssertionError(f"a wrong {key} was not detected: {result}")
    finally:
        shutil.rmtree(scratch)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
