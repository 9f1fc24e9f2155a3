import csv
import json
import math

import pytest

from swarmseq.cli import main

TINY = """
mission:
  n: 2
  delta: 0.5
  initial_positions: [[0.0, 0.0], [0.4, 0.0]]
domain:
  bounds: [-2, 2, -2, 2]
behaviors:
  - name: gather
    controller: rendezvous
    graph: [[1, 2]]
    completion: {type: elapsed, duration: 0.5}
  - name: spread
    controller: scatter
    graph: [[1, 2]]
    completion: {type: elapsed, duration: 0.5}
sim:
  dt: 0.02
  max_ticks: 2000
  delta: 0.5
  speed_limit: 0.2
  delay: none
  seed: 7
"""

BAD_CYCLE = """
mission:
  n: 3
  delta: 0.5
  initial_positions: [[0.0, 0.0], [0.3, 0.0], [0.6, 0.0]]
domain:
  bounds: [-2, 2, -2, 2]
behaviors:
  - controller: cyclic_pursuit
    angle: 0.5
    graph: [[1, 2], [2, 3]]
    completion: {type: elapsed, duration: 0.5}
"""

# robot 3's goal lies outside the group that the go_to_goal controller drives
GOAL_OUTSIDE_GROUP = """
mission:
  n: 3
  delta: 0.5
  initial_positions: [[0.0, 0.0], [0.3, 0.0], [0.6, 0.0]]
domain:
  bounds: [-2, 2, -2, 2]
behaviors:
  - controller: composite
    graph: [[1, 2]]
    groups:
      - robots: [1, 2]
        controller: go_to_goal
        goals: {1: [0.0, 1.0], 3: [1.0, 1.0]}
        edges: [[1, 2]]
      - robots: [3]
        controller: rendezvous
    completion: {type: elapsed, duration: 0.5}
"""

# a 3-robot composite behavior; GROUPS stands for its groups
COMPOSITE_OF_3 = """
mission:
  n: 3
  delta: 0.5
  initial_positions: [[0.0, 0.0], [0.3, 0.0], [0.6, 0.0]]
domain:
  bounds: [-2, 2, -2, 2]
behaviors:
  - controller: composite
    graph: []
    groups: GROUPS
    completion: {type: elapsed, duration: 0.5}
"""


@pytest.fixture
def tiny_mission(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY)
    return str(path)


class TestValidateCommand:
    def test_builtin_passes(self):
        assert main(["validate", "two_behavior_demo"]) == 0

    def test_path_graph_cyclic_pursuit_fails(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(BAD_CYCLE)
        assert main(["validate", str(path)]) == 1

    def test_goal_outside_its_group_fails(self, tmp_path, capsys):
        path = tmp_path / "goal.yaml"
        path.write_text(GOAL_OUTSIDE_GROUP)
        assert main(["validate", str(path)]) == 1
        assert "goals for robots [3] out of range (group (1, 2))" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("groups, message", [
        ("[{robots: [1, 2], controller: rendezvous}]", "robots [3] belong to no group"),
        ("[{robots: [1, 2], controller: rendezvous}, {robots: [3, 7], controller: scatter}]",
         "robots [7] out of range"),
    ])
    def test_composite_groups_must_cover_the_robots_exactly(self, tmp_path, capsys, command, groups, message):
        path = tmp_path / "groups.yaml"
        path.write_text(COMPOSITE_OF_3.replace("GROUPS", groups))
        assert main([command, str(path)]) == 1
        assert f"violation: behavior 1: composite: {message}\n" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["validate", "/nonexistent/mission.yaml"]) == 2

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("mission: [unclosed")
        assert main(["validate", str(path)]) == 2


class TestRejectedInput:
    def test_sim_delta_mismatch(self, tmp_path, capsys):
        text = TINY.replace("  delta: 0.5\n  speed_limit", "  delta: 0.7\n  speed_limit")
        assert text != TINY
        path = tmp_path / "mismatch.yaml"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("  dt: 0.02", "  dt: abc"),
            ("  delay: none", "  delay: {min: 1}"),
            ("  dt: 0.02", "  dt: 0"),
            ("  delta: 0.5\n  initial", "  delta: 0.5\n  rho: 1.0\n  initial"),
            ("duration: 0.5}\n  - name: spread", "duration: .inf}\n  - name: spread"),
            ("  dt: 0.02", "  dt: .nan"),
            ("  speed_limit: 0.2", "  speed_limit: .nan"),
            ("  speed_limit: 0.2", "  speed_limit: .inf"),
            ("  n: 2", "  n: 2.5"),
            ("graph: [[1, 2]]\n    completion: {type: elapsed, duration: 0.5}\n  - name: spread",
             "graph: [[1.5, 2]]\n    completion: {type: elapsed, duration: 0.5}\n  - name: spread"),
            ("  seed: 7", "  seed: 7\n  sigma_bar: 2.0"),
            ("  seed: 7", "  seed: 7\n  sigma_bar: 1.0"),
            ("  seed: 7", "  seed: 7\n  eta_bar: 1.5"),
            ("  seed: 7", "  seed: 7\n  eta_bar: -0.1"),
            ("  seed: 7", "  seed: 7\n  staleness_ticks: -1"),
            ("controller: scatter", "controller: go_to_goal\n    goals: [[0, 0]]"),
            ("behaviors:\n", "behaviors: 5\nunused:\n"),
            ("[[0.0, 0.0], [0.4, 0.0]]", "5"),
            ("  bounds: [-2, 2, -2, 2]", "  bounds: [-2, 2, -2, 2]\n  obstacles: 5"),
            ("controller: scatter", "controller: scatter\n    initial_constraints: 5"),
            ("controller: scatter", "controller: formation\n    distances: 5"),
            ("controller: scatter", "controller: composite\n    groups: 5"),
        ],
        ids=[
            "dt", "delay-max-missing", "dt-zero", "rho-out-of-range", "duration-inf", "dt-nan",
            "speed-limit-nan", "speed-limit-inf", "n-fractional", "edge-fractional",
            "sigma-bar-above-one", "sigma-bar-one", "eta-bar-above-one", "eta-bar-negative",
            "staleness-negative", "goals-not-a-mapping", "behaviors-scalar", "positions-scalar",
            "obstacles-scalar", "initial-constraints-scalar", "distances-scalar", "groups-scalar",
        ],
    )
    def test_malformed_or_rejected_value(self, tmp_path, capsys, old, new):
        text = TINY.replace(old, new)
        assert text != TINY
        path = tmp_path / "malformed.yaml"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "override",
        [
            ["--delay", "bogus"],
            ["--delay", "uniform:5:1"],
            ["--delay", "uniform:x:1"],
            ["--dt", "0"],
            ["--max-ticks", "0"],
            ["--dt", "nan"],
            ["--dt", "inf"],
        ],
    )
    def test_bad_override(self, tiny_mission, capsys, override):
        assert main(["run", tiny_mission, *override]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_override_compare_glue(self, tiny_mission, capsys):
        assert main(["compare-glue", tiny_mission, "--delay", "uniform:5:1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRunCommand:
    def test_run_writes_outputs(self, tiny_mission, tmp_path):
        out = tmp_path / "out"
        assert main(["run", tiny_mission, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "trajectory.csv",
            "barriers.csv",
            "consensus.csv",
            "events.jsonl",
            "summary.json",
        }

    def test_timeout_exit_code(self, tiny_mission, tmp_path):
        assert main(["run", tiny_mission, "--max-ticks", "5"]) == 3

    def test_summary_matches_recomputed_csv(self, tiny_mission, tmp_path):
        out = tmp_path / "out"
        main(["run", tiny_mission, "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        norms = []
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        last_tick = max(int(r["tick"]) for r in rows)
        for r in rows:
            if int(r["tick"]) == last_tick:
                continue  # final state row carries zero control
            norms.append(math.hypot(float(r["ux"]), float(r["uy"])))
        assert sum(norms) / len(norms) == pytest.approx(summary["control_norm_mean"], rel=1e-9)
        assert max(norms) == pytest.approx(summary["control_norm_max"], rel=1e-9)

    def test_seed_repeat_identical_outputs(self, tiny_mission, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", tiny_mission, "--delay", "uniform:0:5", "--seed", "3", "--out", str(a)])
        main(["run", tiny_mission, "--delay", "uniform:0:5", "--seed", "3", "--out", str(b)])
        for name in ("trajectory.csv", "barriers.csv", "consensus.csv", "events.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_validation_failure_short_circuits(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(BAD_CYCLE)
        assert main(["run", str(path)]) == 1

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("old, new, message", [
        ("delta: 0.5\n  initial", "delta: 0.5\n  min_sep: -0.1\n  initial", "minimum separation must be positive"),
        ("bounds: [-2, 2, -2, 2]", "bounds: [-2, 2, -2, 2]\n  obstacles: [{center: [0, 0], a: 100, b: 100}]",
         "initial position of robot 1 lies inside obstacle 1"),
    ])
    def test_a_plan_that_cannot_start_is_a_violation(self, tmp_path, capsys, command, old, new, message):
        # without the check, min_sep -0.1 runs to timeout (exit 3) and the
        # start inside an obstacle ends infeasible_hard (exit 4)
        path = tmp_path / "bad.yaml"
        assert old in TINY
        path.write_text(TINY.replace(old, new))
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err == f"violation: {message}\n1 violation(s)\n"

    def test_a_coverage_rectangle_away_from_the_robots_runs(self, tmp_path, capsys):
        # both robots lie past the rectangle's corner, so the law nudges both
        # onto it; this once ended in a "coincident robots" traceback
        path = tmp_path / "cover.yaml"
        path.write_text(TINY.replace("bounds: [-2, 2, -2, 2]", "bounds: [-10, 10, -10, 10]").replace(
            "controller: scatter", "controller: coverage\n    coverage_bounds: [5, 6, 5, 6]"))
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path)]) in (0, 3)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_mission_without_robots_is_a_violation(self, tmp_path, capsys, command):
        path = tmp_path / "empty.yaml"
        text = TINY.replace("n: 2", "n: 0").replace("[[0.0, 0.0], [0.4, 0.0]]", "[]").replace("[[1, 2]]", "[]")
        path.write_text(text)
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "violation: mission has no robots\n1 violation(s)\n"

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_rescue_without_escorts_is_a_violation(self, tmp_path, capsys, command):
        # without the check, validate said ok and the run died after its last
        # tick, placing the escort events of an empty group
        path = tmp_path / "rescue.yaml"
        path.write_text(TINY + "rescue: {target: [0.0, 0.35], safe_zone: {center: [0, 0], radius: 0.2}, "
                               "escort_behavior: 2, escort_robots: []}\n")
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err == "violation: rescue: escort group is empty\n1 violation(s)\n"


class TestCompareGlue:
    def test_tiny_comparison_runs(self, tiny_mission, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare-glue", tiny_mission, "--out", str(out)]) == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["minimally_invasive"]["outcome"] == "done"
        assert report["rendezvous_glue"]["outcome"] == "done"
        assert len(report["minimally_invasive"]["windows"]) == 2

    def test_comparison_deterministic(self, tiny_mission, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["compare-glue", tiny_mission, "--out", str(a)])
        main(["compare-glue", tiny_mission, "--out", str(b)])
        assert (a / "comparison.json").read_bytes() == (b / "comparison.json").read_bytes()


class TestOutputErrors:
    """An output path that cannot be written is an I/O error: exit 2 with an
    error line, found before the mission runs when the directory cannot be made."""

    @pytest.mark.parametrize("command", ["run", "compare-glue"])
    def test_out_is_an_existing_file(self, tiny_mission, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main([command, tiny_mission, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert captured.out == ""  # nothing ran
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command, name", [("run", "summary.json"), ("compare-glue", "comparison.json")])
    def test_an_output_file_that_cannot_be_written(self, tiny_mission, tmp_path, capsys, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main([command, tiny_mission, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:")
