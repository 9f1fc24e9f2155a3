import copy
import hashlib
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml

from swarmseq.barriers import Collision, FcbfParams
from swarmseq.behaviors import CyclicPursuit, LeaderFollower
from swarmseq import mission
from swarmseq.geometry import Domain, InteractionGraph, Obstacle
from swarmseq.mission import (
    MissionFormatError,
    MissionPlan,
    builtin_scenario,
    builtin_scenario_names,
    parse_mission,
    serialize_mission,
    validate,
)
from swarmseq.sim import DelaySpec, SimConfig

MINIMAL = """
mission:
  n: 2
  delta: 0.5
  initial_positions: [[0.0, 0.0], [0.3, 0.0]]
domain:
  bounds: [-1, 1, -1, 1]
behaviors:
  - controller: rendezvous
    graph: [[1, 2]]
    completion: {type: elapsed, duration: 1.0}
"""
SIM_DT = "sim:\n  dt: 0.02\n"
NO_BEHAVIORS = "mission: {n: 1, delta: 0.5, initial_positions: [[0, 0]]}\ndomain: {bounds: [-1, 1, -1, 1]}"

# (id, text of MINIMAL + SIM_DT, its replacement, a pattern of the error)
MALFORMED_SCALARS = [
    ("dt", "dt: 0.02", "dt: abc", "dt"),
    ("delay-max-missing", "dt: 0.02", "delay: {min: 1}", "max"),
    ("delay-max", "dt: 0.02", "delay: {min: 1, max: x}", "max"),
    ("delay-not-a-mapping", "dt: 0.02", "delay: uniform", "delay"),
    ("seed", "dt: 0.02", "seed: [1]", "seed"),
    ("delta", "delta: 0.5", "delta: far", "delta"),
    ("n", "n: 2", "n: two", "'n'"),
    ("bounds-entry", "bounds: [-1, 1, -1, 1]", "bounds: [-1, 1, x, 1]", "bounds"),
    ("bounds-length", "bounds: [-1, 1, -1, 1]", "bounds: [-1, 1]", "bounds"),
    ("duration", "duration: 1.0", "duration: soon", "duration"),
    ("delta-inf", "delta: 0.5", "delta: .inf", "delta"),
    ("dt-nan", "dt: 0.02", "dt: .nan", "dt"),
    ("speed-limit-nan", "dt: 0.02", "speed_limit: .nan", "speed_limit"),
    ("n-fractional", "n: 2", "n: 2.5", "'n'"),
    ("position-nan", "[[0.0, 0.0], [0.3, 0.0]]", "[[0.0, .nan], [0.3, 0.0]]", "2-vector"),
    ("bounds-inf", "bounds: [-1, 1, -1, 1]", "bounds: [-1, 1, -1, .inf]", "bounds"),
    ("edge-fractional", "graph: [[1, 2]]", "graph: [[1.5, 2]]", "edge"),
    ("seed-fractional", "dt: 0.02", "seed: 1.5", "seed"),
    ("staleness-fractional", "dt: 0.02", "staleness_ticks: 2.5", "staleness_ticks"),
    ("angle-nan", "controller: rendezvous", "controller: cyclic_pursuit\n    angle: .nan", "angle"),
    ("distance-robot-fractional", "controller: rendezvous", "controller: formation\n    distances: [[1.5, 2, 0.3]]",
     "distances"),
    ("distance-inf", "controller: rendezvous", "controller: formation\n    distances: [[1, 2, .inf]]", "distances"),
    ("goal-robot", "controller: rendezvous", "controller: go_to_goal\n    goals: {first: [0, 0]}", "'goals'.*finite int"),
    ("goal-robot-fractional", "controller: rendezvous", "controller: go_to_goal\n    goals: {1.5: [0, 0]}",
     "'goals'.*finite int"),
    ("goals-not-a-mapping", "controller: rendezvous", "controller: go_to_goal\n    goals: [[0, 0]]", "'goals'.*mapping"),
    ("behaviors-scalar", "behaviors:\n", "behaviors: 5\nunused:\n", "'behaviors'.*list"),
    ("positions-scalar", "[[0.0, 0.0], [0.3, 0.0]]", "5", "'initial_positions'.*list"),
    ("obstacles-scalar", "bounds: [-1, 1, -1, 1]", "bounds: [-1, 1, -1, 1]\n  obstacles: 5",
     "'obstacles'.*list"),
    ("initial-constraints-scalar", "graph: [[1, 2]]", "graph: [[1, 2]]\n    initial_constraints: 5",
     "'initial_constraints'.*list"),
    ("distances-scalar", "controller: rendezvous", "controller: formation\n    distances: 5", "'distances'.*list"),
    ("groups-scalar", "controller: rendezvous", "controller: composite\n    groups: 5", "'groups'.*list"),
]


class TestParsing:
    def test_minimal_document(self):
        plan, _ = parse_mission(MINIMAL)
        assert plan.n == 2
        assert len(plan.behaviors) == 1
        assert plan.delta == 0.5
        assert validate(plan) == []

    def test_not_yaml(self):
        with pytest.raises(MissionFormatError):
            parse_mission("mission: [unclosed")

    def test_missing_section(self):
        with pytest.raises(MissionFormatError, match="behaviors"):
            parse_mission(NO_BEHAVIORS)

    def test_unknown_controller(self):
        bad = MINIMAL.replace("rendezvous", "teleport")
        with pytest.raises(MissionFormatError, match="teleport"):
            parse_mission(bad)

    def test_sim_delta_must_match_mission_delta(self):
        plan, _ = parse_mission(MINIMAL + "sim:\n  delta: 0.5\n")
        assert plan.delta == 0.5
        with pytest.raises(MissionFormatError, match="delta"):
            parse_mission(MINIMAL + "sim:\n  delta: 0.7\n")

    @pytest.mark.parametrize(
        "old, new, match", [case[1:] for case in MALFORMED_SCALARS], ids=[case[0] for case in MALFORMED_SCALARS]
    )
    def test_malformed_scalar(self, old, new, match):
        text = MINIMAL + SIM_DT
        assert old in text
        with pytest.raises(MissionFormatError, match=match):
            parse_mission(text.replace(old, new))

    def test_wrong_position_count(self):
        bad = MINIMAL.replace("n: 2", "n: 3")
        with pytest.raises(MissionFormatError, match="initial positions"):
            parse_mission(bad)


# one valid behavior per controller, completion type and initial constraint;
# every key not listed as optional is required
CONTROLLERS = {
    "rendezvous": {},
    "scatter": {},
    "formation": {"distances": [[1, 2, 0.3]]},
    "leader_follower": {"leader": 1, "goal": [0.5, 0.5], "gain": 1.0, "distances": [[1, 2, 0.3]]},
    "cyclic_pursuit": {"angle": 0.5},
    "lattice": {"spacing": 0.3},
    "coverage": {"coverage_bounds": [-1, 1, -1, 1]},
    "go_to_goal": {"goals": {1: [0.5, 0.5]}, "gain": 1.0},
    "containment": {"angle": 0.5, "goal": [0.5, 0.5], "gain": 1.0},
    "composite": {"groups": [{"robots": [1, 2], "edges": [[1, 2]], "controller": "rendezvous"}]},
}
COMPLETIONS = {
    "control_norm_below": {"epsilon": 0.01},
    "elapsed": {"duration": 1.0},
    "goal_reached": {"goal": [0.5, 0.5], "radius": 0.1},
}
KEEP_WITHIN = {"type": "keep_within", "robot": 1, "center": [0.0, 0.0], "radius": 1.0}
OPTIONAL = {"gain"}
SCALARS = {"leader", "gain", "angle", "spacing", "epsilon", "duration", "radius", "robot"}


def behavior_doc(controller="rendezvous", completion="elapsed"):
    return copy.deepcopy({
        "controller": controller,
        **CONTROLLERS[controller],
        "graph": [[1, 2]],
        "completion": {"type": completion, **COMPLETIONS[completion]},
        "initial_constraints": [KEEP_WITHIN],
    })


def mission_text(behavior):
    doc = yaml.safe_load(MINIMAL)
    doc["behaviors"] = [behavior]
    return yaml.safe_dump(doc)


def _parse_error_cases():
    """(id, edit of a valid behavior document, expected error text)."""

    def drop(path, key):
        return lambda b: path(b).pop(key)

    def put(path, key, value):
        return lambda b: path(b).__setitem__(key, value)

    def top(b):
        return b

    def completion(b):
        return b["completion"]

    def initial(b):
        return b["initial_constraints"][0]

    cases = [("controller/missing", "rendezvous", "elapsed", drop(top, "controller"),
              "missing 'controller' in behavior 1")]
    for name, keys in CONTROLLERS.items():
        for key in keys:
            if key not in OPTIONAL:
                cases.append((f"{name}/missing-{key}", name, "elapsed", drop(top, key),
                              f"missing '{key}' in behavior 1"))
            if key in SCALARS:
                cases.append((f"{name}/nan-{key}", name, "elapsed", put(top, key, float("nan")), "not a finite"))
    for key in ("robots", "controller"):
        cases.append((f"composite/group-missing-{key}", "composite", "elapsed",
                      drop(lambda b: b["groups"][0], key), f"missing '{key}' in behavior 1"))
    cases.append(("controller/unknown", "rendezvous", "elapsed", put(top, "controller", "teleport"),
                  "unknown controller"))
    cases.append(("completion/missing-type", "rendezvous", "elapsed", drop(completion, "type"),
                  "missing 'type' in behavior 1"))
    for name, keys in COMPLETIONS.items():
        for key in keys:
            cases.append((f"{name}/missing-{key}", "rendezvous", name, drop(completion, key),
                          f"missing '{key}' in behavior 1"))
            if key in SCALARS:
                cases.append((f"{name}/nan-{key}", "rendezvous", name, put(completion, key, float("nan")),
                              "not a finite"))
    cases.append(("completion/unknown", "rendezvous", "elapsed", put(completion, "type", "whenever"),
                  "unknown completion type"))
    for key in KEEP_WITHIN:
        cases.append((f"keep_within/missing-{key}", "rendezvous", "elapsed", drop(initial, key),
                      f"missing '{key}' in behavior 1"))
        if key in SCALARS:
            cases.append((f"keep_within/nan-{key}", "rendezvous", "elapsed", put(initial, key, float("nan")),
                          "not a finite"))
    cases.append(("keep_within/unknown", "rendezvous", "elapsed", put(initial, "type", "keep_out"),
                  "unknown initial constraint type"))
    return cases


PARSE_ERRORS = _parse_error_cases()

# the whole text of the error of each case above, by its id
ERROR_TEXT = {
    "dt": "'dt' in [sim] is not a finite float: 'abc'",
    "delay-max-missing": "missing 'max' in [sim] delay",
    "delay-max": "'max' in [sim] delay is not a finite int: 'x'",
    "delay-not-a-mapping": "[sim] delay must be a mapping, got 'uniform'",
    "seed": "'seed' in [sim] is not a finite int: [1]",
    "delta": "'delta' in [mission] is not a finite float: 'far'",
    "n": "'n' in [mission] is not a finite int: 'two'",
    "bounds-entry": "expected 4 finite floats in [domain] bounds, got [-1, 1, 'x', 1]",
    "bounds-length": "expected 4 finite floats in [domain] bounds, got [-1, 1]",
    "duration": "'duration' in behavior 1 is not a finite float: 'soon'",
    "delta-inf": "'delta' in [mission] is not a finite float: inf",
    "dt-nan": "'dt' in [sim] is not a finite float: nan",
    "speed-limit-nan": "'speed_limit' in [sim] is not a finite float: nan",
    "n-fractional": "'n' in [mission] is not a finite int: 2.5",
    "position-nan": "expected 2 finite floats in [mission] initial_positions (a 2-vector), got [0.0, nan]",
    "bounds-inf": "expected 4 finite floats in [domain] bounds, got [-1, 1, -1, inf]",
    "edge-fractional": "bad edge list in behavior 1: not a finite int: 1.5",
    "seed-fractional": "'seed' in [sim] is not a finite int: 1.5",
    "staleness-fractional": "'staleness_ticks' in [sim] is not a finite int: 2.5",
    "angle-nan": "'angle' in behavior 1 is not a finite float: nan",
    "distance-robot-fractional": "expected 2 finite ints in behavior 1 distances, got (1.5, 2.0)",
    "distance-inf": "expected 3 finite floats in behavior 1 distances, got [1, 2, inf]",
    "goal-robot": "'goals' in behavior 1 is not a finite int: 'first'",
    "goal-robot-fractional": "'goals' in behavior 1 is not a finite int: 1.5",
    "goals-not-a-mapping": "'goals' in behavior 1 must be a mapping, got [[0, 0]]",
    "behaviors-scalar": "'behaviors' in document must be a list, got 5",
    "positions-scalar": "'initial_positions' in [mission] must be a list, got 5",
    "obstacles-scalar": "'obstacles' in [domain] must be a list, got 5",
    "initial-constraints-scalar": "'initial_constraints' in behavior 1 must be a list, got 5",
    "distances-scalar": "'distances' in behavior 1 must be a list, got 5",
    "groups-scalar": "'groups' in behavior 1 must be a list, got 5",
    "controller/missing": "missing 'controller' in behavior 1",
    "formation/missing-distances": "missing 'distances' in behavior 1",
    "leader_follower/missing-leader": "missing 'leader' in behavior 1",
    "leader_follower/nan-leader": "'leader' in behavior 1 is not a finite int: nan",
    "leader_follower/missing-goal": "missing 'goal' in behavior 1",
    "leader_follower/nan-gain": "'gain' in behavior 1 is not a finite float: nan",
    "leader_follower/missing-distances": "missing 'distances' in behavior 1",
    "cyclic_pursuit/missing-angle": "missing 'angle' in behavior 1",
    "cyclic_pursuit/nan-angle": "'angle' in behavior 1 is not a finite float: nan",
    "lattice/missing-spacing": "missing 'spacing' in behavior 1",
    "lattice/nan-spacing": "'spacing' in behavior 1 is not a finite float: nan",
    "coverage/missing-coverage_bounds": "missing 'coverage_bounds' in behavior 1",
    "go_to_goal/missing-goals": "missing 'goals' in behavior 1",
    "go_to_goal/nan-gain": "'gain' in behavior 1 is not a finite float: nan",
    "containment/missing-angle": "missing 'angle' in behavior 1",
    "containment/nan-angle": "'angle' in behavior 1 is not a finite float: nan",
    "containment/missing-goal": "missing 'goal' in behavior 1",
    "containment/nan-gain": "'gain' in behavior 1 is not a finite float: nan",
    "composite/missing-groups": "missing 'groups' in behavior 1",
    "composite/group-missing-robots": "missing 'robots' in behavior 1 group 0",
    "composite/group-missing-controller": "missing 'controller' in behavior 1 group 0",
    "controller/unknown": "unknown controller 'teleport' in behavior 1",
    "completion/missing-type": "missing 'type' in behavior 1",
    "control_norm_below/missing-epsilon": "missing 'epsilon' in behavior 1",
    "control_norm_below/nan-epsilon": "'epsilon' in behavior 1 is not a finite float: nan",
    "elapsed/missing-duration": "missing 'duration' in behavior 1",
    "elapsed/nan-duration": "'duration' in behavior 1 is not a finite float: nan",
    "goal_reached/missing-goal": "missing 'goal' in behavior 1",
    "goal_reached/missing-radius": "missing 'radius' in behavior 1",
    "goal_reached/nan-radius": "'radius' in behavior 1 is not a finite float: nan",
    "completion/unknown": "unknown completion type 'whenever' in behavior 1",
    "keep_within/missing-type": "missing 'type' in behavior 1 initial constraint",
    "keep_within/missing-robot": "missing 'robot' in behavior 1 initial constraint",
    "keep_within/nan-robot": "'robot' in behavior 1 initial constraint is not a finite int: nan",
    "keep_within/missing-center": "missing 'center' in behavior 1 initial constraint",
    "keep_within/missing-radius": "missing 'radius' in behavior 1 initial constraint",
    "keep_within/nan-radius": "'radius' in behavior 1 initial constraint is not a finite float: nan",
    "keep_within/unknown": "unknown initial constraint type 'keep_out' in behavior 1 initial constraint",
    "missing-section": "missing 'behaviors' in document",
    "position-count": "expected 3 initial positions, got 2",
}


def broken_mission(case):
    """The mission text of the parse-error case ``case`` (an id of ERROR_TEXT)."""
    scalars = {c[0]: c[1:3] for c in MALFORMED_SCALARS}
    if case in scalars:
        return (MINIMAL + SIM_DT).replace(*scalars[case])
    behaviors = {c[0]: c[1:4] for c in PARSE_ERRORS}
    if case in behaviors:
        controller, completion, edit = behaviors[case]
        behavior = behavior_doc(controller, completion)
        edit(behavior)
        return mission_text(behavior)
    return {"missing-section": NO_BEHAVIORS, "position-count": MINIMAL.replace("n: 2", "n: 3")}[case]


class TestParseErrors:
    @pytest.mark.parametrize("controller", sorted(CONTROLLERS))
    @pytest.mark.parametrize("completion", sorted(COMPLETIONS))
    def test_every_controller_and_completion_parses(self, controller, completion):
        plan, _ = parse_mission(mission_text(behavior_doc(controller, completion)))
        assert len(plan.behaviors) == 1 and len(plan.behaviors[0].initial_constraints) == 1

    @pytest.mark.parametrize(
        "controller, completion, edit, match",
        [case[1:] for case in PARSE_ERRORS],
        ids=[case[0] for case in PARSE_ERRORS],
    )
    def test_malformed_behavior(self, controller, completion, edit, match):
        behavior = behavior_doc(controller, completion)
        edit(behavior)
        with pytest.raises(MissionFormatError, match=re.escape(match)):
            parse_mission(mission_text(behavior))

    def test_every_case_has_its_error_text(self):
        cases = [c[0] for c in MALFORMED_SCALARS + PARSE_ERRORS] + ["missing-section", "position-count"]
        assert sorted(cases) == sorted(ERROR_TEXT)

    @pytest.mark.parametrize("case", list(ERROR_TEXT))
    def test_error_text(self, case):
        with pytest.raises(MissionFormatError) as exc:
            parse_mission(broken_mission(case))
        assert str(exc.value) == ERROR_TEXT[case]


def domain(plan):
    """The bounds and obstacles by value (an obstacle's center is an array)."""
    d = plan.domain
    return (d.xmin, d.xmax, d.ymin, d.ymax), [(o.center.tolist(), o.a, o.b) for o in d.obstacles]


# sha256 of serialize_mission's text of each built-in and of MINIMAL: the
# fixed-point test cannot see a change that parse and serialize make alike
SERIALIZED_SHA256 = {
    "two_behavior_demo": "2cdbf48d5ef88f08f79dfc63a5bc7b16edaf9931503f1d7a653bea656283cd92",
    "seven_behavior_energy": "4ab2d3acc1599b23c4cf72baca6a0303c8c8cfd7a2c81d1ed3e0419d864677cb",
    "securing_a_building": "28a48e53d0ae1d205d898d386ae400bdaad5c4eea2cfa67c81477d28e259c874",
    "MINIMAL": "45e621577701eff9840fe96c852da90ca171caa711e05f4ed8dcf4445fea7ad2",
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", list(SERIALIZED_SHA256))
    def test_serialized_bytes(self, name):
        plan, config = parse_mission(MINIMAL) if name == "MINIMAL" else builtin_scenario(name)
        assert hashlib.sha256(serialize_mission(plan, config).encode()).hexdigest() == SERIALIZED_SHA256[name]

    @pytest.mark.parametrize("name", builtin_scenario_names())
    def test_serialize_parse_fixed_point(self, name):
        plan, config = builtin_scenario(name)
        text1 = serialize_mission(plan, config)
        plan2, config2 = parse_mission(text1)
        text2 = serialize_mission(plan2, config2)
        assert text1 == text2
        assert config2 == config
        assert plan2.n == plan.n
        np.testing.assert_array_equal(plan2.initial_positions, plan.initial_positions)
        assert plan2.behaviors == plan.behaviors
        assert domain(plan2) == domain(plan)
        assert (plan2.fcbf, plan2.delta, plan2.min_sep) == (plan.fcbf, plan.delta, plan.min_sep)
        assert plan2.rescue == plan.rescue

    def test_every_setting_off_its_default_round_trips(self):
        # every [sim], rate and [rescue] key is read and written from its
        # field, and a key left out keeps the field's default
        plan, _ = builtin_scenario("securing_a_building")
        plan = replace(plan, fcbf=FcbfParams(rho=0.3, gamma=2.5))
        config = SimConfig(dt=0.01, max_ticks=123, speed_limit=0.3, delay=DelaySpec.uniform(2, 7), seed=9,
                           oracle_sensing=False, sigma_bar=0.5, eta_bar=0.6, staleness_ticks=7)
        assert all(getattr(config, f.name) != f.default for f in fields(SimConfig) if "kind" in f.metadata)
        text = serialize_mission(plan, config)
        plan2, config2 = parse_mission(text)
        assert config2 == config and plan2.fcbf == plan.fcbf and plan2.rescue == plan.rescue
        assert "glue_transitions" not in yaml.safe_load(text)["sim"]
        minimal, defaults = parse_mission(MINIMAL)
        assert defaults == SimConfig() and minimal.fcbf == FcbfParams() and minimal.rescue is None

    @pytest.mark.parametrize("controller", sorted(CONTROLLERS))
    @pytest.mark.parametrize("completion", sorted(COMPLETIONS))
    def test_every_controller_and_completion_round_trips(self, controller, completion):
        plan, config = parse_mission(mission_text(behavior_doc(controller, completion)))
        plan2, _ = parse_mission(serialize_mission(plan, config))
        assert plan2.behaviors == plan.behaviors


class TestValidate:
    def test_builtins_are_clean(self):
        for name in builtin_scenario_names():
            plan, _ = builtin_scenario(name)
            assert validate(plan) == [], name

    def test_cyclic_pursuit_on_path_flagged(self):
        plan, _ = parse_mission(
            MINIMAL.replace(
                "controller: rendezvous",
                "controller: cyclic_pursuit\n    angle: 0.5",
            )
        )
        out = validate(plan)
        assert any("cycle" in v for v in out)

    def test_coincident_initial_positions(self):
        bad = MINIMAL.replace("[[0.0, 0.0], [0.3, 0.0]]", "[[0.0, 0.0], [0.0, 0.0]]")
        plan, _ = parse_mission(bad)
        out = validate(plan)
        assert any("minimum separation" in v for v in out)

    def test_start_separation_is_checked_pair_by_pair_in_order(self):
        # one barrier evaluation over all pairs flags the pairs a loop over
        # i < j would, in the same order, a pair exactly min_sep apart included
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 12):
            x = rng.uniform(-0.3, 0.3, (n, 2))
            if n > 1:
                x[0], x[1] = (0.0, 0.0), (0.12, 0.0)
            plan = MissionPlan(n, x, (), Domain(-1, 1, -1, 1), FcbfParams(), 0.5, 0.12)
            want = [f"robots {i} and {j} start within the minimum separation"
                    for i in range(1, n + 1) for j in range(i + 1, n + 1)
                    if Collision(i, j, 0.12).value(x[i - 1] - x[j - 1]) <= 0]
            assert [v for v in validate(plan) if "minimum separation" in v] == want
            assert len(want) >= {1: 0, 2: 1, 7: 2, 12: 2}[n] and (n == 1 or want[0].startswith("robots 1 and 2 "))

    def test_position_outside_domain(self):
        bad = MINIMAL.replace("[[0.0, 0.0], [0.3, 0.0]]", "[[0.0, 0.0], [5.0, 0.0]]")
        plan, _ = parse_mission(bad)
        out = validate(plan)
        assert any("outside the domain" in v for v in out)

    def test_no_robots(self):
        empty = MINIMAL.replace("n: 2", "n: 0").replace("[[0.0, 0.0], [0.3, 0.0]]", "[]").replace("[[1, 2]]", "[]")
        plan, _ = parse_mission(empty)
        assert validate(plan) == ["mission has no robots"]

    def test_delta_must_exceed_min_sep(self):
        bad = MINIMAL.replace("delta: 0.5", "delta: 0.1")
        plan, _ = parse_mission(bad)
        out = validate(plan)
        assert any("minimum separation" in v for v in out)

    @pytest.mark.parametrize("min_sep", [0.0, -0.1])
    def test_min_sep_must_be_positive(self, min_sep):
        plan, _ = parse_mission(MINIMAL.replace("delta: 0.5", f"delta: 0.5\n  min_sep: {min_sep}"))
        assert validate(plan) == ["minimum separation must be positive"]

    def test_empty_escort_group(self):
        # a rescue with no escorting robots has no group centroid to bring
        # into the safe zone; before this check the run ended in a traceback
        rescue = "rescue: {target: [0.0, 0.35], safe_zone: {center: [0, 0], radius: 0.2}, escort_behavior: 1, " \
                 "escort_robots: []}\n"
        plan, _ = parse_mission(MINIMAL + rescue)
        assert validate(plan) == ["rescue: escort group is empty"]

    @pytest.mark.parametrize("radius", [0.0, -0.2])
    def test_safe_zone_radius_must_be_positive(self, radius):
        # the zone is a keep-within barrier, which needs a positive radius
        rescue = (f"rescue: {{target: [0.0, 0.35], safe_zone: {{center: [0, 0], radius: {radius}}}, "
                  "escort_behavior: 1, escort_robots: [1]}\n")
        with pytest.raises(ValueError, match="^rescue: safe-zone radius must be positive$"):
            parse_mission(MINIMAL + rescue)

    def test_start_inside_an_obstacle(self):
        # robot 1 starts on the first obstacle's boundary, which is allowed,
        # and robot 2 inside the second
        obstacles = "\n  obstacles: [{center: [0.0, 0.5], a: 4.0, b: 4.0}, {center: [0.3, 0.1], a: 25.0, b: 25.0}]"
        plan, _ = parse_mission(MINIMAL.replace("bounds: [-1, 1, -1, 1]", "bounds: [-1, 1, -1, 1]" + obstacles))
        assert validate(plan) == ["initial position of robot 2 lies inside obstacle 2"]


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_scenario("lost_in_space")

    def test_demo_structure(self):
        plan, _ = builtin_scenario("two_behavior_demo")
        assert len(plan.behaviors) == 2
        b1, b2 = plan.behaviors
        assert isinstance(b1.controller, CyclicPursuit)
        assert isinstance(b2.controller, LeaderFollower)
        cycle = InteractionGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        assert b1.required_graph.edges == cycle.edges
        assert b2.required_graph.edges == cycle.edges | {(2, 5), (3, 5)}
        assert plan.delta == 0.5

    def test_seven_behavior_structure(self):
        plan, _ = builtin_scenario("seven_behavior_energy")
        assert plan.n == 6
        assert len(plan.behaviors) == 7
        graphs = [b.required_graph.edges for b in plan.behaviors]
        assert any(a != b for a, b in zip(graphs, graphs[1:]))

    def test_securing_structure(self):
        plan, _ = builtin_scenario("securing_a_building")
        assert plan.n == 8
        assert plan.delta == 0.5
        assert plan.rescue is not None
        assert plan.rescue.escort_robots == (1, 2, 3, 4)
        assert len(plan.domain.obstacles) > 5


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


class TestReadme:
    def grammar(self):
        with open(README, encoding="utf-8") as fh:
            return fh.read().split("```yaml\n", 1)[1].split("```", 1)[0]

    def test_grammar_lists_every_controller(self):
        listed = re.search(r"controller: \w+ +#(.*?)\n +graph:", self.grammar(), re.S).group(1)
        assert sorted(re.findall(r"[a-z_]+", listed)) == sorted(mission.CONTROLLERS)

    def test_grammar_lists_every_completion_type_with_its_keys(self):
        listed = self.grammar().split("# completion types:", 1)[1].split("initial_constraints:", 1)[0]
        keys = {name: sorted(k.strip() for k in ks.split(",")) for name, ks in re.findall(r"(\w+) \{(.*?)\}", listed)}
        assert keys == {
            name: sorted(f.metadata.get("key") or f.name for f in fields(cls))
            for name, cls in mission.COMPLETIONS.items()
        }

    def test_grammar_lists_every_sim_key(self):
        listed = re.findall(r"^  (\w+):", self.grammar().split("\nsim:\n", 1)[1], re.M)
        assert sorted(listed) == sorted([f.name for f in fields(SimConfig) if "kind" in f.metadata] + ["delta"])

    def section(self, name):
        """The README grammar's ``name:`` section, up to the next blank line."""
        return self.grammar().split(f"{name}:\n", 1)[1].split("\n\n", 1)[0]

    def test_grammar_lists_every_mission_key(self):
        # MissionPlan's mission.* keys, and FcbfParams' rate keys, which sit
        # in [mission] itself: MissionPlan.fcbf's key is "mission."
        listed = re.findall(r"^  (\w+):", self.section("mission"), re.M)
        keys = [f.metadata["key"] or "" for f in fields(MissionPlan)]
        schema = [k.removeprefix("mission.") for k in keys if k.startswith("mission.") and k != "mission."]
        assert sorted(listed) == sorted(schema + [f.name for f in fields(FcbfParams)])

    def test_grammar_lists_every_domain_and_obstacle_key(self):
        listed = re.findall(r"^  (\w+):", self.section("domain"), re.M)
        plan, _ = builtin_scenario("securing_a_building")
        assert sorted(listed) == sorted(mission._write(plan)["domain"])
        obstacle = re.search(r"^    - \{(.*)\}", self.section("domain"), re.M).group(1)
        assert sorted(re.findall(r"(\w+):", obstacle)) == sorted(
            f.metadata["key"] or f.name for f in fields(Obstacle) if "kind" in f.metadata)


LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def sample_missions():
    """Every builtin scenario's text, the minimal document and one mission per
    controller and completion type."""
    from importlib import resources

    scenarios = resources.files("swarmseq.scenarios")
    return [scenarios.joinpath(f"{name}.yaml").read_text() for name in builtin_scenario_names()] + [MINIMAL] + [
        mission_text(behavior_doc(c, k)) for c in sorted(CONTROLLERS) for k in sorted(COMPLETIONS)
    ]


class TestLoaders:
    def test_libyaml_parses_when_pyyaml_has_it(self):
        assert mission.YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)

    def test_every_loader_builds_the_same_document_and_mission(self, monkeypatch):
        for text in sample_missions():
            docs, missions = [], []
            for loader in LOADERS:
                monkeypatch.setattr(mission, "YAML_LOADER", loader)
                docs.append(yaml.load(text, Loader=loader))
                missions.append(serialize_mission(*parse_mission(text)))
            assert all(doc == docs[0] for doc in docs) and all(m == missions[0] for m in missions)

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("text", ["mission: [unclosed", "a: b: c", "mission: {n: 1", "key: 'open", "- a\nb: c"])
    def test_malformed_yaml_is_a_format_error_under_every_loader(self, monkeypatch, loader, text):
        monkeypatch.setattr(mission, "YAML_LOADER", loader)
        with pytest.raises(MissionFormatError, match="not valid YAML"):
            parse_mission(text)
