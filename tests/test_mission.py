import copy
import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml

from swarmseq.barriers import Collision, FcbfParams
from swarmseq.behaviors import CyclicPursuit, LeaderFollower
from swarmseq import mission
from swarmseq.geometry import Domain, InteractionGraph
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
            parse_mission("mission: {n: 1, delta: 0.5, initial_positions: [[0, 0]]}\ndomain: {bounds: [-1, 1, -1, 1]}")

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
        "old, new, match",
        [
            ("dt: 0.02", "dt: abc", "dt"),
            ("dt: 0.02", "delay: {min: 1}", "max"),
            ("dt: 0.02", "delay: {min: 1, max: x}", "max"),
            ("dt: 0.02", "delay: uniform", "delay"),
            ("dt: 0.02", "seed: [1]", "seed"),
            ("delta: 0.5", "delta: far", "delta"),
            ("n: 2", "n: two", "'n'"),
            ("bounds: [-1, 1, -1, 1]", "bounds: [-1, 1, x, 1]", "bounds"),
            ("bounds: [-1, 1, -1, 1]", "bounds: [-1, 1]", "bounds"),
            ("duration: 1.0", "duration: soon", "duration"),
            ("delta: 0.5", "delta: .inf", "delta"),
            ("dt: 0.02", "dt: .nan", "dt"),
            ("dt: 0.02", "speed_limit: .nan", "speed_limit"),
            ("n: 2", "n: 2.5", "'n'"),
            ("[[0.0, 0.0], [0.3, 0.0]]", "[[0.0, .nan], [0.3, 0.0]]", "2-vector"),
            ("bounds: [-1, 1, -1, 1]", "bounds: [-1, 1, -1, .inf]", "bounds"),
            ("graph: [[1, 2]]", "graph: [[1.5, 2]]", "edge"),
            ("dt: 0.02", "seed: 1.5", "seed"),
            ("dt: 0.02", "staleness_ticks: 2.5", "staleness_ticks"),
            ("controller: rendezvous", "controller: cyclic_pursuit\n    angle: .nan", "angle"),
            ("controller: rendezvous", "controller: formation\n    distances: [[1.5, 2, 0.3]]", "distances"),
            ("controller: rendezvous", "controller: formation\n    distances: [[1, 2, .inf]]", "distances"),
            ("controller: rendezvous", "controller: go_to_goal\n    goals: {first: [0, 0]}", "'goals'.*finite int"),
            ("controller: rendezvous", "controller: go_to_goal\n    goals: {1.5: [0, 0]}", "'goals'.*finite int"),
            ("controller: rendezvous", "controller: go_to_goal\n    goals: [[0, 0]]", "'goals'.*mapping"),
            ("behaviors:\n", "behaviors: 5\nunused:\n", "'behaviors'.*list"),
            ("[[0.0, 0.0], [0.3, 0.0]]", "5", "'initial_positions'.*list"),
            ("bounds: [-1, 1, -1, 1]", "bounds: [-1, 1, -1, 1]\n  obstacles: 5", "'obstacles'.*list"),
            ("graph: [[1, 2]]", "graph: [[1, 2]]\n    initial_constraints: 5", "'initial_constraints'.*list"),
            ("controller: rendezvous", "controller: formation\n    distances: 5", "'distances'.*list"),
            ("controller: rendezvous", "controller: composite\n    groups: 5", "'groups'.*list"),
        ],
        ids=[
            "dt", "delay-max-missing", "delay-max", "delay-not-a-mapping", "seed", "delta", "n",
            "bounds-entry", "bounds-length", "duration", "delta-inf", "dt-nan", "speed-limit-nan",
            "n-fractional", "position-nan", "bounds-inf", "edge-fractional", "seed-fractional",
            "staleness-fractional", "angle-nan", "distance-robot-fractional", "distance-inf",
            "goal-robot", "goal-robot-fractional", "goals-not-a-mapping", "behaviors-scalar",
            "positions-scalar", "obstacles-scalar", "initial-constraints-scalar", "distances-scalar",
            "groups-scalar",
        ],
    )
    def test_malformed_scalar(self, old, new, match):
        text = MINIMAL + "sim:\n  dt: 0.02\n"
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


def domain(plan):
    """The bounds and obstacles by value (an obstacle's center is an array)."""
    d = plan.domain
    return (d.xmin, d.xmax, d.ymin, d.ymax), [(o.center.tolist(), o.a, o.b) for o in d.obstacles]


class TestRoundTrip:
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
