import numpy as np
import pytest

from swarmseq.behaviors import CyclicPursuit, LeaderFollower
from swarmseq.geometry import InteractionGraph
from swarmseq.mission import (
    MissionFormatError,
    builtin_scenario,
    builtin_scenario_names,
    parse_mission,
    serialize_mission,
    validate,
)

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
        ],
        ids=[
            "dt", "delay-max-missing", "delay-max", "delay-not-a-mapping", "seed", "delta", "n",
            "bounds-entry", "bounds-length", "duration", "delta-inf", "dt-nan", "speed-limit-nan",
            "n-fractional", "position-nan", "bounds-inf", "edge-fractional", "seed-fractional",
            "staleness-fractional", "angle-nan", "distance-robot-fractional", "distance-inf",
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
        assert len(plan2.behaviors) == len(plan.behaviors)
        np.testing.assert_array_equal(plan2.initial_positions, plan.initial_positions)
        for a, b in zip(plan.behaviors, plan2.behaviors):
            assert a.required_graph.edges == b.required_graph.edges
            assert a.completion == b.completion
            assert type(a.controller) is type(b.controller)
        assert plan2.rescue == plan.rescue


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

    def test_position_outside_domain(self):
        bad = MINIMAL.replace("[[0.0, 0.0], [0.3, 0.0]]", "[[0.0, 0.0], [5.0, 0.0]]")
        plan, _ = parse_mission(bad)
        out = validate(plan)
        assert any("outside the domain" in v for v in out)

    def test_delta_must_exceed_min_sep(self):
        bad = MINIMAL.replace("delta: 0.5", "delta: 0.1")
        plan, _ = parse_mission(bad)
        out = validate(plan)
        assert any("minimum separation" in v for v in out)


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
