import numpy as np
import pytest
from hypothesis import given, strategies as st

from swarmseq.barriers import (
    Collision,
    Connectivity,
    FcbfParams,
    KeepWithin,
    ObstacleAvoid,
    class_k,
    constraint_row,
    settling_time_bound,
    team_settling_bound,
)
from swarmseq.geometry import Domain, Obstacle, RobotState, proximity_graph


def states(*positions):
    return [RobotState(i + 1, np.array(p, dtype=float)) for i, p in enumerate(positions)]


def pts(*positions):
    return [np.array(p, dtype=float) for p in positions]


class TestClassK:
    def test_direct_values(self):
        assert class_k(4.0, FcbfParams(rho=0.5, gamma=1.0)) == pytest.approx(2.0)
        assert class_k(0.0, FcbfParams(rho=0.5, gamma=1.0)) == 0.0
        assert class_k(-3.0, FcbfParams(rho=0.0, gamma=2.0)) == pytest.approx(-2.0)

    @given(
        h=st.floats(-1e6, 1e6, allow_nan=False),
        rho=st.floats(0.0, 0.999),
        gamma=st.floats(1e-3, 1e3),
    )
    def test_odd(self, h, rho, gamma):
        p = FcbfParams(rho=rho, gamma=gamma)
        assert class_k(-h, p) == pytest.approx(-class_k(h, p), abs=1e-12)

    @given(
        hs=st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=20),
        rho=st.floats(0.0, 0.999),
        gamma=st.floats(1e-3, 1e3),
    )
    def test_monotone_nondecreasing(self, hs, rho, gamma):
        p = FcbfParams(rho=rho, gamma=gamma)
        vals = [class_k(h, p) for h in sorted(hs)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FcbfParams(rho=1.0)
        with pytest.raises(ValueError):
            FcbfParams(gamma=0.0)


class TestEvalBarrier:
    def test_connectivity_boundary(self):
        h = Connectivity(1, 2, 0.5).value(*pts((0, 0), (0.3, 0.4)))
        assert h == pytest.approx(0.0, abs=1e-15)

    def test_connectivity_interior(self):
        h = Connectivity(1, 2, 0.5).value(*pts((0, 0), (0.3, 0.0)))
        assert h == pytest.approx(0.16)

    def test_obstacle_boundary(self):
        kind = ObstacleAvoid(1, Obstacle(np.zeros(2), 1.0, 1.0))
        assert kind.value(*pts((1, 0))) == pytest.approx(0.0)

    def test_collision_sign(self):
        x = pts((0, 0), (0.1, 0.0))
        assert Collision(1, 2, 0.12).value(*x) < 0
        assert Collision(1, 2, 0.05).value(*x) > 0

    def test_keep_within(self):
        kind = KeepWithin(1, (0.0, 0.0), 1.0)
        assert kind.value(*pts((1, 0))) == pytest.approx(0.0)
        assert kind.value(*pts((0.5, 0))) > 0

    def test_connectivity_matches_proximity_graph(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=(4, 2))
            g = proximity_graph(states(*x), 0.5)
            for i in range(1, 5):
                for j in range(i + 1, 5):
                    h = Connectivity(i, j, 0.5).value(x[i - 1], x[j - 1])
                    assert (h >= 0) == g.has_edge(i, j)

    def test_trajectory_equals_tick_by_tick(self):
        # one method serves one tick and a whole (ticks, 2) trajectory, bitwise
        rng = np.random.default_rng(8)
        xi, xj = rng.uniform(-2, 2, size=(2, 300, 2))
        obstacle = Obstacle(np.array([0.2, -0.1]), 2.0, 0.5)
        kinds = [
            (Connectivity(1, 2, 0.5), (xi, xj)),
            (Collision(1, 2, 0.12), (xi, xj)),
            (ObstacleAvoid(1, obstacle), (xi,)),
            (KeepWithin(1, (0.1, 0.3), 0.8), (xi,)),
        ]
        for kind, x in kinds:
            values = kind.value(*x)
            assert values.shape == (300,)
            for t in range(300):
                at_t = [p[t] for p in x]
                assert values[t] == kind.value(*at_t)
                np.testing.assert_array_equal(kind.gradient(*x)[t], kind.gradient(*at_t))

    def test_stacked_obstacles_equal_one_by_one(self):
        rng = np.random.default_rng(9)
        obstacles = [
            Obstacle(rng.uniform(-1, 1, 2), float(a), float(b))
            for a, b in rng.uniform(0.5, 20, size=(7, 2))
        ]
        domain = Domain(-2, 2, -2, 2, tuple(obstacles))
        for x in rng.uniform(-2, 2, size=(50, 2)):
            stacked = ObstacleAvoid(1, domain.obstacle_stack).value(x)
            single = [ObstacleAvoid(1, o).value(x) for o in obstacles]
            np.testing.assert_array_equal(stacked, single)


class TestConstraintRow:
    def test_connectivity_half_share_hand_value(self):
        # h = 0.25 - 1 = -0.75; rate = sign(h)*|h|^0.5 = -0.86603;
        # offset = -rate/2 = +0.43301; gradient wrt robot 1 = -2*(x1 - x2).
        row = constraint_row(
            Connectivity(1, 2, 0.5), FcbfParams(rho=0.5, gamma=1.0), *pts((1, 0), (0, 0))
        )
        assert row.robot == 1
        np.testing.assert_allclose(row.normal, [-2.0, 0.0])
        assert row.offset == pytest.approx(0.4330127018922193, abs=1e-12)
        assert not row.hard

    def test_collision_at_boundary_reduces_to_homogeneous(self):
        row = constraint_row(Collision(1, 2, 0.12), FcbfParams(), *pts((0.12, 0), (0, 0)))
        assert row.offset == pytest.approx(0.0, abs=1e-15)
        assert row.hard

    def test_obstacle_boundary_gradient(self):
        kind = ObstacleAvoid(1, Obstacle(np.zeros(2), 1.0, 1.0))
        row = constraint_row(kind, FcbfParams(), *pts((1, 0)))
        np.testing.assert_allclose(row.normal, [2.0, 0.0])
        assert row.offset == pytest.approx(0.0, abs=1e-15)

    def test_full_share_doubles_offset(self):
        # the same h = -0.75 as a pairwise and as a single-robot barrier: the
        # pairwise row, enforced by both endpoints, carries half the rate
        params = FcbfParams()
        pair = constraint_row(Connectivity(1, 2, 0.5), params, *pts((1, 0), (0, 0)))
        single = constraint_row(KeepWithin(1, (0.0, 0.0), 0.5), params, *pts((1, 0)))
        assert pair.offset == -class_k(-0.75, params) / 2
        assert single.offset == -class_k(-0.75, params)
        assert single.offset == 2 * pair.offset

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        obstacle = Obstacle(np.array([0.2, -0.1]), 2.0, 0.5)
        for _ in range(30):
            x1, x2 = rng.uniform(-1, 1, size=(2, 2))
            kinds = [
                (Connectivity(1, 2, 0.5), [x1, x2]),
                (Connectivity(2, 1, 0.5), [x2, x1]),
                (Collision(1, 2, 0.12), [x1, x2]),
                (ObstacleAvoid(1, obstacle), [x1]),
                (KeepWithin(2, (0.1, 0.3), 0.8), [x2]),
            ]
            for kind, x in kinds:
                row = constraint_row(kind, FcbfParams(), *x)
                step = 1e-6
                fd = np.zeros(2)
                for axis in range(2):
                    for sign in (1, -1):
                        shifted = [p.copy() for p in x]
                        shifted[0][axis] += sign * step
                        fd[axis] += sign * kind.value(*shifted)
                    fd[axis] /= 2 * step
                np.testing.assert_allclose(row.normal, fd, rtol=1e-4, atol=1e-6)


class TestSettlingBounds:
    def test_direct_formula(self):
        assert settling_time_bound(-1.0, FcbfParams(0.5, 1.0)) == pytest.approx(2.0)
        assert settling_time_bound(0.3, FcbfParams(0.5, 1.0)) == 0.0
        assert settling_time_bound(-4.0, FcbfParams(0.5, 2.0)) == pytest.approx(2.0)

    def test_team_bound_is_max_over_violations(self):
        p = FcbfParams(0.5, 1.0)
        assert team_settling_bound([((1, 2), 0.2), ((2, 3), 1.0)], p) == 0.0
        assert team_settling_bound([((1, 2), -1.0), ((2, 3), -4.0)], p) == pytest.approx(4.0)
        assert team_settling_bound([((1, 2), -2.0)], p) == pytest.approx(
            settling_time_bound(-2.0, p)
        )

    def test_half_share_closed_loop_meets_bound(self):
        # Both robots step along their half-share row boundary; the barrier must
        # cross zero no later than the bound plus one Euler step.
        params = FcbfParams(rho=0.5, gamma=1.0)
        dt = 0.02
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=(2, 2))
            h0 = Connectivity(1, 2, 0.5).value(x[0], x[1])
            if h0 >= 0:
                continue
            bound = settling_time_bound(h0, params)
            t = 0.0
            crossed = None
            while t <= bound + 5 * dt:
                h = Connectivity(1, 2, 0.5).value(x[0], x[1])
                if h >= 0:
                    crossed = t
                    break
                rows = [
                    constraint_row(Connectivity(1, 2, 0.5), params, x[0], x[1]),
                    constraint_row(Connectivity(2, 1, 0.5), params, x[1], x[0]),
                ]
                for row in rows:
                    n2 = float(row.normal @ row.normal)
                    u = row.normal * (row.offset / n2)
                    x[row.robot - 1] += dt * u
                t += dt
            assert crossed is not None
            assert crossed <= bound + dt + 1e-9
