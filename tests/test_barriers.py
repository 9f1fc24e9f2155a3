import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swarmseq.barriers import (
    Collision,
    Connectivity,
    FcbfParams,
    KeepWithin,
    ObstacleAvoid,
    RowBlock,
    class_k,
    constraint_row,
    settling_time_bound,
    team_settling_bound,
)
from swarmseq.geometry import Domain, Obstacle, proximity_graph
from swarmseq.qp import QpProblem


def pts(*positions):
    return [np.array(p, dtype=float) for p in positions]


def rows_at(kind, params, *positions):
    """``constraint_row`` of the kind's own values at ``positions``."""
    return constraint_row(kind, params, kind.value(*positions), *positions)


def scalar_rate(h, params):
    """The class-K rate one value at a time, with Python's libm pow."""
    if h == 0.0:
        return 0.0
    return params.gamma * math.copysign(abs(h) ** params.rho, h)


def bits(a):
    """The float64 bit patterns of an array, so that -0.0 differs from 0.0."""
    return np.asarray(a, dtype=float).view(np.int64)


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
            g = proximity_graph(x, 0.5)
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
        kind = Connectivity(1, 2, 0.5)
        row = rows_at(kind, FcbfParams(rho=0.5, gamma=1.0), *pts((1, 0), (0, 0))).named(kind)
        assert row.robot == 1 and len(row) == 1
        np.testing.assert_allclose(row.normals, [[-2.0, 0.0]])
        assert row.offsets[0] == pytest.approx(0.4330127018922193, abs=1e-12)
        assert row.hard is False
        assert row.kinds == (Connectivity,) and row.others.tolist() == [2]

    def test_collision_at_boundary_reduces_to_homogeneous(self):
        row = rows_at(Collision(1, 2, 0.12), FcbfParams(), *pts((0.12, 0), (0, 0)))
        assert row.offsets[0] == pytest.approx(0.0, abs=1e-15)
        assert row.hard is True

    def test_obstacle_boundary_gradient(self):
        kind = ObstacleAvoid(1, Obstacle(np.zeros(2), 1.0, 1.0))
        row = rows_at(kind, FcbfParams(), *pts((1, 0)))
        np.testing.assert_allclose(row.normals, [[2.0, 0.0]])
        assert row.offsets[0] == pytest.approx(0.0, abs=1e-15)

    def test_full_share_doubles_offset(self):
        # the same h = -0.75 as a pairwise and as a single-robot barrier: the
        # pairwise row, enforced by both endpoints, carries half the rate
        params = FcbfParams()
        pair = rows_at(Connectivity(1, 2, 0.5), params, *pts((1, 0), (0, 0)))
        single = rows_at(KeepWithin(1, (0.0, 0.0), 0.5), params, *pts((1, 0)))
        assert pair.offsets[0] == -class_k(-0.75, params) / 2
        assert single.offsets[0] == -class_k(-0.75, params)
        assert single.offsets[0] == 2 * pair.offsets[0]

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
                row = rows_at(kind, FcbfParams(), *x)
                step = 1e-6
                fd = np.zeros(2)
                for axis in range(2):
                    for sign in (1, -1):
                        shifted = [p.copy() for p in x]
                        shifted[0][axis] += sign * step
                        fd[axis] += sign * kind.value(*shifted)
                    fd[axis] /= 2 * step
                np.testing.assert_allclose(row.normals[0], fd, rtol=1e-4, atol=1e-6)


class TestRowBlocks:
    """The array paths equal the scalar formulas they replace, bit for bit."""

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.75])
    def test_vector_rate_equals_scalar_rate(self, rho):
        rng = np.random.default_rng(int(rho * 100))
        special = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1.0, -1.0, 0.75, -0.75]
        h = np.concatenate([
            special,
            rng.uniform(-1, 1, 4000),
            rng.standard_normal(2000) * 1e-6,
            -np.exp(rng.uniform(-700, 700, 2000)),
            np.exp(rng.uniform(-700, 700, 2000)),
        ])
        for gamma in (1.0, 1.7):
            params = FcbfParams(rho=rho, gamma=gamma)
            expected = [scalar_rate(v, params) for v in h.tolist()]
            np.testing.assert_array_equal(bits(class_k(h, params)), bits(expected))
            for v, e in zip(h[:len(special)].tolist(), expected):
                assert bits(class_k(v, params)) == bits(e)

    def test_pairwise_blocks_equal_rows_one_at_a_time(self):
        rng = np.random.default_rng(21)
        params = FcbfParams(rho=0.5, gamma=1.3)
        for _ in range(200):
            xi = rng.uniform(-1, 1, 2)
            others = tuple(int(j) for j in rng.choice(np.arange(2, 12), rng.integers(1, 8), replace=False))
            xs = rng.uniform(-1, 1, (len(others), 2))
            if rng.random() < 0.2:  # a partner exactly at the barrier boundary
                xs[0] = xi + [0.5, 0.0]
            for make in (lambda j: Connectivity(1, j, 0.5), lambda j: Collision(1, j, 0.5)):
                block = rows_at(make(others), params, xi, xs).named(make(others))
                assert block.robot == 1 and len(block) == len(others)
                assert block.others.tolist() == list(others)
                assert block.kinds == (type(make(2)),) * len(others)
                for r, (j, xj) in enumerate(zip(others, xs)):
                    kind = make(j)
                    h = float(kind.value(xi, xj))
                    assert bits(block.normals[r]).tolist() == bits(kind.gradient(xi, xj)).tolist()
                    assert bits(block.offsets[r]) == bits(-kind.share * scalar_rate(h, params))
                    assert block.hard is kind.hard

    def test_obstacle_block_equals_rows_one_at_a_time(self):
        rng = np.random.default_rng(22)
        obstacles = [
            Obstacle(rng.uniform(-1, 1, 2), float(a), float(b))
            for a, b in rng.uniform(0.5, 20, size=(9, 2))
        ]
        domain = Domain(-2, 2, -2, 2, tuple(obstacles))
        params = FcbfParams()
        for x in rng.uniform(-2, 2, size=(300, 2)):
            kind = ObstacleAvoid(3, domain.obstacle_stack)
            active = np.flatnonzero(kind.value(x) <= 3.0)
            block = rows_at(kind, params, x).named(kind).take(active)
            assert block.robot == 3 and block.others.tolist() == (active + 1).tolist()
            assert block.kinds == (ObstacleAvoid,) * len(active) and block.hard is True
            for r, m in enumerate(active):
                single = ObstacleAvoid(3, obstacles[m])
                h = float(single.value(x))
                assert bits(block.normals[r]).tolist() == bits(single.gradient(x)).tolist()
                assert bits(block.offsets[r]) == bits(-single.share * scalar_rate(h, params))

    def test_keep_within_block_equals_its_scalar_row(self):
        params = FcbfParams(rho=0.3, gamma=2.0)
        kind = KeepWithin(2, (0.1, -0.2), 0.4)
        for x in np.random.default_rng(23).uniform(-1, 1, size=(100, 2)):
            block = rows_at(kind, params, x).named(kind)
            assert block.robot == 2 and block.others.tolist() == [1] and block.hard is False
            assert bits(block.normals[0]).tolist() == bits(kind.gradient(x)).tolist()
            assert bits(block.offsets[0]) == bits(-scalar_rate(float(kind.value(x)), params))

    def test_concat_and_take_keep_rows_and_identity(self):
        params = FcbfParams()
        x = np.array([0.0, 0.0])
        kinds = Connectivity(1, (2, 3), 0.5), Collision(1, (2,), 0.12)
        conn = rows_at(kinds[0], params, x, np.array([[0.1, 0], [0, 0.7]])).named(kinds[0])
        coll = rows_at(kinds[1], params, x, np.array([[0.1, 0]])).named(kinds[1])
        rows = RowBlock.concat([conn, coll])
        assert len(rows) == 3 and rows.others.tolist() == [2, 3, 2]
        assert rows.kinds == (Connectivity, Connectivity, Collision)
        assert rows.hard.tolist() == [False, False, True]
        np.testing.assert_array_equal(rows.offsets, np.concatenate([conn.offsets, coll.offsets]))
        picked = rows.take(np.array([2, 0]))
        assert picked.kinds == (Collision, Connectivity) and picked.others.tolist() == [2, 2]
        np.testing.assert_array_equal(picked.normals, rows.normals[[2, 0]])
        assert len(RowBlock.concat([])) == 0
        with pytest.raises(ValueError):
            RowBlock.concat([conn, rows_at(Collision(2, 1, 0.12), params, x, x + 0.5)])

    def test_rows_carry_their_identity_only_once_named(self):
        params = FcbfParams()
        x = np.array([0.0, 0.0])
        kind = Collision(1, (2, 3), 0.12)
        rows = rows_at(kind, params, x, np.array([[0.1, 0], [0, 0.7]]))
        assert rows.others is None and rows.kinds is None
        named = rows.named(kind)
        assert named.kinds == (Collision, Collision) and named.others.tolist() == [2, 3]
        assert bits(named.offsets).tolist() == bits(rows.offsets).tolist()
        assert RowBlock.concat([named, rows]).kinds is None and rows.take(np.array([1])).others is None
        layout = QpProblem(np.zeros(2), [named, rows], 0.2).rows
        assert layout.block(0).kinds == (None,) * 4 and layout.block(0).others.tolist() == [0] * 4

    def test_a_stack_may_not_pair_a_robot_with_itself(self):
        with pytest.raises(ValueError):
            Connectivity(2, (1, 2, 3), 0.5)
        with pytest.raises(ValueError):
            Collision(np.array([1, 2]), np.array([3, 2]), 0.12)
        Connectivity(np.array([1, 2]), np.array([2, 3]), 0.5)


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
                    rows_at(Connectivity(1, 2, 0.5), params, x[0], x[1]),
                    rows_at(Connectivity(2, 1, 0.5), params, x[1], x[0]),
                ]
                for row in rows:
                    normal, offset = row.normals[0], row.offsets[0]
                    u = normal * (offset / float(normal @ normal))
                    x[row.robot - 1] += dt * u
                t += dt
            assert crossed is not None
            assert crossed <= bound + dt + 1e-9
