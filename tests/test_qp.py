import numpy as np
import pytest

from swarmseq.barriers import RowBlock
from swarmseq.qp import QpProblem, kkt_residuals, oracle_solve, solve


def block(normals, offsets, hard, robot=1):
    """Bare rows (no barrier kind) on one robot's input."""
    k = len(offsets)
    return RowBlock(
        robot,
        np.array(normals, dtype=float).reshape(k, 2),
        np.array(offsets, dtype=float),
        np.array(hard, dtype=bool).reshape(k),
        np.zeros(k, dtype=int),
        (None,) * k,
    )


def row(nx, ny, b, hard=False):
    return block([[nx, ny]], [b], [hard])


def random_problem(rng, max_rows=6, hard_fraction=0.4):
    nominal = rng.uniform(-1, 1, 2)
    m = int(rng.integers(0, max_rows + 1))
    normals, offsets, hard = [], [], []
    for _ in range(m):
        a = rng.normal(size=2)
        normals.append(a / np.linalg.norm(a) * rng.uniform(0.3, 3.0))
        offsets.append(float(rng.uniform(-1, 1)))
        hard.append(bool(rng.random() < hard_fraction))
    return QpProblem(nominal, block(normals, offsets, hard), float(rng.uniform(0.3, 2.0)))


class TestBasics:
    def test_unconstrained_returns_nominal(self):
        p = QpProblem(np.array([1.0, 0.0]), (), 10.0)
        for s in (solve(p), oracle_solve(p)):
            np.testing.assert_allclose(s.u, [1.0, 0.0])
            assert s.status == "optimal"

    def test_halfplane_projection(self):
        p = QpProblem(np.array([1.0, 0.0]), (row(-1, 0, 0),), 10.0)
        for s in (solve(p), oracle_solve(p)):
            np.testing.assert_allclose(s.u, [0.0, 0.0], atol=1e-12)

    def test_corner_with_both_rows_active(self):
        p = QpProblem(np.array([1.0, 1.0]), (row(-1, 0, 0), row(0, -1, 0)), 10.0)
        ref = oracle_solve(p)
        got = solve(p)
        np.testing.assert_allclose(got.u, ref.u, atol=1e-12)
        np.testing.assert_allclose(got.u, [0.0, 0.0], atol=1e-12)

    def test_feasible_nominal_is_returned_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = random_problem(rng)
            s = solve(p)
            if s.status != "optimal":
                continue
            rows = p.rows.block(0)
            feasible = all(
                float(a @ p.nominal) >= b + 1e-9 for a, b in zip(rows.normals, rows.offsets)
            ) and float(np.max(np.abs(p.nominal))) <= p.speed_limit
            if feasible:
                assert np.array_equal(s.u, p.nominal) or float(
                    np.max(np.abs(s.u - p.nominal))
                ) <= 1e-12

    def test_box_is_enforced(self):
        p = QpProblem(np.array([5.0, -7.0]), (), 0.2)
        s = solve(p)
        np.testing.assert_allclose(s.u, [0.2, -0.2])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(np.array([np.inf, 0.0]), (), 1.0)
        with pytest.raises(ValueError):
            QpProblem(np.zeros(2), (row(np.nan, 1.0, 0.0),), 1.0)
        with pytest.raises(ValueError):
            QpProblem(np.zeros(2), (row(1.0, 0.0, 0.0), row(0.0, 1.0, np.inf)), 1.0)

    def test_mixed_robots_rejected(self):
        r1 = block([[1.0, 0.0]], [0.0], [False], robot=1)
        r2 = block([[1.0, 0.0]], [0.0], [False], robot=2)
        with pytest.raises(ValueError):
            QpProblem(np.zeros(2), (r1, r2), 1.0)

    def test_row_cap(self):
        rows = tuple(row(1, 0, -k) for k in range(64))
        assert len(QpProblem(np.zeros(2), rows, 1.0).rows) == 64
        with pytest.raises(ValueError):
            QpProblem(np.zeros(2), rows + (row(0, 1, 0),), 1.0)


class TestInfeasibility:
    def test_contradictory_hard_rows(self):
        p = QpProblem(np.zeros(2), (row(1, 0, 1, hard=True), row(-1, 0, 1, hard=True)), 10.0)
        for s in (solve(p), oracle_solve(p)):
            assert s.status == "infeasible_hard"
            np.testing.assert_allclose(s.u, [0.0, 0.0])

    def test_contradictory_soft_rows_relax(self):
        p = QpProblem(np.zeros(2), (row(1, 0, 1), row(-1, 0, 1)), 10.0)
        for s in (solve(p), oracle_solve(p)):
            assert s.status == "relaxed"
            np.testing.assert_allclose(s.u, [0.0, 0.0], atol=1e-9)
            assert s.slacks[0, :2].tolist() == pytest.approx([1.0, 1.0], abs=1e-6)
            assert not s.slacks[0, 2:].any()  # the box is never relaxed

    def test_hard_rows_respected_under_relaxation(self):
        # soft row collides with a hard row; hard must hold exactly
        p = QpProblem(np.zeros(2), (row(1, 0, 0.5, hard=True), row(-1, 0, 0.4)), 10.0)
        s = solve(p)
        assert s.status == "relaxed"
        assert float(s.u[0]) >= 0.5 - 1e-9

    def test_soft_row_beyond_box_relaxes(self):
        p = QpProblem(np.zeros(2), (row(1, 0, 5.0),), 0.2)
        s = solve(p)
        assert s.status == "relaxed"
        assert s.u[0] == pytest.approx(0.2)
        assert s.slacks[0, 0] == pytest.approx(4.8, rel=1e-6)


class TestOracleEquivalence:
    def test_random_instances_match(self):
        rng = np.random.default_rng(1234)
        for _ in range(400):
            p = random_problem(rng)
            s1 = solve(p)
            s2 = oracle_solve(p)
            assert s1.status == s2.status
            assert float(np.max(np.abs(s1.u - s2.u))) <= 1e-6

    def test_kkt_residuals_small(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            p = random_problem(rng)
            s = solve(p)
            if s.status == "infeasible_hard":
                continue
            res = kkt_residuals(p, s)
            assert max(res.values()) <= 1e-8, res

    def test_oracle_row_cap(self):
        rows = tuple(row(1, 0, -k) for k in range(13))
        with pytest.raises(ValueError):
            oracle_solve(QpProblem(np.zeros(2), rows, 1.0))


class TestRelaxation:
    """Robots whose soft rows are inconsistent: the relaxed answer against the oracle."""

    @staticmethod
    def draw(rng):
        """Up to four soft and three hard rows; a soft row is parallel (+1) or
        antiparallel (-1) to the one before it about one time in three."""
        ns, nh = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        normals = [rng.normal(size=2) for _ in range(ns + nh)]
        kinds = set()
        for s in range(1, ns):
            if rng.random() < 0.3:
                kind = float(rng.choice([-1.0, 1.0]))
                normals[s] = normals[s - 1] * kind * rng.uniform(0.5, 2.0)
                kinds.add(kind)
        hard = [False] * ns + [True] * nh
        problem = QpProblem(rng.uniform(-1, 1, 2), block(normals, rng.uniform(-1, 1, ns + nh), hard),
                            float(rng.uniform(0.3, 2.0)))
        return problem, kinds

    def test_relaxed_instances_match_the_oracle(self):
        rng = np.random.default_rng(2024)
        relaxed, paired = 0, {-1.0: 0, 1.0: 0}
        while relaxed < 1000:
            p, kinds = self.draw(rng)
            got, ref = solve(p), oracle_solve(p)
            assert got.status == ref.status
            if got.status != "relaxed":
                continue
            relaxed += 1
            for kind in kinds:
                paired[kind] += 1
            assert float(np.max(np.abs(got.u - ref.u))) <= 1e-6
            assert max(kkt_residuals(p, got).values()) <= 1e-8
        assert min(paired.values()) >= 50, paired

    def test_forty_soft_and_twenty_hard_rows(self):
        # beyond the oracle's twelve rows: only the optimality conditions
        rng = np.random.default_rng(40)
        for _ in range(5):
            inside = rng.uniform(-0.5, 0.5, 2)  # the hard rows hold here
            normals = rng.normal(size=(60, 2))
            offsets = np.r_[rng.uniform(-1, 1, 40), normals[40:] @ inside - rng.uniform(0, 0.5, 20)]
            p = QpProblem(rng.uniform(-1, 1, 2), block(normals, offsets, [False] * 40 + [True] * 20), 1.0)
            s = solve(p)
            assert s.status == "relaxed"
            assert max(kkt_residuals(p, s).values()) <= 1e-8


class TestObjectiveProperties:
    def test_adding_row_never_improves_objective(self):
        rng = np.random.default_rng(9)
        for _ in range(150):
            p = random_problem(rng, max_rows=5)
            extra = block([rng.normal(size=2)], [float(rng.uniform(-1, 1))], [False])
            bigger = QpProblem(p.nominal, (p.rows.block(0), extra), p.speed_limit)
            s0, s1 = solve(p), solve(bigger)
            if s0.status == "optimal" and s1.status == "optimal":
                o0 = float((s0.u - p.nominal) @ (s0.u - p.nominal))
                o1 = float((s1.u - p.nominal) @ (s1.u - p.nominal))
                assert o1 >= o0 - 1e-9

    def test_solution_unique_under_row_shuffle(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            p = random_problem(rng)
            perm = rng.permutation(len(p.rows))
            shuffled = QpProblem(p.nominal, p.rows.block(0).take(perm), p.speed_limit)
            np.testing.assert_allclose(solve(p).u, solve(shuffled).u, atol=1e-9)
