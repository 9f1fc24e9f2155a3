from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmseq import qp
from swarmseq.barriers import RowBlock
from swarmseq.qp import _FEAS_TOL, MAX_ROWS, QpProblem, RowLayout, _project, kkt_residuals, oracle_solve, quiet, solve


def block(normals, offsets, hard):
    """Bare rows on one robot's input."""
    k = len(offsets)
    return RowBlock(np.array(normals, dtype=float).reshape(k, 2), np.array(offsets, dtype=float),
                    np.array(hard, dtype=bool).reshape(k))


def row(nx, ny, b, hard=False):
    return block([[nx, ny]], [b], [hard])


def team_layout(blocks):
    """Robot r + 1's rows ``blocks[r]`` in columns 0.. of layout row r, then
    pad rows, as a row plan lays them out."""
    layout = RowLayout.empty(np.arange(1, len(blocks) + 1), np.array([len(b.offsets) for b in blocks], dtype=int))
    for r, b in enumerate(blocks):
        m = len(b.offsets)
        layout.normals[r, :m], layout.offsets[r, :m], layout.hard[r, :m] = b.normals, b.offsets, b.hard
    return layout


def one_robot(nominal, rows, speed_limit):
    """The problem of a team of one: nominal (2,) and ``rows``, one block or a
    sequence of blocks, in order."""
    if not isinstance(rows, RowBlock):
        rows = block(np.concatenate([np.empty((0, 2)), *(b.normals for b in rows)]),
                     np.concatenate([[], *(b.offsets for b in rows)]),
                     np.concatenate([[], *(np.broadcast_to(b.hard, len(b.offsets)) for b in rows)]))
    return QpProblem(np.reshape(nominal, (1, 2)), team_layout([rows]), speed_limit)


def own_rows(problem):
    """The rows of a team of one, as a block."""
    m = problem.rows.counts[0]
    return block(problem.rows.normals[0, :m], problem.rows.offsets[0, :m], problem.rows.hard[0, :m])


def random_problem(rng, max_rows=6, hard_fraction=0.4):
    nominal = rng.uniform(-1, 1, 2)
    m = int(rng.integers(0, max_rows + 1))
    normals, offsets, hard = [], [], []
    for _ in range(m):
        a = rng.normal(size=2)
        normals.append(a / np.linalg.norm(a) * rng.uniform(0.3, 3.0))
        offsets.append(float(rng.uniform(-1, 1)))
        hard.append(bool(rng.random() < hard_fraction))
    return one_robot(nominal, block(normals, offsets, hard), float(rng.uniform(0.3, 2.0)))


class TestBasics:
    def test_unconstrained_returns_nominal(self):
        p = one_robot(np.array([1.0, 0.0]), (), 10.0)
        for s in (solve(p), oracle_solve(p)):
            np.testing.assert_allclose(s.u[0], [1.0, 0.0])
            assert s.status == "optimal"

    def test_halfplane_projection(self):
        p = one_robot(np.array([1.0, 0.0]), (row(-1, 0, 0),), 10.0)
        for s in (solve(p), oracle_solve(p)):
            np.testing.assert_allclose(s.u[0], [0.0, 0.0], atol=1e-12)

    def test_corner_with_both_rows_active(self):
        p = one_robot(np.array([1.0, 1.0]), (row(-1, 0, 0), row(0, -1, 0)), 10.0)
        ref = oracle_solve(p)
        got = solve(p)
        np.testing.assert_allclose(got.u, ref.u, atol=1e-12)
        np.testing.assert_allclose(got.u[0], [0.0, 0.0], atol=1e-12)

    def test_feasible_nominal_is_returned_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = random_problem(rng)
            s = solve(p)
            if s.status != "optimal":
                continue
            rows = own_rows(p)
            feasible = all(
                float(a @ p.nominal[0]) >= b + 1e-9 for a, b in zip(rows.normals, rows.offsets)
            ) and float(np.max(np.abs(p.nominal))) <= p.speed_limit
            if feasible:
                assert np.array_equal(s.u, p.nominal) or float(
                    np.max(np.abs(s.u - p.nominal))
                ) <= 1e-12

    def test_box_is_enforced(self):
        p = one_robot(np.array([5.0, -7.0]), (), 0.2)
        s = solve(p)
        np.testing.assert_allclose(s.u[0], [0.2, -0.2])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            one_robot(np.array([np.inf, 0.0]), (), 1.0)
        with pytest.raises(ValueError):
            one_robot(np.zeros(2), (row(np.nan, 1.0, 0.0),), 1.0)
        with pytest.raises(ValueError):
            one_robot(np.zeros(2), (row(1.0, 0.0, 0.0), row(0.0, 1.0, np.inf)), 1.0)

    def test_mixed_robots_rejected(self):
        # the nominal inputs and the layout's rows must be of the same robots
        two = team_layout([row(1.0, 0.0, 0.0), row(0.0, 1.0, 0.0)])
        with pytest.raises(ValueError, match="shape"):
            QpProblem(np.zeros((1, 2)), two, 1.0)
        with pytest.raises(ValueError, match="shape"):
            QpProblem(np.zeros((3, 2)), two, 1.0)
        with pytest.raises(ValueError, match="shape"):
            QpProblem(np.zeros(2), team_layout([row(1.0, 0.0, 0.0)]), 1.0)
        assert QpProblem(np.zeros((2, 2)), two, 1.0).nominal.shape == (2, 2)

    def test_row_cap(self):
        rows = tuple(row(1, 0, -k) for k in range(64))
        assert len(one_robot(np.zeros(2), rows, 1.0).rows) == 64
        with pytest.raises(ValueError):
            one_robot(np.zeros(2), rows + (row(0, 1, 0),), 1.0)


class TestInfeasibility:
    def test_contradictory_hard_rows(self):
        p = one_robot(np.zeros(2), (row(1, 0, 1, hard=True), row(-1, 0, 1, hard=True)), 10.0)
        for s in (solve(p), oracle_solve(p)):
            assert s.status == "infeasible_hard"
            np.testing.assert_allclose(s.u[0], [0.0, 0.0])

    def test_contradictory_soft_rows_relax(self):
        p = one_robot(np.zeros(2), (row(1, 0, 1), row(-1, 0, 1)), 10.0)
        for s in (solve(p), oracle_solve(p)):
            assert s.status == "relaxed"
            np.testing.assert_allclose(s.u[0], [0.0, 0.0], atol=1e-9)
            assert s.slacks[0, :2].tolist() == pytest.approx([1.0, 1.0], abs=1e-6)
            assert not s.slacks[0, 2:].any()  # the box is never relaxed

    def test_hard_rows_respected_under_relaxation(self):
        # soft row collides with a hard row; hard must hold exactly
        p = one_robot(np.zeros(2), (row(1, 0, 0.5, hard=True), row(-1, 0, 0.4)), 10.0)
        s = solve(p)
        assert s.status == "relaxed"
        assert float(s.u[0, 0]) >= 0.5 - 1e-9

    def test_a_tiny_hard_normal_freezes_without_a_warning(self):
        # the projection onto the first row lands at u1 = 1 / 1.3e-243, whose
        # square overflows; the suite turns that warning into an error
        p = one_robot(np.zeros(2), (row(0, 1.3e-243, 1, hard=True), row(0, 0, 0, hard=True)), 0.2)
        for s in (solve(p), oracle_solve(p)):
            assert s.status == "infeasible_hard"
            assert s.u.tolist() == [[0.0, 0.0]]

    def test_soft_row_beyond_box_relaxes(self):
        p = one_robot(np.zeros(2), (row(1, 0, 5.0),), 0.2)
        s = solve(p)
        assert s.status == "relaxed"
        assert s.u[0, 0] == pytest.approx(0.2)
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
            oracle_solve(one_robot(np.zeros(2), rows, 1.0))

    def test_the_oracle_and_its_kkt_check_take_one_robot(self):
        team = QpProblem(np.zeros((2, 2)), team_layout([row(1, 0, 0), row(0, 1, 0)]), 1.0)
        with pytest.raises(ValueError, match="one robot"):
            oracle_solve(team)
        with pytest.raises(ValueError, match="one robot"):
            kkt_residuals(team, solve(team))


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
        problem = one_robot(rng.uniform(-1, 1, 2), block(normals, rng.uniform(-1, 1, ns + nh), hard),
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
            p = one_robot(rng.uniform(-1, 1, 2), block(normals, offsets, [False] * 40 + [True] * 20), 1.0)
            s = solve(p)
            assert s.status == "relaxed"
            assert max(kkt_residuals(p, s).values()) <= 1e-8


class TestObjectiveProperties:
    def test_adding_row_never_improves_objective(self):
        rng = np.random.default_rng(9)
        for _ in range(150):
            p = random_problem(rng, max_rows=5)
            extra = block([rng.normal(size=2)], [float(rng.uniform(-1, 1))], [False])
            bigger = one_robot(p.nominal, (own_rows(p), extra), p.speed_limit)
            s0, s1 = solve(p), solve(bigger)
            if s0.status == "optimal" and s1.status == "optimal":
                o0 = float((s0.u[0] - p.nominal[0]) @ (s0.u[0] - p.nominal[0]))
                o1 = float((s1.u[0] - p.nominal[0]) @ (s1.u[0] - p.nominal[0]))
                assert o1 >= o0 - 1e-9

    def test_solution_unique_under_row_shuffle(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            p = random_problem(rng)
            perm = rng.permutation(len(p.rows))
            rows = own_rows(p)
            rows = block(rows.normals[perm], rows.offsets[perm], rows.hard[perm])
            shuffled = one_robot(p.nominal, rows, p.speed_limit)
            np.testing.assert_allclose(solve(p).u, solve(shuffled).u, atol=1e-9)


def bits(a):
    """The float64 bit patterns of an array, so that -0.0 differs from 0.0."""
    return np.asarray(a, dtype=float).view(np.int64)


def layout_of(n, slots, normals, offsets):
    """Flat rows, row k one of the robot at slot ``slots[k]``, in the layout a
    row plan fills: each robot's rows in flat order, then pad rows."""
    columns = np.array([np.count_nonzero(slots[:k] == slots[k]) for k in range(len(slots))], dtype=int)
    layout = RowLayout.empty(np.arange(1, n + 1), np.bincount(slots, minlength=n))
    layout.normals[slots, columns], layout.offsets[slots, columns] = normals, offsets
    return layout


class Unsolved(Exception):
    """Raised in place of ``_project``'s stage after the first."""


def first_stage_finds_all(problem):
    """Whether ``_project`` finds every robot of the problem in its first stage."""
    def unsolved(*args):
        raise Unsolved

    with mock.patch.object(qp, "_single_row_stage", unsolved):
        try:
            _project(problem.nominal, problem.rows.normals, problem.rows.offsets)
        except Unsolved:
            return False
    return True


def outcome(make):
    """What ``make()`` returns, or the message of the ValueError it raises."""
    try:
        return make(), None
    except ValueError as error:
        return None, str(error)


@st.composite
def flat_problems(draw):
    """A team's flat rows and nominals, most rows satisfied, some exactly or
    within the tolerance on their line, some nominals on the box's edge, a
    robot without rows, and now and then a non-finite number."""
    unit = st.floats(-1, 1)
    n = draw(st.integers(1, 4))
    slots = np.array(draw(st.lists(st.integers(0, n - 1), max_size=8)), dtype=int)
    m = len(slots)
    normals = np.array(draw(st.lists(unit, min_size=2 * m, max_size=2 * m))).reshape(m, 2)
    offsets = np.array(draw(st.lists(unit, min_size=m, max_size=m)))
    nominal = np.array(draw(st.lists(unit, min_size=2 * n, max_size=2 * n))).reshape(n, 2)
    limit = draw(st.floats(0.05, 1.5))
    for k in range(m):
        at = normals[k, 0] * nominal[slots[k], 0] + normals[k, 1] * nominal[slots[k], 1]
        shift = draw(st.sampled_from(["free", "on", "near", "inside", "inside"]))
        if shift == "on":
            offsets[k] = at
        elif shift == "near":
            offsets[k] = at + draw(st.floats(-2 * _FEAS_TOL, 2 * _FEAS_TOL))
        elif shift == "inside":
            offsets[k] = at - draw(st.floats(0, 1))
    for r in range(n):
        edge = draw(st.sampled_from([None, None, "on", "near"]))
        if edge is not None:
            off = 0.0 if edge == "on" else draw(st.floats(-2 * _FEAS_TOL, 2 * _FEAS_TOL))
            nominal[r, draw(st.integers(0, 1))] = draw(st.sampled_from([-1.0, 1.0])) * (limit + off)
    bad = draw(st.sampled_from([None] * 6 + ["nominal", "normal", "offset", "limit"]))
    value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if bad == "nominal":
        nominal[draw(st.integers(0, n - 1)), draw(st.integers(0, 1))] = value
    elif bad == "normal" and m:
        normals[draw(st.integers(0, m - 1)), draw(st.integers(0, 1))] = value
    elif bad == "offset" and m:
        offsets[draw(st.integers(0, m - 1))] = value
    elif bad == "limit":
        limit = draw(st.sampled_from([value, 0.0, -0.5]))
    return n, slots, normals, offsets, nominal, limit


class TestQuietPath:
    """``quiet`` answers a team from its flat rows exactly when the first
    stage of ``solve`` finds every robot on the laid-out rows, and then with
    ``solve``'s answer, bit for bit; it raises ``QpProblem``'s errors."""

    @settings(max_examples=400, deadline=None)
    @given(flat_problems())
    def test_the_quiet_path_agrees_with_the_solver(self, case):
        n, slots, normals, offsets, nominal, limit = case
        layout = layout_of(n, slots, normals, offsets)
        fast, fast_error = outcome(lambda: quiet(nominal, slots, normals, offsets, limit, layout))
        problem, error = outcome(lambda: QpProblem(nominal, layout, limit))
        if error is not None:
            # a team is never answered unchecked; one left to solve raises there
            assert fast is None and fast_error in (None, error)
            return
        assert fast_error is None
        assert (fast is not None) == first_stage_finds_all(problem)
        if fast is not None:
            want = solve(problem)
            assert bits(fast.u).tolist() == bits(want.u).tolist()
            assert fast.statuses == want.statuses and fast.status == want.status == "optimal"
            for got, expected in ((fast.multipliers, want.multipliers), (fast.slacks, want.slacks)):
                assert got.shape == expected.shape == layout.offsets.shape
                assert bits(got).tolist() == bits(expected).tolist()

    def test_the_nominal_on_a_row_and_the_box_edge_is_quiet(self):
        slots, normals = np.array([0, 0]), np.array([[1.0, 0.0], [0.3, -0.7]])
        nominal = np.array([[0.4, 0.25], [0.1, 0.1]])
        offsets = np.array([0.4, 0.3 * 0.4 + -0.7 * 0.25])
        got = quiet(nominal, slots, normals, offsets, 0.4, layout_of(2, slots, normals, offsets))
        assert got is not None and got.u is not nominal and (got.u == nominal).all()
        assert got.statuses == ("optimal", "optimal")
        assert quiet(nominal, slots, normals, offsets, 0.3999, layout_of(2, slots, normals, offsets)) is None

    @pytest.mark.parametrize("fault", ["nominal", "normal", "offset", "limit", "width"])
    def test_a_quiet_team_keeps_every_check(self, fault):
        # every robot's nominal satisfies its rows but for the one fault
        width = MAX_ROWS + 1 if fault == "width" else 3
        slots = np.repeat([0, 1], [width, 2])
        normals, offsets = np.tile([[1.0, 0.0]], (len(slots), 1)), np.full(len(slots), -1.0)
        nominal, limit = np.zeros((2, 2)), 0.5
        if fault == "nominal":
            nominal[1, 0] = np.inf
        elif fault == "normal":
            normals[4, 1] = np.nan
        elif fault == "offset":
            offsets[0] = -np.inf
        elif fault == "limit":
            limit = 0.0
        layout = layout_of(2, slots, normals, offsets)
        with pytest.raises(ValueError) as want:
            QpProblem(nominal, layout, limit)
        with pytest.raises(ValueError) as got:
            quiet(nominal, slots, normals, offsets, limit, layout)
        assert str(got.value) == str(want.value)
