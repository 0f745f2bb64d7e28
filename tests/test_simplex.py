"""Two-phase simplex solver, cross-checked against scipy's solver."""

import numpy as np
import pytest
from scipy.optimize import linprog

from graspforce.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, _pivot, solve_lp


def scipy_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    return linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(None, None), method="highs"
    )


class TestBasics:
    def test_simple_bounded_problem(self):
        # min -x - y  s.t. x + y <= 1, x <= 0.75, -x <= 0, -y <= 0
        c = [-1.0, -1.0]
        a_ub = [[1.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]
        b_ub = [1.0, 0.75, 0.0, 0.0]
        result = solve_lp(np.array(c), a_ub=np.array(a_ub), b_ub=np.array(b_ub))
        assert result.status == OPTIMAL
        assert result.fun == pytest.approx(-1.0, abs=1e-9)

    def test_equality_only(self):
        c = [1.0, 1.0]
        a_eq = [[1.0, -1.0]]
        b_eq = [2.0]
        result = solve_lp(
            np.array(c),
            a_ub=np.array([[-1.0, 0.0], [0.0, -1.0]]),
            b_ub=np.zeros(2),
            a_eq=np.array(a_eq),
            b_eq=np.array(b_eq),
        )
        assert result.status == OPTIMAL
        assert result.fun == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(result.x, [2.0, 0.0], atol=1e-9)

    def test_free_variables_go_negative(self):
        # min x subject to x >= -5 written as -x <= 5.
        result = solve_lp(np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([5.0]))
        assert result.status == OPTIMAL
        assert result.x[0] == pytest.approx(-5.0, abs=1e-9)

    def test_infeasible(self):
        a_ub = np.array([[1.0], [-1.0]])
        b_ub = np.array([1.0, -2.0])  # x <= 1 and x >= 2
        result = solve_lp(np.array([0.0]), a_ub=a_ub, b_ub=b_ub)
        assert result.status == INFEASIBLE
        assert result.x is None
        assert not result.ok

    def test_unbounded(self):
        result = solve_lp(np.array([-1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([0.0]))
        assert result.status == UNBOUNDED

    def test_degenerate_rows_terminate(self):
        # Many redundant constraints through the optimum exercise Bland's rule.
        a_ub = np.array([[1.0, 1.0]] * 10 + [[-1.0, 0.0], [0.0, -1.0]])
        b_ub = np.array([1.0] * 10 + [0.0, 0.0])
        result = solve_lp(np.array([-1.0, -2.0]), a_ub=a_ub, b_ub=b_ub)
        assert result.status == OPTIMAL
        assert result.fun == pytest.approx(-2.0, abs=1e-9)


class TestAgainstScipy:
    def test_random_inequality_problems(self):
        rng = np.random.default_rng(5)
        solved = 0
        for _ in range(60):
            n, m = rng.integers(2, 6), rng.integers(2, 8)
            c = rng.standard_normal(n)
            a_ub = rng.standard_normal((m, n))
            # Keep the origin feasible so most instances are not rejected.
            b_ub = rng.uniform(0.1, 2.0, size=m)
            ref = scipy_solve(c, a_ub=a_ub, b_ub=b_ub)
            result = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
            if ref.status == 0:
                assert result.status == OPTIMAL
                assert result.fun == pytest.approx(ref.fun, abs=1e-6)
                assert np.all(a_ub @ result.x <= b_ub + 1e-7)
                solved += 1
            elif ref.status == 3:
                assert result.status == UNBOUNDED
        assert solved >= 10

    def test_random_mixed_problems(self):
        rng = np.random.default_rng(17)
        solved = 0
        for _ in range(60):
            n = int(rng.integers(3, 7))
            m_ub = int(rng.integers(1, 5))
            m_eq = int(rng.integers(1, 3))
            c = rng.standard_normal(n)
            a_ub = rng.standard_normal((m_ub, n))
            a_eq = rng.standard_normal((m_eq, n))
            x_feas = rng.standard_normal(n)
            b_ub = a_ub @ x_feas + rng.uniform(0.1, 1.0, size=m_ub)
            b_eq = a_eq @ x_feas
            # A box around the feasible point keeps the problem bounded, so
            # nearly every instance compares actual optima rather than
            # agreeing on UNBOUNDED.
            box = float(np.max(np.abs(x_feas))) + 1.0
            a_ub = np.vstack([a_ub, np.eye(n), -np.eye(n)])
            b_ub = np.concatenate([b_ub, np.full(2 * n, box)])
            ref = scipy_solve(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
            result = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
            if ref.status == 0:
                assert result.status == OPTIMAL
                assert result.fun == pytest.approx(ref.fun, abs=1e-6)
                np.testing.assert_allclose(a_eq @ result.x, b_eq, atol=1e-7)
                solved += 1
            elif ref.status == 3:
                assert result.status == UNBOUNDED
        assert solved >= 10

    def test_cone_shaped_feasibility_problems(self):
        # The shape this solver exists for: find f with G f = -w inside
        # polyhedral cones. Compare feasibility verdicts with scipy.
        rng = np.random.default_rng(29)
        agree = 0
        for _ in range(30):
            n = 8
            g = rng.standard_normal((6, n))
            cone = np.vstack([np.eye(n), rng.standard_normal((4, n))])
            w = rng.standard_normal(6)
            a_ub = -cone
            b_ub = np.zeros(cone.shape[0])
            ref = scipy_solve(np.zeros(n), a_ub=a_ub, b_ub=b_ub, a_eq=g, b_eq=-w)
            result = solve_lp(np.zeros(n), a_ub=a_ub, b_ub=b_ub, a_eq=g, b_eq=-w)
            assert (result.status == OPTIMAL) == (ref.status == 0)
            agree += 1
        assert agree == 30


class TestPivot:
    def test_matches_a_row_by_row_update(self):
        # The row loop the outer-product update replaced, kept as the reference.
        rng = np.random.default_rng(5)
        for _ in range(50):
            tableau = rng.standard_normal((7, 12))
            tableau[rng.random((7, 12)) < 0.4] = 0.0
            obj = rng.standard_normal(12)
            row, col = rng.integers(7), rng.integers(11)
            tableau[row, col] = rng.uniform(0.5, 2.0)
            want, want_obj, want_basis = tableau.copy(), obj.copy(), list(range(7))
            want[row] /= want[row, col]
            for r in range(want.shape[0]):
                if r != row and want[r, col] != 0.0:
                    want[r] -= want[r, col] * want[row]
            want_obj -= want_obj[col] * want[row]
            want_basis[row] = col
            basis = list(range(7))
            _pivot(tableau, obj, basis, row, col)
            np.testing.assert_array_equal(tableau, want)
            np.testing.assert_array_equal(obj, want_obj)
            assert basis == want_basis
