"""Two-phase simplex solver and the lockstep feasibility oracle, cross-checked against scipy."""

import numpy as np
import pytest
from scipy.optimize import linprog

from graspforce import closure, simplex
from graspforce.closure import (
    ORACLE_NORMAL_BOUND,
    Contact,
    can_resist,
    is_force_closure,
    linearize_cone,
)
from graspforce.simplex import (
    _BLOCK,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    _pivot,
    all_feasible,
    solve_lp,
)


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


def scipy_feasible(a_ub, b_ub, a_eq, b_eq):
    ref = scipy_solve(np.zeros(a_eq.shape[1]), a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    assert ref.status in (0, 2), ref.message
    return ref.status == 0


def random_contacts(rng, count):
    return [
        Contact.from_normal(
            rng.uniform(-0.05, 0.05, size=3),
            rng.standard_normal(3),
            mu=rng.uniform(0.2, 1.0),
            mu_tau=rng.uniform(0.001, 0.01),
        )
        for _ in range(count)
    ]


def oracle_program(contacts):
    """The a_ub, b_ub and G that can_resist hands to all_feasible."""
    g, neg_cone, norm_row = closure._cone_program(contacts, closure.DEFAULT_CONE_SIDES)
    a_ub = np.vstack([neg_cone, norm_row])
    b_ub = np.zeros(a_ub.shape[0])
    b_ub[-1] = ORACLE_NORMAL_BOUND
    return a_ub, b_ub, g


def resistible_wrenches(rng, contacts, count):
    """Wrenches -G f for forces f strictly inside every linearized cone.

    Each f is its own feasibility certificate, so these need no solver.
    """
    g = closure.build_grasp_matrix(contacts)
    forces = np.empty((count, 4 * len(contacts)))
    for i, contact in enumerate(contacts):
        fz = rng.uniform(0.5, 2.0, size=count)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=count)
        radius = 0.5 * contact.mu * np.cos(np.pi / closure.DEFAULT_CONE_SIDES) * fz
        forces[:, 4 * i] = radius * rng.uniform(0.0, 1.0, size=count) * np.cos(angle)
        forces[:, 4 * i + 1] = radius * rng.uniform(0.0, 1.0, size=count) * np.sin(angle)
        forces[:, 4 * i + 2] = fz
        forces[:, 4 * i + 3] = 0.5 * contact.mu_tau * fz * rng.uniform(-1.0, 1.0, size=count)
        cone = linearize_cone(contact.mu, contact.mu_tau)
        assert np.all(forces[:, 4 * i : 4 * i + 4] @ cone.T > 0.0)
    return -forces @ g.T


class TestAllFeasible:
    def test_verdict_per_wrench_matches_scipy(self):
        rng = np.random.default_rng(41)
        verdicts = {True: 0, False: 0}
        for trial in range(16):
            contacts = random_contacts(rng, 2 + trial % 2)
            a_ub, b_ub, g = oracle_program(contacts)
            unit = rng.standard_normal((8, 6))
            wrenches = np.vstack([
                unit / np.linalg.norm(unit, axis=1, keepdims=True),
                resistible_wrenches(rng, contacts, 3),
            ])
            want = [scipy_feasible(a_ub, b_ub, g, -w) for w in wrenches]
            got = [all_feasible(a_ub, b_ub, g, -w[None]) for w in wrenches]
            assert got == want
            assert all_feasible(a_ub, b_ub, g, -wrenches) == all(want)
            for verdict in want:
                verdicts[verdict] += 1
        assert min(verdicts.values()) >= 20

    def test_general_systems_match_scipy(self):
        # Inequality rows with b_ub < 0 start on an artificial, and equality
        # right-hand sides of both signs flip rows per system.
        rng = np.random.default_rng(43)
        verdicts = {True: 0, False: 0}
        for _ in range(30):
            n = int(rng.integers(2, 6))
            a_ub = rng.standard_normal((int(rng.integers(2, 7)), n))
            a_eq = rng.standard_normal((int(rng.integers(1, 3)), n))
            x0 = rng.standard_normal(n)
            b_ub = a_ub @ x0 + rng.uniform(-1.0, 1.0, size=a_ub.shape[0])
            b_eqs = (a_eq @ x0)[None] + rng.uniform(-2.0, 2.0, size=(4, a_eq.shape[0]))
            want = [scipy_feasible(a_ub, b_ub, a_eq, b) for b in b_eqs]
            assert [all_feasible(a_ub, b_ub, a_eq, b[None]) for b in b_eqs] == want
            assert all_feasible(a_ub, b_ub, a_eq, b_eqs) == all(want)
            for verdict in want:
                verdicts[verdict] += 1
        assert (b_ub < 0.0).any()
        assert min(verdicts.values()) >= 20

    @pytest.mark.parametrize(
        "size,unresisted_at",
        [
            (1, None), (1, 0),
            (_BLOCK - 1, None), (_BLOCK - 1, _BLOCK - 2),
            (_BLOCK, None), (_BLOCK, _BLOCK - 1),
            (_BLOCK + 1, None), (_BLOCK + 1, _BLOCK),
            (500, None), (500, 0), (500, 3 * _BLOCK + 5), (500, 499),
        ],
    )
    def test_stack_verdict_at_block_edges(self, size, unresisted_at):
        rng = np.random.default_rng(47)
        while True:
            contacts = random_contacts(rng, 2)
            if not is_force_closure(contacts).is_force_closure:
                break
        a_ub, b_ub, g = oracle_program(contacts)
        while True:
            unresisted = rng.standard_normal(6)
            if not scipy_feasible(a_ub, b_ub, g, -unresisted):
                break
        stack = resistible_wrenches(rng, contacts, size)
        if unresisted_at is not None:
            stack[unresisted_at] = unresisted
        assert all_feasible(a_ub, b_ub, g, -stack) == (unresisted_at is None)
        stacked = can_resist(contacts, stack)
        assert stacked == (unresisted_at is None)
        if size <= _BLOCK + 1:
            assert stacked == all(can_resist(contacts, w) for w in stack)

    def test_empty_stack_is_feasible(self):
        a_ub, b_ub, g = oracle_program(random_contacts(np.random.default_rng(3), 2))
        assert all_feasible(a_ub, b_ub, g, np.zeros((0, 6)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            all_feasible(np.eye(3), np.zeros(2), np.ones((1, 3)), [[1.0]])
        with pytest.raises(ValueError):
            all_feasible(np.eye(3), np.zeros(3), np.ones((1, 4)), [[1.0]])

    def test_oracle_does_not_use_the_certifier_solver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached solve_lp")

        for name in ("solve_lp", "_iterate", "_pivot"):
            monkeypatch.setattr(simplex, name, forbidden)
        monkeypatch.setattr(closure, "solve_lp", forbidden)
        pair = [
            Contact.from_normal((0.0, 0.03, 0.0), (0.0, -1.0, 0.0)),
            Contact.from_normal((0.0, -0.03, 0.0), (0.0, 1.0, 0.0)),
        ]
        assert closure.resistance_oracle(pair, wrench_samples=100)
        assert not closure.resistance_oracle(pair[:1], wrench_samples=100)
