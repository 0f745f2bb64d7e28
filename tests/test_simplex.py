"""Two-phase simplex solver and the lockstep feasibility oracle, cross-checked against scipy."""

import functools
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from graspforce import closure, simplex
from graspforce.closure import (
    Contact,
    can_resist,
    cone_rays,
    is_force_closure,
    linearize_cone,
)
from graspforce.simplex import (
    _BLOCK,
    _FEAS_TOL,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    _inverses,
    _pivot,
    _screen,
    _start,
    all_feasible,
    solve_lp,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import instances  # noqa: E402


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

    @pytest.mark.parametrize("kind,blocks", [
        ("inequality", {"a_ub": [[1.0, 1.0, 1.0]], "b_ub": [1.0]}),
        ("equality", {"a_eq": [[1.0, 1.0]], "b_eq": [1.0, 2.0]}),
    ])
    def test_constraint_shapes_must_agree(self, kind, blocks):
        with pytest.raises(ValueError, match=f"^{kind} constraint shapes disagree: "):
            solve_lp([1.0, 1.0], **blocks)

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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": [math.nan]},
            {"c": [1.0], "a_ub": [[math.inf]], "b_ub": [1.0]},
            {"c": [1.0], "a_ub": [[1.0]], "b_ub": [math.nan]},
            {"c": [1.0], "a_eq": [[math.nan]], "b_eq": [1.0]},
            {"c": [1.0], "a_eq": [[1.0]], "b_eq": [-math.inf]},
        ],
        ids=["c", "a_ub", "b_ub", "a_eq", "b_eq"],
    )
    def test_non_finite_input_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            solve_lp(**kwargs)


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
            # The objective goes in as the tableau's last row.
            stacked = np.vstack([tableau, obj])
            _pivot(stacked, basis, row, col, tableau[row, col], np.empty_like(stacked))
            tableau, obj = stacked[:-1], stacked[-1]
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
    """The H-form program scipy solves: G f = -w with f in every linearized cone.

    The a_ub, b_ub and G returned describe the same resistible wrenches as
    the rays can_resist hands to all_feasible, in the other representation.
    """
    g, neg_cone, _ = closure._cone_program(contacts, closure.DEFAULT_CONE_SIDES)
    return neg_cone, np.zeros(neg_cone.shape[0]), g


def oracle_rays(contacts):
    """The 6 x 16n ray matrix can_resist hands to all_feasible."""
    g = closure.build_grasp_matrix(contacts)
    return np.hstack(
        [g[:, 4 * i : 4 * i + 4] @ cone_rays(c.mu, c.mu_tau) for i, c in enumerate(contacts)]
    )


def scipy_nonnegative_solution(a_eq, b_eq):
    ref = linprog(
        np.zeros(a_eq.shape[1]), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )
    assert ref.status in (0, 2), ref.message
    return ref.status == 0


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


@st.composite
def certified_systems(draw):
    """A small integer system a_eq.x = b, x >= 0 that carries its own verdict.

    Feasible: b = a_eq @ x0 with x0 >= 1. Infeasible: columns are negated
    until y @ a_eq >= 0 for a drawn y, and b until y @ b <= -1, so no x >= 0
    solves it. Also draws a column permutation and positive column scales.
    """
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))

    def ints(size, low, high):
        return np.array(draw(st.lists(st.integers(low, high), min_size=size, max_size=size)), float)

    a_eq = ints(m * n, -3, 3).reshape(m, n)
    feasible = draw(st.booleans())
    if feasible:
        b = a_eq @ ints(n, 1, 3)
    else:
        y = ints(m, -3, 3)
        if not y.any():
            y[0] = 1.0
        a_eq *= np.where(y @ a_eq < 0.0, -1.0, 1.0)
        b = ints(m, -3, 3)
        if y @ b > 0.0:
            b = -b
        if y @ b == 0.0:
            b -= y
    perm = draw(st.permutations(range(n)))
    scale = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    return a_eq, b, feasible, perm, scale


class TestAllFeasible:
    def test_verdict_per_wrench_matches_scipy(self):
        # can_resist works on the rays (V-form); scipy solves the cone rows
        # (H-form), so agreement also checks that both describe one cone.
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
            got = [can_resist(contacts, w) for w in wrenches]
            assert got == want
            assert can_resist(contacts, wrenches) == all(want)
            assert all_feasible(oracle_rays(contacts), -wrenches) == all(want)
            for verdict in want:
                verdicts[verdict] += 1
        assert min(verdicts.values()) >= 20

    def test_general_systems_match_scipy(self):
        # Right-hand sides of both signs flip rows per system, and every
        # fourth system repeats a row combination, so an artificial can stay
        # basic at zero on a dependent row, or the copy is inconsistent.
        rng = np.random.default_rng(43)
        verdicts = {True: 0, False: 0}
        mixed_signs = 0
        for trial in range(30):
            m, n = int(rng.integers(1, 5)), int(rng.integers(2, 9))
            a_eq = rng.standard_normal((m, n))
            x0 = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 1.0, size=n), 0.0)
            b_eqs = (a_eq @ x0)[None] + rng.uniform(-1.0, 1.0, size=(4, m))
            if trial % 4 == 0:
                mix = rng.standard_normal(m)
                a_eq = np.vstack([a_eq, mix @ a_eq])
                b_eqs = np.hstack([b_eqs, b_eqs @ mix[:, None] + rng.choice([0.0, 0.5])])
            want = [scipy_nonnegative_solution(a_eq, b) for b in b_eqs]
            assert [all_feasible(a_eq, b[None]) for b in b_eqs] == want
            assert all_feasible(a_eq, b_eqs) == all(want)
            for verdict in want:
                verdicts[verdict] += 1
            mixed_signs += int(np.sum((b_eqs < 0.0).any(axis=1) & (b_eqs > 0.0).any(axis=1)))
        assert mixed_signs >= 20
        assert min(verdicts.values()) >= 20

    @pytest.mark.parametrize(
        "size,unresisted_at",
        [
            (1, None), (1, 0),
            (_BLOCK - 1, None), (_BLOCK - 1, _BLOCK - 2),
            (_BLOCK, None), (_BLOCK, _BLOCK - 1),
            (_BLOCK + 1, None), (_BLOCK + 1, _BLOCK),
            (500, None), (500, 0), (500, 3 * _BLOCK + 5), (500, 499),
            # The edges of the 128-system block all_feasible used to run:
            # stacks that now span several blocks.
            (127, None), (127, 126), (128, None), (128, 127), (129, None), (129, 128), (500, 389),
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
        assert all_feasible(oracle_rays(contacts), -stack) == (unresisted_at is None)
        stacked = can_resist(contacts, stack)
        assert stacked == (unresisted_at is None)
        if size < 500:
            assert stacked == all(can_resist(contacts, w) for w in stack)

    def test_degenerate_systems_match_scipy(self):
        # Small integer systems whose ratio tests tie at 0: right-hand sides
        # with zero components (the zero vector among them), b equal to one
        # column, and columns repeated. Their pivots are degenerate, so the
        # next entering column comes from Bland's rule.
        rng = np.random.default_rng(53)
        verdicts = {True: 0, False: 0}
        for trial in range(40):
            m, n = int(rng.integers(2, 6)), int(rng.integers(3, 8))
            a_eq = rng.integers(-2, 3, size=(m, n)).astype(float)
            a_eq = np.hstack([a_eq, a_eq[:, rng.integers(0, n, size=2)]])
            sparse = np.where(rng.random(n + 2) < 0.5, rng.integers(1, 4, size=n + 2), 0)
            b_eqs = np.array([
                np.zeros(m),
                a_eq[:, rng.integers(0, n + 2)],
                np.where(rng.random(m) < 0.5, 0.0, a_eq @ sparse),
                np.where(rng.random(m) < 0.5, 0.0, rng.integers(-2, 3, size=m)),
            ])
            want = [scipy_nonnegative_solution(a_eq, b) for b in b_eqs]
            assert [all_feasible(a_eq, b[None]) for b in b_eqs] == want
            assert all_feasible(a_eq, b_eqs) == all(want)
            for verdict in want:
                verdicts[verdict] += 1
        assert min(verdicts.values()) >= 20

    def test_cycle_of_most_negative_pricing_terminates(self):
        # Chvatal's cycling example (Linear Programming, 1983, ch. 3):
        # min -10x1 + 57x2 + 9x3 + 24x4 over three rows with slacks x5..x7,
        # the first two at rhs 0. Entering on the most negative cost, with
        # ratio ties to the smallest index, returns to the first basis after
        # six degenerate pivots. Here those rows are scaled by 2, 2 and 10,
        # and a fourth row at rhs 0 makes the initial phase-1 costs equal
        # that objective. Every entry of that row is negative, so the row
        # forces x = 0 and the system is infeasible.
        cost = np.array([-10.0, 57.0, 9.0, 24.0, 0.0, 0.0, 0.0])
        rows = np.array([
            [1.0, -11.0, -5.0, 18.0, 2.0, 0.0, 0.0],
            [1.0, -3.0, -1.0, 2.0, 0.0, 2.0, 0.0],
            [10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0],
        ])
        a_eq = np.vstack([rows, -cost - rows.sum(axis=0)])
        assert np.all(a_eq[3] < 0.0)
        b = np.array([0.0, 0.0, 10.0, 0.0])
        assert not scipy_nonnegative_solution(a_eq, b)
        assert not all_feasible(a_eq, b[None])

    # Which column enters depends on the column order and on the column
    # scales, so the pivot path does; the verdict must not. Every tableau
    # entry of these systems is a ratio of small integer minors times a
    # ratio of scales in [1/4, 4], so a nonzero one is far above _TOL, and
    # the phase-1 minimum is 0 (feasible) or at least 1/3 (y certifies it),
    # far from _FEAS_TOL either way.
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(certified_systems())
    def test_verdict_ignores_column_order_and_scale(self, system):
        a_eq, b, feasible, perm, scale = system
        assert all_feasible(a_eq, b[None]) == feasible
        assert all_feasible(a_eq[:, perm] * scale, b[None]) == feasible

    def test_empty_stack_is_feasible(self):
        rays = oracle_rays(random_contacts(np.random.default_rng(3), 2))
        assert all_feasible(rays, np.zeros((0, 6)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            all_feasible(np.ones((2, 3)), [[1.0]])
        with pytest.raises(ValueError):
            all_feasible(np.ones((2, 3)), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "a_eq,b_eqs",
        [
            (np.eye(2), [[math.nan, 1.0]]),
            (np.eye(2), [[1.0, math.inf]]),
            ([[math.nan, 1.0]], [[1.0]]),
        ],
        ids=["nan_b", "inf_b", "nan_a_eq"],
    )
    def test_non_finite_input_rejected(self, a_eq, b_eqs):
        with pytest.raises(ValueError, match="finite"):
            all_feasible(a_eq, b_eqs)

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


def screen(a_eq, bases, pending):
    """_screen over the bases that _inverses inverts, as all_feasible calls it."""
    invertible, inverses = _inverses(a_eq, bases)
    return _screen(a_eq, bases[invertible], inverses, pending)


def recording_screen(monkeypatch):
    """Wrap simplex._screen; return the list of (bases, pending, kept) it sees."""
    calls = []

    def recording(a_eq, bases, inverses, pending):
        kept = _screen(a_eq, bases, inverses, pending)
        calls.append((bases, pending, kept))
        return kept

    monkeypatch.setattr(simplex, "_screen", recording)
    return calls


class TestBasisScreen:
    def test_dropped_wrenches_are_feasible_alone(self, monkeypatch):
        # One set of each perfbench kind per seed, closure and not. Each gets
        # a block of wrenches it resists by construction, so the first block
        # finishes feasible, then 250 sampled unit wrenches. Every basis the
        # call caches then screens all 250, unresisted ones among them where
        # the set does not resist them all; that drops every wrench the call
        # dropped, and more. Once the screen is off, every dropped wrench
        # takes a slot and runs its own phase 1, cold or warm from a cached
        # basis B (whose rows A_B^-1 [A | b] have the same solutions), so True
        # over all of them means each one is feasible alone.
        calls = recording_screen(monkeypatch)
        rng = np.random.default_rng(59)
        checks = []
        dropped = {True: 0, False: 0}
        kept_where_some_unresisted = 0
        for seed in range(32):
            for _, contacts in instances.generate(seed, 1):
                rays = oracle_rays(contacts)
                sampled = -closure.sample_unit_wrenches(250, seed)
                del calls[:]
                resisted = all_feasible(rays, np.vstack([
                    -resistible_wrenches(rng, contacts, _BLOCK), sampled
                ]))
                assert calls
                kept = screen(rays, np.vstack([bases for bases, _, _ in calls]), sampled)
                kept_rows = {row.tobytes() for row in kept}
                rows = [row for row in sampled if row.tobytes() not in kept_rows]
                dropped[resisted] += len(rows)
                kept_where_some_unresisted += 0 if resisted else kept.shape[0]
                checks.append((rays, np.array(rows).reshape(-1, 6)))
        monkeypatch.setattr(simplex, "_screen", lambda a_eq, bases, inverses, pending: pending)
        assert all(all_feasible(rays, rows) for rays, rows in checks)
        # 15,313 and 144 dropped, and 15,606 kept on sets with an unresisted
        # sample: the check covers both kinds of set.
        assert dropped[True] >= 10000 and dropped[False] >= 100
        assert kept_where_some_unresisted >= 10000

    def test_singular_basis_proves_nothing(self):
        # Columns 0 and 1 are equal, so the basis {0, 1} has no inverse,
        # although b = (1, 0) is column 0 itself. Screened with a good basis
        # in the same batch, the good one still drops what it proves.
        a_eq = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        pending = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        assert np.array_equal(screen(a_eq, np.array([[0, 1]]), pending), pending)
        kept = screen(a_eq, np.array([[0, 1], [0, 2]]), pending)
        assert np.array_equal(kept, pending[[2]])

    def test_basis_that_fails_the_residual_gate_proves_nothing(self):
        # Nearly antiparallel columns: x = (0.3 + 0.7e10, 0.7e10) solves
        # A_B x = (0.3, 0.7) exactly, but rounding x1 leaves a residual near
        # 1e-6, so the first two rows are kept although x >= 0. The third
        # rounds exactly and is dropped.
        a_eq = np.array([[1.0, -1.0], [0.0, 1e-10]])
        pending = np.array([[0.3, 0.7], [0.1, 0.2], [1.0, 1.0]])
        x = pending @ np.linalg.inv(a_eq.T)
        assert np.all(x >= 0.0)
        assert np.all(np.abs(x[:2] @ a_eq.T - pending[:2]).sum(axis=1) > _FEAS_TOL)
        kept = screen(a_eq, np.array([[0, 1]]), pending)
        assert np.array_equal(kept, pending[:2])

    def test_unresisted_wrench_queued_behind_a_warm_cache(self, monkeypatch):
        # The unresisted wrench sits at 499, or first in the queue after each
        # block edge, behind resistible wrenches whose finished bases are
        # cached. It must reach a slot and give False, and it must have met
        # the screen on its way there.
        calls = recording_screen(monkeypatch)
        rng = np.random.default_rng(61)
        while True:
            contacts = random_contacts(rng, 2)
            if not is_force_closure(contacts).is_force_closure:
                break
        a_ub, b_ub, g = oracle_program(contacts)
        while True:
            unresisted = rng.standard_normal(6)
            if not scipy_feasible(a_ub, b_ub, g, -unresisted):
                break
        rays = oracle_rays(contacts)
        resisted = resistible_wrenches(rng, contacts, 500)
        assert all_feasible(rays, -resisted)
        for at in [499] + list(range(_BLOCK, 500, _BLOCK)):
            stack = resisted.copy()
            stack[at] = unresisted
            del calls[:]
            assert not all_feasible(rays, -stack)
            met = [kept for _, pending, kept in calls if (pending == -unresisted).all(axis=1).any()]
            assert met and (met[-1] == -unresisted).all(axis=1).any()

    def test_each_screen_inverts_its_bases_once(self, monkeypatch):
        # The screen and the warm-start cache share one _inverses call per
        # batch of fresh bases, and the screen gets the bases it inverted.
        calls = recording_screen(monkeypatch)
        inverted = []

        def recording(a_eq, bases):
            inverted.append(bases)
            return _inverses(a_eq, bases)

        monkeypatch.setattr(simplex, "_inverses", recording)
        rng = np.random.default_rng(71)
        for seed in range(4):
            for _, contacts in instances.generate(seed, 1):
                del calls[:], inverted[:]
                assert all_feasible(oracle_rays(contacts),
                                    -resistible_wrenches(rng, contacts, 500))
                assert calls and len(inverted) == len(calls)
                for (bases, _, _), batch in zip(calls, inverted):
                    assert {tuple(row) for row in bases} <= {tuple(row) for row in batch}


def recording_starts(monkeypatch):
    """Wrap simplex._start; return the (b, warm) pairs it starts, in order."""
    starts = []

    def recording(a_eq, rhs, bases, inverses):
        block, basis, warm = _start(a_eq, rhs, bases, inverses)
        starts.extend(zip(rhs, warm))
        return block, basis, warm

    monkeypatch.setattr(simplex, "_start", recording)
    return starts


@functools.cache
def perfbench_sets(seed):
    return [contacts for _, contacts in instances.generate(seed, 64)]


class TestWarmStart:
    # Right-hand sides of the same a_eq that are feasible by construction
    # fill the first block, which starts cold, and leave bases behind; a b
    # queued after them that no basis covers starts warm from one of them
    # (b starts warm in 53 of the 300 examples, each of them infeasible).
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(certified_systems(), st.integers(_BLOCK, _BLOCK + 8), st.integers(0, 2**16))
    def test_verdict_behind_feasible_systems(self, system, ahead, seed):
        a_eq, b, feasible, _, _ = system
        rng = np.random.default_rng(seed)
        stack = np.vstack([rng.integers(0, 4, size=(ahead, a_eq.shape[1])) @ a_eq.T, b])
        assert all_feasible(a_eq, stack) == feasible

    # Which wrench meets which cached basis, and so which start warm, depends
    # on the order of the stack; the verdict must not.
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 7), st.integers(0, 255), st.randoms(use_true_random=False))
    def test_stack_verdict_ignores_wrench_order(self, seed, index, random):
        contacts = perfbench_sets(seed)[index]
        stack = np.vstack([
            resistible_wrenches(np.random.default_rng(seed), contacts, 2 * _BLOCK),
            closure.sample_unit_wrenches(16, seed),
        ])
        order = list(range(stack.shape[0]))
        random.shuffle(order)
        assert can_resist(contacts, stack[order]) == can_resist(contacts, stack)

    def test_start_from_the_best_cached_basis(self):
        # Columns 0 and 1 are the basis B with A_B^-1 = [[1, 1], [0, 1]].
        # b0 = (1, -1) gives A_B^-1 b0 = (0, -1): warm, row 1 negated onto
        # its artificial, row 0 on column 0. b1 gives x >= 0 on the nearly
        # antiparallel basis of the residual-gate test, which the screen
        # kept, so it starts cold on both artificials. Column 2 duplicates
        # column 0, so the basis {0, 2} is singular and never cached.
        a_eq = np.array([[1.0, -1.0, 1.0, 0.5], [0.0, 1.0, 0.0, 2.0]])
        invertible, inverses = _inverses(a_eq, np.array([[0, 2], [0, 1]]))
        assert invertible.tolist() == [False, True]
        np.testing.assert_array_equal(inverses, [[[1.0, 1.0], [0.0, 1.0]]])
        block, basis, warm = _start(a_eq, np.array([[1.0, -1.0]]), np.array([[0, 1]]), inverses)
        assert warm.tolist() == [True] and basis.tolist() == [[0, 5]]
        np.testing.assert_array_equal(block[0], [
            [1.0, 0.0, 1.0, 2.5, 0.0],
            [-0.0, -1.0, -0.0, -2.0, 1.0],
            [0.0, 1.0, 0.0, 2.0, -1.0],
        ])
        gate = np.array([[1.0, -1.0], [0.0, 1e-10]])
        b1 = np.array([[0.3, 0.7]])
        invertible, inverses = _inverses(gate, np.array([[0, 1]]))
        assert (inverses[0] @ b1[0] >= 0.0).all()
        assert np.array_equal(_screen(gate, np.array([[0, 1]]), inverses, b1), b1)
        block, basis, warm = _start(gate, b1, np.array([[0, 1]]), inverses)
        assert warm.tolist() == [False] and basis.tolist() == [[2, 3]]
        np.testing.assert_array_equal(block[0, :2], np.hstack([gate, b1.T]))

    def test_warm_false_is_decided_again_cold(self, monkeypatch):
        # An unresisted wrench queued behind a block of resisted ones starts
        # warm, and its phase 1 ends infeasible. The False returned must be
        # that of a cold one-row call on it.
        rng = np.random.default_rng(67)
        while True:
            contacts = random_contacts(rng, 2)
            if not is_force_closure(contacts).is_force_closure:
                break
        a_ub, b_ub, g = oracle_program(contacts)
        while True:
            unresisted = rng.standard_normal(6)
            if not scipy_feasible(a_ub, b_ub, g, -unresisted):
                break
        rays = oracle_rays(contacts)
        stack = -resistible_wrenches(rng, contacts, 2 * _BLOCK)
        stack[_BLOCK + 5] = -unresisted
        starts = recording_starts(monkeypatch)
        calls = []
        solve = simplex.all_feasible

        def recording(a_eq, b_eqs):
            calls.append(np.asarray(b_eqs).reshape(-1, 6))
            return solve(a_eq, b_eqs)

        monkeypatch.setattr(simplex, "all_feasible", recording)
        assert not simplex.all_feasible(rays, stack)
        assert [warm for b, warm in starts if (b == -unresisted).all()] == [True, False]
        assert len(calls) == 2 and np.array_equal(calls[1], -unresisted[None])


class TestPivotCounts:
    def test_hand_checked_equality_program(self):
        # min x1 + x2  s.t. x1 - x2 = 2, x1 >= 0, x2 >= 0. Phase 1 enters x1+
        # on the equality row (ratio 2), which retires the only artificial.
        # Phase 2 prices x2- at -2 and enters it on the x2 >= 0 row (ratio
        # 0 beats ratio 2), after which no reduced cost is negative.
        result = solve_lp(
            np.array([1.0, 1.0]),
            a_ub=np.array([[-1.0, 0.0], [0.0, -1.0]]),
            b_ub=np.zeros(2),
            a_eq=np.array([[1.0, -1.0]]),
            b_eq=np.array([2.0]),
        )
        assert result.status == OPTIMAL
        np.testing.assert_array_equal(result.x, [2.0, 0.0])
        assert (result.phase1_pivots, result.phase2_pivots) == (1, 1)

    def test_leftover_artificial_counts_as_phase_1(self):
        # min x2  s.t. x2 <= 1, -x2 = -1. The negated equality row starts on
        # its artificial. Phase 1 enters x2+ with ratio 1 in both rows; Bland
        # breaks the tie towards the slack row, so the artificial stays basic
        # at zero and is then pivoted out on the slack column: two phase-1
        # pivots. Phase 2 finds every reduced cost already zero.
        result = solve_lp(
            np.array([0.0, 1.0]),
            a_ub=np.array([[0.0, 1.0]]),
            b_ub=np.array([1.0]),
            a_eq=np.array([[0.0, -1.0]]),
            b_eq=np.array([-1.0]),
        )
        assert result.status == OPTIMAL
        np.testing.assert_array_equal(result.x, [0.0, 1.0])
        assert (result.phase1_pivots, result.phase2_pivots) == (2, 0)

    def test_no_artificials_means_no_phase_1(self):
        result = solve_lp(np.array([-1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([3.0]))
        assert result.status == OPTIMAL
        assert (result.phase1_pivots, result.phase2_pivots) == (0, 1)

    def test_certify_program_pivots_in_both_phases(self, monkeypatch):
        results = []

        def record(*args, **kwargs):
            results.append(solve_lp(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(closure, "solve_lp", record)
        pair = [
            Contact.from_normal((0.0, 0.03, 0.0), (0.0, -1.0, 0.0)),
            Contact.from_normal((0.0, -0.03, 0.0), (0.0, 1.0, 0.0)),
        ]
        assert is_force_closure(pair).is_force_closure
        (result,) = results
        assert result.phase1_pivots > 0
        assert result.phase2_pivots > 0


# The certify solver as it stood before its ratio test moved to Python
# floats and its pivot dropped np.outer, kept verbatim as the reference that
# TestFrozenSolver compares solve_lp against bit for bit.
def frozen_pivot(tableau, obj, basis, row, col):
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= np.outer(factor, tableau[row])
    obj -= obj[col] * tableau[row]
    basis[row] = col


def frozen_iterate(tableau, obj, basis, allowed):
    for _ in range(simplex._MAX_PIVOTS):
        eligible = np.flatnonzero(obj[:allowed] < -simplex._TOL)
        if eligible.size == 0:
            return OPTIMAL
        entering = eligible[0]  # Bland: smallest eligible index
        col = tableau[:, entering]
        best_row = -1
        best_ratio = np.inf
        for r in np.flatnonzero(col > simplex._TOL):
            ratio = tableau[r, -1] / col[r]
            if ratio < best_ratio - simplex._TOL or (
                ratio < best_ratio + simplex._TOL
                and (best_row < 0 or basis[r] < basis[best_row])
            ):
                best_ratio = ratio
                best_row = r
        if best_row < 0:
            return UNBOUNDED
        frozen_pivot(tableau, obj, basis, best_row, entering)
    raise RuntimeError("simplex failed to terminate")


def frozen_solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = c.shape[0]

    def _block(a, b, kind):
        if a is None:
            return np.zeros((0, n)), np.zeros(0)
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != (b.shape[0], n):
            raise ValueError(f"{kind} constraint shapes disagree: {a.shape} vs {b.shape}")
        return a, b

    a_ub, b_ub = _block(a_ub, b_ub, "inequality")
    a_eq, b_eq = _block(a_eq, b_eq, "equality")
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq

    a_rows = np.vstack([a_ub, a_eq]) if m else np.zeros((0, n))
    b = np.concatenate([b_ub, b_eq])
    split = np.hstack([a_rows, -a_rows])
    slack = np.eye(m, m_ub)

    flip = b < 0.0
    split[flip] *= -1.0
    slack[flip] *= -1.0
    b = np.where(flip, -b, b)

    n_real = 2 * n + m_ub
    need_art = [i for i in range(m) if i >= m_ub or flip[i]]
    n_cols = n_real + len(need_art)
    tableau = np.zeros((m, n_cols + 1))
    tableau[:, : 2 * n] = split
    tableau[:, 2 * n : n_real] = slack
    tableau[:, -1] = b

    basis = [2 * n + i for i in range(m)]
    for k, i in enumerate(need_art):
        tableau[i, n_real + k] = 1.0
        basis[i] = n_real + k

    if need_art:
        obj = np.zeros(n_cols + 1)
        obj[n_real:n_cols] = 1.0
        for i in need_art:
            obj -= tableau[i]
        status = frozen_iterate(tableau, obj, basis, n_cols)
        if status != OPTIMAL or -obj[-1] > simplex._FEAS_TOL:
            return simplex.LpResult(INFEASIBLE, None, None)
        keep = []
        for r in range(m):
            if basis[r] < n_real:
                keep.append(r)
                continue
            piv = np.flatnonzero(np.abs(tableau[r, :n_real]) > simplex._TOL)
            if piv.size:
                frozen_pivot(tableau, obj, basis, r, piv[0])
                keep.append(r)
        if len(keep) < m:
            tableau = tableau[keep]
            basis = [basis[r] for r in keep]
            m = len(keep)

    obj = np.zeros(n_cols + 1)
    obj[:n] = c
    obj[n : 2 * n] = -c
    for r in range(m):
        if obj[basis[r]] != 0.0:
            obj -= obj[basis[r]] * tableau[r]
    status = frozen_iterate(tableau, obj, basis, n_real)
    if status == UNBOUNDED:
        return simplex.LpResult(UNBOUNDED, None, None)

    full = np.zeros(n_cols)
    full[basis] = tableau[:, -1]
    x = full[:n] - full[n : 2 * n]
    return simplex.LpResult(OPTIMAL, x, float(c @ x))


def solve_both(*args, **kwargs):
    """solve_lp's result after checking its status and bits against the frozen solver."""
    got = solve_lp(*args, **kwargs)
    want = frozen_solve_lp(*args, **kwargs)
    assert got.status == want.status
    if want.x is None:
        assert got.x is None and got.fun is None
    else:
        assert got.x.tobytes() == want.x.tobytes()
        assert got.fun.hex() == want.fun.hex()
    return got


def tilted_pair(rng):
    """Two contacts facing each other across a gap, normals tilted inside the friction cone."""
    mu = rng.uniform(0.3, 0.9)
    contacts = []
    for sign in (1.0, -1.0):
        normal = np.array([0.0, -sign, 0.0]) + 0.4 * mu * rng.uniform(-1.0, 1.0, size=3)
        position = (rng.uniform(-0.01, 0.01), sign * rng.uniform(0.015, 0.05), 0.0)
        contacts.append(Contact.from_normal(position, normal, mu, rng.uniform(0.002, 0.01)))
    return contacts


def certify_sets(rng):
    sets = []
    for _ in range(12):
        sets.append(random_contacts(rng, 2))
        sets.append(random_contacts(rng, 3))
        sets.append(tilted_pair(rng))
        sets.append(tilted_pair(rng) + random_contacts(rng, 1))
        # Coincident: every contact at one point. A pair leaves G at rank 5;
        # a triple can reach rank 6.
        point = rng.uniform(-0.05, 0.05, size=3)
        for count in (2, 3):
            sets.append([
                Contact.from_normal(point, rng.standard_normal(3), rng.uniform(0.2, 1.0), 0.005)
                for _ in range(count)
            ])
        # One contact: G has rank 4.
        sets.append(random_contacts(rng, 1))
        # No torsional friction, so no force is strictly inside the cones.
        sets.append([Contact(c.position, c.rotation, c.mu, 0.0) for c in tilted_pair(rng)])
    return sets


def engineered_ratio_programs():
    """One free variable x and rows whose first ratio test ties, or nearly does.

    Each row is x >= r (for r > 0 negated to start on an artificial) or
    x <= r (starts on its slack), scaled by 1 or 0.5, so a row that is a
    candidate in the first pivot has ratio exactly r, and Bland's tie-break
    ranks slack rows before artificial ones. The final x depends on which
    row wins that test and the tests that follow.
    """
    ulp = np.spacing(1e8)
    ratio_lists = [
        (1.0, 1.0 + 0.5e-9),  # 0.5e-9 apart: inside the tie band
        (0.0, 1e-9), (1e-9, 2e-9), (0.0, 2e-9),  # exactly 1e-9 and 2e-9 apart
        (0.0, 0.6e-9, 1.2e-9), (0.0, 0.7e-9, 1.4e-9),  # chains inside the band
        (1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9),
        (1e8, 1e8), (1e8, 1e8 + ulp), (1e8, 1e8 + 2 * ulp),  # where 1e8 +- _TOL == 1e8
        (1e8 - ulp, 1e8, 1e8 + ulp),
    ]
    programs = []
    for ratios in ratio_lists:
        for order in itertools.permutations(ratios):
            for kinds in itertools.product((-1.0, 1.0), repeat=len(order)):
                for scale in (1.0, 0.5):
                    a_ub = scale * np.array(kinds)[:, None]
                    b_ub = scale * np.array(kinds) * np.array(order)
                    for c in (0.0, 1.0, -1.0):
                        programs.append(([c], a_ub, b_ub))
    return programs


class TestFrozenSolver:
    def test_certify_programs(self, monkeypatch):
        programs = []

        def check(*args, **kwargs):
            programs.append(args)
            return solve_both(*args, **kwargs)

        monkeypatch.setattr(closure, "solve_lp", check)
        verdicts = {True: 0, False: 0}
        for contacts in certify_sets(np.random.default_rng(53)):
            verdicts[is_force_closure(contacts).is_force_closure] += 1
        assert len(programs) == 96
        assert min(verdicts.values()) >= 10

    def test_perfbench_certify_programs(self, monkeypatch):
        # Every closure set of perfbench seeds 1 and 6, whose verdicts the
        # benchmark compares, and four more sets on which the ratio test's
        # tie-break pivots on a tiny element and wrongly says "no", as it
        # does on sets (1, 144) and (6, 148): a speed change must keep these
        # wrong answers until a change meant to fix them.
        programs = []

        def check(*args, **kwargs):
            programs.append(args)
            return solve_both(*args, **kwargs)

        monkeypatch.setattr(closure, "solve_lp", check)
        sets = perfbench_sets(1) + perfbench_sets(6)
        for seed, index in ((8, 145), (11, 25), (22, 108), (28, 165)):
            sets.append(perfbench_sets(seed)[index])
        for contacts in sets:
            is_force_closure(contacts)
        assert len(programs) == 516

    def test_general_programs(self):
        # Negative b_ub rows and equality rows of both signs start on
        # artificials; some programs are infeasible or unbounded.
        rng = np.random.default_rng(59)
        statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        for _ in range(120):
            n = int(rng.integers(2, 6))
            a_ub = rng.standard_normal((int(rng.integers(2, 7)), n))
            a_eq = rng.standard_normal((int(rng.integers(1, 3)), n))
            x0 = rng.standard_normal(n)
            b_ub = a_ub @ x0 + rng.uniform(-1.0, 1.0, size=a_ub.shape[0])
            b_eq = a_eq @ x0 + rng.uniform(-2.0, 2.0, size=a_eq.shape[0])
            statuses[solve_both(rng.standard_normal(n), a_ub, b_ub, a_eq, b_eq).status] += 1
        assert min(statuses.values()) >= 5
        # No variables and no rows: no column can enter in either phase.
        assert solve_both(np.zeros(0)).status == OPTIMAL

    def test_near_tie_programs(self):
        # Small integer rows whose right-hand sides sit a few half-tolerances
        # apart, so ties and near-ties recur after the first pivot too.
        rng = np.random.default_rng(61)
        for _ in range(300):
            n = int(rng.integers(2, 4))
            a_ub = rng.integers(-2, 3, size=(int(rng.integers(2, 6)), n)).astype(float)
            a_eq = rng.integers(-2, 3, size=(int(rng.integers(0, 2)), n)).astype(float)
            b_ub = rng.integers(-1, 2, size=a_ub.shape[0]) + 0.5e-9 * rng.integers(
                -3, 4, size=a_ub.shape[0]
            )
            b_eq = rng.integers(-1, 2, size=a_eq.shape[0]) * 1.0
            c = rng.integers(-1, 2, size=n).astype(float)
            solve_both(c, a_ub, b_ub, a_eq if a_eq.size else None, b_eq if a_eq.size else None)

    def test_engineered_ratio_tests(self):
        programs = engineered_ratio_programs()
        for c, a_ub, b_ub in programs:
            solve_both(c, a_ub, b_ub)
        assert len(programs) > 1000
