"""Grasp matrix, friction cones, and the force-closure certificate."""

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from graspforce import closure
from graspforce.closure import (
    ClosureReport,
    Contact,
    build_grasp_matrix,
    can_resist,
    cone_rays,
    in_friction_cone,
    is_force_closure,
    linearize_cone,
    resistance_oracle,
    sample_unit_wrenches,
)
from graspforce.geometry import adjoint_transform, as_vec3, require_rotation
from graspforce.scenarios import OBJECTS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import instances  # noqa: E402


def antipodal_pair(mu=0.5, mu_tau=0.005, spacing=0.03):
    return [
        Contact.from_normal((0.0, spacing, 0.0), (0.0, -1.0, 0.0), mu, mu_tau),
        Contact.from_normal((0.0, -spacing, 0.0), (0.0, 1.0, 0.0), mu, mu_tau),
    ]


def random_contacts(rng, count):
    contacts = []
    for _ in range(count):
        normal = rng.standard_normal(3)
        normal /= np.linalg.norm(normal)
        contacts.append(
            Contact.from_normal(
                rng.uniform(-0.05, 0.05, size=3),
                normal,
                mu=rng.uniform(0.1, 1.0),
                mu_tau=rng.uniform(0.0, 0.01),
            )
        )
    return contacts


class TestContact:
    def test_from_normal_sets_third_column(self):
        c = Contact.from_normal((0.0, 0.0, 0.0), (0.0, 0.0, -1.0))
        np.testing.assert_allclose(c.rotation[:, 2], [0.0, 0.0, -1.0], atol=1e-12)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            Contact((0.0, 0.0, 0.0), np.ones((3, 3)))

    def test_rejects_negative_friction(self):
        with pytest.raises(ValueError):
            Contact.from_normal((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), mu=-0.1)


class TestGraspMatrix:
    def test_identity_frame_embedding(self):
        c = Contact(np.zeros(3), np.eye(3))
        g = build_grasp_matrix([c])
        expected = np.zeros((6, 4))
        expected[0, 0] = expected[1, 1] = expected[2, 2] = 1.0
        expected[5, 3] = 1.0
        np.testing.assert_allclose(g, expected, atol=1e-15)

    def test_antipodal_squeeze_has_zero_net_wrench(self):
        g = build_grasp_matrix(antipodal_pair())
        squeeze = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(g @ squeeze, np.zeros(6), atol=1e-12)

    def test_matches_per_contact_summation(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            contacts = random_contacts(rng, int(rng.integers(1, 5)))
            g = build_grasp_matrix(contacts)
            f = rng.standard_normal(4 * len(contacts))
            total = np.zeros(6)
            for i, c in enumerate(contacts):
                fx, fy, fz, tau = f[4 * i : 4 * i + 4]
                total += adjoint_transform(
                    c.position, c.rotation, np.array([fx, fy, fz, 0.0, 0.0, tau])
                )
            np.testing.assert_allclose(g @ f, total, atol=1e-12)

    def test_empty_contacts_rejected(self):
        with pytest.raises(ValueError, match="zero contacts"):
            build_grasp_matrix([])

    def test_one_adjoint_call_per_contact(self, monkeypatch):
        calls = []

        def counting(p, r, w):
            calls.append(np.shape(w))
            return adjoint_transform(p, r, w)

        monkeypatch.setattr(closure, "adjoint_transform", counting)
        for count in (1, 2, 3):
            calls.clear()
            build_grasp_matrix(random_contacts(np.random.default_rng(count), count))
            assert calls == [(6, 4)] * count


class TestQuadraticCone:
    def test_pure_normal_force_inside(self):
        assert in_friction_cone((0.0, 0.0, 1.0, 0.0), 0.5, 0.1)

    def test_tangential_overload_outside(self):
        assert not in_friction_cone((0.6, 0.0, 1.0, 0.0), 0.5, 0.1)

    def test_torsional_overload_outside(self):
        assert not in_friction_cone((0.0, 0.0, 1.0, 0.2), 0.5, 0.1)

    def test_pulling_outside(self):
        assert not in_friction_cone((0.0, 0.0, -1.0, 0.0), 0.5, 0.1)

    @pytest.mark.parametrize("tau", [0.25, -0.25])
    def test_torsion_on_the_boundary_inside(self, tau):
        assert in_friction_cone((0.0, 0.0, 1.0, tau), 0.5, 0.25)

    def test_margin_tightens_the_test(self):
        f = (0.49, 0.0, 1.0, 0.0)
        assert in_friction_cone(f, 0.5, 0.1)
        assert not in_friction_cone(f, 0.5, 0.1, margin=0.02)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            in_friction_cone((0.0, 0.0, 1.0, 0.0), 0.5, 0.1, margin=-0.1)


class TestLinearizedCone:
    def test_row_count(self):
        assert linearize_cone(0.5, 0.005, sides=8).shape == (11, 4)

    def test_axis_point_strictly_interior(self):
        rows = linearize_cone(0.5, 0.005, sides=8)
        slack = rows @ np.array([0.0, 0.0, 1.0, 0.0])
        assert np.min(slack) > 0.0

    def test_frictionless_cone_pins_tangentials(self):
        rows = linearize_cone(0.0, 0.005, sides=8)
        assert np.all(rows @ np.array([0.0, 0.0, 1.0, 0.0]) >= 0.0)
        assert np.min(rows @ np.array([1e-6, 0.0, 1.0, 0.0])) < 0.0
        assert np.min(rows @ np.array([0.0, -1e-6, 1.0, 0.0])) < 0.0

    def test_inscribed_soundness(self):
        # Every force accepted by the polyhedral cone must satisfy the
        # quadratic constraints: the approximation is inner, never outer.
        rng = np.random.default_rng(37)
        rows = linearize_cone(0.5, 0.005, sides=8)
        accepted = 0
        while accepted < 2000:
            f = np.array(
                [
                    rng.uniform(-0.7, 0.7),
                    rng.uniform(-0.7, 0.7),
                    rng.uniform(0.0, 1.0),
                    rng.uniform(-0.008, 0.008),
                ]
            )
            if np.all(rows @ f >= 0.0):
                accepted += 1
                assert in_friction_cone(f, 0.5, 0.005)

    def test_too_few_sides_rejected(self):
        with pytest.raises(ValueError):
            linearize_cone(0.5, 0.005, sides=2)


class TestConeRays:
    CASES = [(0.5, 0.005, 8), (0.3, 0.01, 3), (1.0, 0.0, 5), (0.0, 0.004, 8),
             (0.0, 0.0, 4), (0.8, 0.002, 12)]

    @pytest.mark.parametrize("mu,mu_tau,sides", CASES)
    def test_rays_lie_in_the_linearized_cone(self, mu, mu_tau, sides):
        rays = cone_rays(mu, mu_tau, sides)
        assert rays.shape == (4, 2 * sides)
        assert np.all(linearize_cone(mu, mu_tau, sides) @ rays >= -1e-12)

    @pytest.mark.parametrize("mu,mu_tau,sides", [c for c in CASES if c[0] > 0 and c[1] > 0])
    def test_every_face_is_tight_on_a_facet_of_rays(self, mu, mu_tau, sides):
        # On a full-dimensional cone every tangential and torsional face is a
        # facet: the rays on it span rank 3. The last row, fz >= 0, is implied
        # by the others and meets the cone only at the origin.
        rays = cone_rays(mu, mu_tau, sides)
        faces = linearize_cone(mu, mu_tau, sides)
        for face in faces[:-1]:
            tight = rays[:, np.abs(face @ rays) <= 1e-12]
            assert np.linalg.matrix_rank(tight) == 3
        assert np.all(faces[-1] @ rays > 0.0)

    @pytest.mark.parametrize("mu,mu_tau,sides", CASES)
    def test_points_inside_the_cone_are_ray_combinations(self, mu, mu_tau, sides):
        # Points drawn strictly inside the polygon and the torsion band, at
        # random fz; where mu or mu_tau is 0 that interior is relative.
        rng = np.random.default_rng(sides)
        faces = linearize_cone(mu, mu_tau, sides)
        rays = cone_rays(mu, mu_tau, sides)
        apothem = mu * np.cos(np.pi / sides)
        for _ in range(40):
            fz = rng.uniform(0.1, 2.0)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            radius = 0.99 * apothem * fz * rng.uniform(0.0, 1.0)
            point = np.array([
                radius * np.cos(angle),
                radius * np.sin(angle),
                fz,
                0.99 * mu_tau * fz * rng.uniform(-1.0, 1.0),
            ])
            assert np.all(faces @ point >= 0.0)
            ref = linprog(np.zeros(rays.shape[1]), A_eq=rays, b_eq=point, bounds=(0, None),
                          method="highs")
            assert ref.status == 0, ref.message

    def test_too_few_sides_rejected_by_the_oracle(self):
        with pytest.raises(ValueError):
            cone_rays(0.5, 0.005, sides=2)
        with pytest.raises(ValueError):
            can_resist(antipodal_pair(), np.zeros(6), sides=2)


class TestForceClosure:
    def test_antipodal_with_friction_is_closure(self):
        report = is_force_closure(antipodal_pair(mu=0.5))
        assert isinstance(report, ClosureReport)
        assert report.surjective
        assert report.has_strict_internal
        assert report.is_force_closure
        assert report.margin > 0.0

    def test_internal_force_lies_in_the_nullspace_and_cones(self):
        contacts = antipodal_pair(mu=0.5)
        report = is_force_closure(contacts)
        g = build_grasp_matrix(contacts)
        np.testing.assert_allclose(g @ report.internal_force, np.zeros(6), atol=1e-7)
        for i, c in enumerate(contacts):
            assert in_friction_cone(report.internal_force[4 * i : 4 * i + 4], c.mu, c.mu_tau)

    def test_single_contact_is_never_closure(self):
        report = is_force_closure([antipodal_pair()[0]])
        assert not report.surjective
        assert not report.is_force_closure

    def test_frictionless_antipodal_is_not_closure(self):
        report = is_force_closure(antipodal_pair(mu=0.0, mu_tau=0.0))
        assert not report.is_force_closure
        assert report.margin == 0.0
        assert report.internal_force is None

    def test_margin_monotone_in_friction(self):
        margins = [is_force_closure(antipodal_pair(mu=mu)).margin for mu in (0.2, 0.4, 0.8)]
        assert margins[0] > 0.0
        assert margins[0] <= margins[1] + 1e-12
        assert margins[1] <= margins[2] + 1e-12

    def test_verdict_invariant_under_position_scaling(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            contacts = random_contacts(rng, 3)
            scaled = [
                Contact(10.0 * c.position, c.rotation, c.mu, c.mu_tau) for c in contacts
            ]
            assert is_force_closure(contacts).is_force_closure == is_force_closure(
                scaled
            ).is_force_closure

    def test_coincident_contacts_are_not_surjective(self):
        c = antipodal_pair()[0]
        report = is_force_closure([c, c])
        assert not report.surjective
        assert not report.is_force_closure

    @pytest.mark.parametrize("sides", [8, 64, 253] + [
        pytest.param(sides, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 2: the certify LP's ratio-test tie-break; the fix changes"
            " perfbench closure letters, so it waits for the benchmark PR (item 1)"
        )))
        for sides in (96, 128, 160, 200)
    ])
    def test_antipodal_margin_at_every_cone_resolution(self, sides):
        # The README's pair. Balance puts fz = 0.5 on each contact under
        # sum(fz) <= 1, and the torsion faces cap the slack at mu_tau * fz,
        # which zero tangential force and torque reach: the margin is
        # 0.005 * 0.5 = 2.5e-3 at any number of sides. Today 96, 128 and 200
        # sides give a false "no" and 160 a margin of 0.137.
        report = is_force_closure(antipodal_pair(), sides=sides)
        assert report.is_force_closure
        assert report.margin == pytest.approx(2.5e-3, rel=1e-6)


class TestOracle:
    def test_zero_wrench_always_resistable(self):
        assert can_resist(antipodal_pair(mu=0.0, mu_tau=0.0), np.zeros(6))

    def test_oracle_confirms_antipodal_closure(self):
        assert resistance_oracle(antipodal_pair(mu=0.5), wrench_samples=200)

    def test_oracle_rejects_frictionless_pair(self):
        assert not resistance_oracle(antipodal_pair(mu=0.0, mu_tau=0.0), wrench_samples=200)

    def test_oracle_rejects_single_contact(self):
        assert not resistance_oracle([antipodal_pair()[0]], wrench_samples=200)

    def test_oracle_needs_at_least_one_sample(self):
        with pytest.raises(ValueError, match="^wrench_samples must be >= 1$"):
            resistance_oracle(antipodal_pair(), 0)

    def test_sampled_wrenches_are_unit_and_deterministic(self):
        a = sample_unit_wrenches(100, seed=3)
        b = sample_unit_wrenches(100, seed=3)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), np.ones(100), atol=1e-12)

    @pytest.mark.parametrize("mu,mu_tau", [(0.5, 0.005), (0.0, 0.0)],
                             ids=["friction", "frictionless"])
    def test_wrench_stack_equals_all_over_single_calls(self, mu, mu_tau):
        contacts = antipodal_pair(mu=mu, mu_tau=mu_tau)
        wrenches = np.vstack([np.zeros(6), sample_unit_wrenches(30, seed=4)])
        singles = [can_resist(contacts, w) for w in wrenches]
        assert singles[0]
        assert can_resist(contacts, wrenches) == all(singles)
        assert can_resist(contacts, wrenches[:1])

    @pytest.mark.parametrize("scale", [1e-12, 1e-8, 1.0, 1e8])
    def test_verdict_is_scale_free(self, scale):
        # One contact pressing along -y resists -G f for any f in its cone
        # and cannot balance a pure force along z, at any size.
        contact = [Contact.from_normal((0.0, 0.03, 0.0), (0.0, -1.0, 0.0))]
        resisted = -build_grasp_matrix(contact) @ np.array([0.1, -0.05, 1.0, 0.002])
        unresisted = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        assert can_resist(contact, scale * resisted)
        assert not can_resist(contact, scale * unresisted)
        assert can_resist(contact, scale * np.zeros(6))
        assert not can_resist(contact, scale * np.vstack([resisted, unresisted, np.zeros(6)]))

    def test_each_nonzero_wrench_reaches_phase_1_at_unit_norm(self, monkeypatch):
        # The docstring's contract, seen where phase 1 receives the stack:
        # a huge row and a tiny row arrive at norm 1, a zero row stays zero.
        stacks = []

        def capture(rays, stack):
            stacks.append(stack)
            return True

        monkeypatch.setattr(closure, "all_feasible", capture)
        tiny = 1e-12 * np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
        wrenches = np.array([[1e8] * 6, [0.0] * 6, tiny])
        assert can_resist(antipodal_pair(), wrenches)
        np.testing.assert_allclose(np.linalg.norm(stacks[0], axis=1), [1.0, 0.0, 1.0],
                                   rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_wrench_rejected(self, bad):
        wrenches = np.zeros((3, 6))
        wrenches[1, 2] = bad
        # can_resist's own check, not the solver's check of the scaled wrenches.
        with pytest.raises(ValueError, match="^wrenches must be finite$"):
            can_resist(antipodal_pair(), wrenches)

    def test_oracle_builds_the_grasp_matrix_once(self, monkeypatch):
        calls = []

        def counting(contacts):
            calls.append(len(contacts))
            return build_grasp_matrix(contacts)

        monkeypatch.setattr(closure, "build_grasp_matrix", counting)
        assert resistance_oracle(antipodal_pair(mu=0.5), wrench_samples=50)
        assert calls == [2]

    def test_three_finger_disk_grasp_agrees_with_oracle(self):
        contacts = []
        for theta in (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0):
            pos = 0.04 * np.array([np.cos(theta), np.sin(theta), 0.0])
            contacts.append(Contact.from_normal(pos, -pos / np.linalg.norm(pos), mu=0.5))
        verdict = is_force_closure(contacts).is_force_closure
        assert verdict == resistance_oracle(contacts, wrench_samples=100)


# The grasp matrix as it was built before wrenches became plain 6-vectors:
# a Wrench record, the soft-finger basis map and four adjoint calls per
# contact. Kept as it was, less the unused from_vector and the docstrings,
# with FTAU spelled as 3, so the new build can be checked against it bit for
# bit.
@dataclass(frozen=True)
class Wrench:
    """A spatial force: linear force plus torque, both in one frame."""

    force: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "force", as_vec3(self.force))
        object.__setattr__(self, "torque", as_vec3(self.torque))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.force, self.torque])


def wrench_basis_apply(f) -> Wrench:
    f = np.asarray(f, dtype=float)
    if f.shape != (4,):
        raise ValueError(f"expected a 4-component contact force, got shape {f.shape}")
    return Wrench(f[:3].copy(), np.array([0.0, 0.0, f[3]]))


def frozen_adjoint_transform(p, r, w: Wrench) -> Wrench:
    p = as_vec3(p)
    r = require_rotation(r)
    force = r @ w.force
    px, py, pz = p.tolist()
    fx, fy, fz = force.tolist()
    moment = np.array([py * fz - pz * fy, pz * fx - px * fz, px * fy - py * fx])
    return Wrench(force, moment + r @ w.torque)


def frozen_grasp_matrix(contacts):
    return np.column_stack([
        frozen_adjoint_transform(c.position, c.rotation, wrench_basis_apply(basis)).as_vector()
        for c in contacts
        for basis in np.eye(4)
    ])


def probe_contact_sets():
    """Face contacts with normals +-x across each catalog width, alone and paired.

    The pair is the one contact set a force trial certifies; the single
    contacts widen the bitwise check.

    Rotations built from axis normals hold signed zeros, which a column copy
    instead of a matrix product would flip.
    """
    sets = []
    for obj in OBJECTS.values():
        half = 0.5 * obj.width
        left = Contact.from_normal((-half, 0.0, 0.0), (1.0, 0.0, 0.0))
        right = Contact.from_normal((half, 0.0, 0.0), (-1.0, 0.0, 0.0))
        sets += [[left], [right], [left, right]]
    return sets


class TestFrozenGraspMatrix:
    def test_benchmark_sets_match_bitwise(self):
        mismatches = 0
        for seed in range(4):
            for _, contacts in instances.generate(seed, 64):
                g = build_grasp_matrix(contacts)
                mismatches += g.tobytes() != frozen_grasp_matrix(contacts).tobytes()
        assert mismatches == 0

    def test_probe_contacts_match_bitwise(self):
        for contacts in probe_contact_sets():
            g = build_grasp_matrix(contacts)
            assert g.shape == (6, 4 * len(contacts))
            assert g.tobytes() == frozen_grasp_matrix(contacts).tobytes()
