"""Rotation, wrench, and frame-transform algebra."""

import numpy as np
import pytest

from graspforce.geometry import (
    adjoint_transform,
    as_vec3,
    hat,
    is_rotation,
    require_rotation,
    rotation_about_axis,
    rotation_from_normal,
)


def random_rotation(rng):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return rotation_about_axis(axis, rng.uniform(-np.pi, np.pi))


def random_wrench(rng):
    return rng.standard_normal(6)


NON_FINITE = [[np.nan, 0.03, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]]
NON_FINITE_IDS = ["nan", "inf", "-inf"]


class TestHat:
    def test_matches_cross_product(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            np.testing.assert_allclose(hat(a) @ b, np.cross(a, b), atol=1e-14)

    def test_antisymmetric(self):
        m = hat([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(m, -m.T)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            as_vec3([1.0, 2.0])


class TestAsVec3:
    def test_returns_a_float_array(self):
        out = as_vec3([1, 2, 3])
        assert out.dtype == float
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("v", NON_FINITE, ids=NON_FINITE_IDS)
    def test_rejects_non_finite_entries(self, v):
        with pytest.raises(ValueError, match="expected a finite 3-vector"):
            as_vec3(v)


class TestRotations:
    def test_about_axis_is_orthonormal(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            r = random_rotation(rng)
            assert is_rotation(r)
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn_about_z(self):
        r = rotation_about_axis([0.0, 0.0, 1.0], np.pi / 2.0)
        np.testing.assert_allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)

    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(
            rotation_about_axis([0.0, 1.0, 0.0], 0.0), np.eye(3), atol=1e-15
        )

    @pytest.mark.parametrize("scale", [1e-170, 1e155])
    def test_axis_of_any_finite_nonzero_size(self, scale):
        # The squares in the norm of a tiny or huge axis under- or overflow;
        # its rotation is that of the unit axis, with no warning on the way.
        np.testing.assert_array_equal(rotation_about_axis([0.0, scale, 0.0], 0.7),
                                      rotation_about_axis([0.0, 1.0, 0.0], 0.7))

    def test_rejects_zero_axis(self):
        with pytest.raises(ValueError, match="^rotation axis must be nonzero$"):
            rotation_about_axis([0.0, 0.0, 0.0], 0.7)

    def test_require_rotation_rejects_scaled(self):
        with pytest.raises(ValueError):
            require_rotation(2.0 * np.eye(3))

    def test_require_rotation_rejects_reflection(self):
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            require_rotation(reflection)


class TestRotationFromNormal:
    def test_third_column_is_the_normal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            r = rotation_from_normal(n)
            assert is_rotation(r)
            np.testing.assert_allclose(r[:, 2], n, atol=1e-12)

    def test_deterministic(self):
        n = [0.3, -0.4, 0.5]
        np.testing.assert_array_equal(rotation_from_normal(n), rotation_from_normal(n))

    def test_handles_near_axis_normals(self):
        for n in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]):
            r = rotation_from_normal(n)
            assert is_rotation(r)
            np.testing.assert_allclose(r[:, 2], n, atol=1e-12)

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            rotation_from_normal([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("scale", [5e-324, 1e-170, 1e-150, 1e150, 1e155, 1.7e308])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_normal_of_any_finite_nonzero_size(self, scale):
        # The squares in the norm of a tiny or huge normal under- or overflow;
        # its frame is that of the unit normal, with no warning on the way.
        np.testing.assert_array_equal(rotation_from_normal([0.0, -scale, 0.0]),
                                      rotation_from_normal([0.0, -1.0, 0.0]))
        if scale > 1e-300:
            r = rotation_from_normal(np.array([3.0, -4.0, 12.0]) * min(scale, 1e300))
            assert is_rotation(r)
            np.testing.assert_allclose(r[:, 2], [3 / 13, -4 / 13, 12 / 13], rtol=1e-15)

    @pytest.mark.parametrize("n", NON_FINITE, ids=NON_FINITE_IDS)
    def test_rejects_non_finite_normal(self, n):
        # Refused before the normalisation could divide by an infinite norm.
        with pytest.raises(ValueError, match="expected a finite 3-vector"):
            rotation_from_normal(n)


class TestAdjoint:
    def test_linearity(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            p = rng.standard_normal(3)
            r = random_rotation(rng)
            wa = random_wrench(rng)
            wb = random_wrench(rng)
            alpha = rng.standard_normal()
            lhs = adjoint_transform(p, r, alpha * wa + wb)
            rhs = alpha * adjoint_transform(p, r, wa) + adjoint_transform(p, r, wb)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_composition_matches_composed_frame(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            p1, p2 = rng.standard_normal(3), rng.standard_normal(3)
            r1, r2 = random_rotation(rng), random_rotation(rng)
            w = random_wrench(rng)
            # Frame (p1, r1) inside frame (p2, r2): (p1, r1) applies first,
            # so it is the inner adjoint when mapping step by step.
            p12, r12 = p2 + r2 @ p1, r2 @ r1
            step = adjoint_transform(p2, r2, adjoint_transform(p1, r1, w))
            direct = adjoint_transform(p12, r12, w)
            np.testing.assert_allclose(step, direct, atol=1e-9)

    def test_torque_bits_match_np_cross(self):
        # Components span 1e-3 to 1e3 in magnitude, with both signs of zero,
        # under the identity and exact signed permutations as well as
        # general rotations.
        rng = np.random.default_rng(31)
        exact = [np.eye(3), np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                 np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])]

        def vector():
            v = rng.choice([-1.0, 1.0], size=3) * 10.0 ** rng.uniform(-3.0, 3.0, size=3)
            zero = rng.random(3) < 0.25
            v[zero] = rng.choice([-0.0, 0.0], size=int(zero.sum()))
            return v

        for i in range(400):
            p, f, tau = vector(), vector(), vector()
            r = exact[i % 3] if i % 2 else random_rotation(rng)
            out = adjoint_transform(p, r, np.concatenate([f, tau]))
            assert out[3:].tobytes() == (np.cross(p, r @ f) + r @ tau).tobytes()
            assert out[:3].tobytes() == (r @ f).tobytes()

    def test_stack_matches_column_calls_bitwise(self):
        # Same magnitudes and signed zeros as above, k from 1 to 8 columns.
        rng = np.random.default_rng(37)
        for _ in range(100):
            p = rng.standard_normal(3) * 10.0 ** rng.uniform(-3.0, 3.0)
            r = random_rotation(rng)
            k = int(rng.integers(1, 9))
            stack = rng.standard_normal((6, k)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(6, k))
            stack[rng.random((6, k)) < 0.1] = -0.0
            out = adjoint_transform(p, r, stack)
            assert out.shape == (6, k)
            for j in range(k):
                assert out[:, j].tobytes() == adjoint_transform(p, r, stack[:, j]).tobytes()

    @pytest.mark.parametrize("shape", [(5,), (4, 6), (6, 2, 2)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError):
            adjoint_transform(np.zeros(3), np.eye(3), np.zeros(shape))

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            adjoint_transform(np.zeros(3), 2.0 * np.eye(3), np.zeros(6))

    @pytest.mark.parametrize("p", NON_FINITE, ids=NON_FINITE_IDS)
    def test_rejects_non_finite_position(self, p):
        with pytest.raises(ValueError, match="expected a finite 3-vector"):
            adjoint_transform(p, np.eye(3), np.zeros(6))

    def test_identity_frame_is_identity(self):
        w = np.array([1.0, -2.0, 3.0, 0.5, 0.0, -0.5])
        out = adjoint_transform(np.zeros(3), np.eye(3), w)
        np.testing.assert_allclose(out, w, atol=1e-15)

    def test_pure_force_gains_moment_arm(self):
        w = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        out = adjoint_transform([1.0, 0.0, 0.0], np.eye(3), w)
        np.testing.assert_allclose(out[:3], [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(out[3:], [0.0, -1.0, 0.0], atol=1e-15)
