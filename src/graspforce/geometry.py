"""Fixed-size spatial algebra for contact and wrench bookkeeping.

Everything here operates on plain numpy arrays: 3-vectors, 3x3 rotation
matrices and 6-component force/torque pairs. Units are metres, Newtons
and Newton-metres throughout. Contact-local frames put the inward
surface normal on the local z axis; a per-contact force is a length-4
array [fx, fy, fz, tau] holding the tangential force components, the
normal force and the torque about the normal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHONORMAL_TOL = 1e-9

# Index layout of a per-contact force vector.
FX, FY, FZ, FTAU = 0, 1, 2, 3


def as_vec3(v) -> np.ndarray:
    out = np.asarray(v, dtype=float)
    if out.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {out.shape}")
    return out


def hat(v) -> np.ndarray:
    """Skew-symmetric cross-product matrix: hat(v) @ u == cross(v, u)."""
    x, y, z = as_vec3(v)
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def is_rotation(r, tol: float = ORTHONORMAL_TOL) -> bool:
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return False
    if not np.all(np.isfinite(r)):
        return False
    if np.max(np.abs(r.T @ r - np.eye(3))) > tol:
        return False
    return np.linalg.det(r) > 0.0


def require_rotation(r, tol: float = ORTHONORMAL_TOL) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if not is_rotation(r, tol):
        raise ValueError("matrix is not a right-handed orthonormal rotation")
    return r


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rodrigues' formula; axis need not be normalised."""
    a = as_vec3(axis)
    n = np.linalg.norm(a)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    a = a / n
    k = hat(a)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_from_normal(normal) -> np.ndarray:
    """Build a contact frame whose local z axis is the given normal.

    The tangent directions are chosen deterministically from whichever
    world axis is least aligned with the normal, so equal inputs always
    produce the same frame.
    """
    n = as_vec3(normal)
    ln = np.linalg.norm(n)
    if ln == 0.0:
        raise ValueError("contact normal must be nonzero")
    n = n / ln
    seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = np.cross(seed, n)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return np.column_stack([t1, t2, n])


@dataclass(frozen=True)
class Wrench:
    """A spatial force: linear force plus torque, both in one frame."""

    force: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "force", as_vec3(self.force))
        object.__setattr__(self, "torque", as_vec3(self.torque))

    @classmethod
    def from_vector(cls, w) -> "Wrench":
        w = np.asarray(w, dtype=float)
        if w.shape != (6,):
            raise ValueError(f"expected a 6-vector, got shape {w.shape}")
        return cls(w[:3], w[3:])

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.force, self.torque])


def wrench_basis_apply(f) -> Wrench:
    """Map a contact-local force [fx, fy, fz, tau] to a contact-local wrench.

    A soft fingertip transmits three force components and a torque about
    its surface normal only; the returned wrench never carries torque
    about the local x or y axis.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (4,):
        raise ValueError(f"expected a 4-component contact force, got shape {f.shape}")
    return Wrench(f[:3].copy(), np.array([0.0, 0.0, f[FTAU]]))


def adjoint_transform(p, r, w: Wrench) -> Wrench:
    """Express a wrench given in a contact frame in the object frame.

    The contact frame sits at position p with orientation r relative to
    the object frame. Forces rotate; torques pick up the moment of the
    rotated force about the object origin.
    """
    p = as_vec3(p)
    r = require_rotation(r)
    force = r @ w.force
    # p x force with np.cross's formulas in its operand order, on Python
    # floats: same bits, without np.cross's axis handling.
    px, py, pz = p.tolist()
    fx, fy, fz = force.tolist()
    moment = np.array([py * fz - pz * fy, pz * fx - px * fz, px * fy - py * fx])
    return Wrench(force, moment + r @ w.torque)


def compose_frames(p1, r1, p2, r2) -> tuple[np.ndarray, np.ndarray]:
    """Frame 1 expressed in frame 2's parent: first apply (p1, r1), then (p2, r2)."""
    p1, p2 = as_vec3(p1), as_vec3(p2)
    r1, r2 = require_rotation(r1), require_rotation(r2)
    return p2 + r2 @ p1, r2 @ r1
