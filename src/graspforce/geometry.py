"""Fixed-size spatial algebra for contact and wrench bookkeeping.

Everything here operates on plain numpy arrays: 3-vectors, 3x3 rotation
matrices and wrenches. A wrench is a 6-vector [force, torque], and a
(6, k) array stacks k wrenches as columns. Units are metres, Newtons
and Newton-metres throughout. Contact-local frames put the inward
surface normal on the local z axis; a per-contact force is a length-4
array [fx, fy, fz, tau] holding the tangential force components, the
normal force and the torque about the normal.
"""

from __future__ import annotations

import numpy as np

ORTHONORMAL_TOL = 1e-9

# Index of the normal force in a per-contact force vector.
FZ = 2


def as_vec3(v) -> np.ndarray:
    out = np.asarray(v, dtype=float)
    if out.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"expected a finite 3-vector, got {out.tolist()}")
    return out


def hat(v) -> np.ndarray:
    """Skew-symmetric cross-product matrix: hat(v) @ u == cross(v, u)."""
    x, y, z = as_vec3(v)
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def is_rotation(r) -> bool:
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return False
    if not np.all(np.isfinite(r)):
        return False
    if np.max(np.abs(r.T @ r - np.eye(3))) > ORTHONORMAL_TOL:
        return False
    return np.linalg.det(r) > 0.0


def require_rotation(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if not is_rotation(r):
        raise ValueError("matrix is not a right-handed orthonormal rotation")
    return r


def _unit(v, what: str) -> np.ndarray:
    """v scaled to unit length; any finite nonzero size works."""
    v = as_vec3(v)
    largest = np.abs(v).max()
    if largest == 0.0:
        raise ValueError(f"{what} must be nonzero")
    if not 1e-150 <= largest <= 1e150:  # where the squares in the norm would under- or overflow
        v = v / largest
    return v / np.linalg.norm(v)


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rodrigues' formula; axis need not be normalised."""
    k = hat(_unit(axis, "rotation axis"))
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_from_normal(normal) -> np.ndarray:
    """Build a contact frame whose local z axis is the given normal.

    The tangent directions are chosen deterministically from whichever
    world axis is least aligned with the normal, so equal inputs always
    produce the same frame.
    """
    n = _unit(normal, "contact normal")
    seed = np.array([1.0, 0.0, 0.0]) if abs(n[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    t1 = np.cross(seed, n)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return np.column_stack([t1, t2, n])


def adjoint_transform(p, r, w) -> np.ndarray:
    """Express wrenches given in a contact frame in the object frame.

    The contact frame sits at position p with orientation r relative to
    the object frame. w is one wrench, a (6,) array, or a (6, k) stack of
    them as columns; the result has the same shape. Forces rotate; torques
    pick up the moment of the rotated force about the object origin.
    """
    p = as_vec3(p)
    r = require_rotation(r)
    w = np.asarray(w, dtype=float)
    if w.ndim not in (1, 2) or w.shape[0] != 6:
        raise ValueError(f"expected a 6-vector or a (6, k) stack, got shape {w.shape}")
    # One matrix-vector product per 3-vector: each column then has the bits
    # of r @ v whatever k is, which a (3, 3) @ (3, k) product does not give.
    force, torque = (r @ w.T.reshape(-1, 2, 3, 1))[..., 0].transpose(1, 2, 0)
    # p x force with np.cross's formulas in its operand order, row-wise:
    # same bits, without np.cross's axis handling.
    px, py, pz = p.tolist()
    fx, fy, fz = force
    moment = np.array([py * fz - pz * fy, pz * fx - px * fz, px * fy - py * fx])
    return np.concatenate([force, moment + torque]).reshape(w.shape)

