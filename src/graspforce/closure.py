"""Grasp matrix construction and force-closure certification.

A grasp is a list of soft-finger contacts on a rigid object. Each contact
transmits a 3-D force plus a torque about its inward normal, subject to
Coulomb friction limits. Stacking the per-contact force components gives a
vector f, and the grasp matrix G maps f to the net object wrench. The grasp
is force-closure when G is surjective and some f strictly inside every
friction cone lies in the nullspace of G: then any external wrench can be
balanced by scaling that internal squeeze plus a particular solution.

The certificate solves a small LP over an inner (inscribed) linearization
of the quadratic cones, so an exact optimum with a positive margin holds an
internal force strictly inside every quadratic cone. Nothing checks the
returned force: the simplex's ratio-test tie-break can return one off the
nullspace or outside its cone, and at fine cones a wrong "yes" (ROADMAP
items 2 and 4). A sampling oracle cross-checks certificates on test instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import NON_NEGATIVE, check_fields
from .geometry import FZ, adjoint_transform, as_vec3, require_rotation, rotation_from_normal
from .simplex import all_feasible, solve_lp

RANK_RTOL = 1e-8
MARGIN_TOL = 1e-9
DEFAULT_CONE_SIDES = 8

# Contact-frame wrenches of unit fx, fy, fz and tau, one per column: a soft
# finger transmits no torque about its tangents.
_SOFT_FINGER = np.zeros((6, 4))
_SOFT_FINGER[[0, 1, 2, 5], [0, 1, 2, 3]] = 1.0


@dataclass(frozen=True)
class Contact:
    """One soft-finger contact: a frame on the object surface plus friction.

    The rotation maps the contact frame into the object frame and its third
    column is the inward surface normal. mu bounds tangential force by
    mu * fz; mu_tau bounds the normal torque by mu_tau * fz (mu_tau carries
    a length unit, N*m per N).
    """

    position: np.ndarray
    rotation: np.ndarray
    mu: float = 0.5
    mu_tau: float = 0.005

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        require_rotation(self.rotation)
        check_fields(self, {"mu": NON_NEGATIVE, "mu_tau": NON_NEGATIVE})

    @classmethod
    def from_normal(cls, position, normal, mu=0.5, mu_tau=0.005) -> "Contact":
        """Build a contact from its inward normal, choosing tangents deterministically."""
        return cls(position, rotation_from_normal(normal), mu, mu_tau)


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of the force-closure test.

    margin is the best achievable slack of an internal force against every
    linearized cone face, under the normalization sum(fz) <= 1; it is
    positive exactly when a strict internal force exists. internal_force
    holds that force, stacked 4 components per contact, when it exists.
    """

    surjective: bool
    has_strict_internal: bool
    is_force_closure: bool
    margin: float
    internal_force: np.ndarray | None = None


def build_grasp_matrix(contacts: list[Contact]) -> np.ndarray:
    """Assemble the 6 x 4n map from stacked contact forces to the net wrench.

    Columns 4i..4i+3 are the object-frame wrenches of contact i's unit
    force/torque basis vectors, so G @ f sums the per-contact contributions.
    """
    if not contacts:
        raise ValueError("cannot build a grasp matrix from zero contacts")
    return np.hstack([adjoint_transform(c.position, c.rotation, _SOFT_FINGER) for c in contacts])


def in_friction_cone(f, mu: float, mu_tau: float, margin: float = 0.0) -> bool:
    """Check the quadratic soft-finger constraints with an optional margin."""
    if margin < 0.0:
        raise ValueError("margin must be >= 0")
    fx, fy, fz, tau = np.asarray(f, dtype=float)
    return (
        fz >= margin
        and np.hypot(fx, fy) <= mu * fz - margin
        and abs(tau) <= mu_tau * fz - margin
    )


def linearize_cone(mu: float, mu_tau: float, sides: int = DEFAULT_CONE_SIDES) -> np.ndarray:
    """Inner polyhedral approximation of the soft-finger cone.

    Returns a matrix A with one half-space per row; f is accepted when
    A @ f >= 0 componentwise. Rows are `sides` tangential faces of a
    regular polygon inscribed in the friction circle, two torsional
    faces, and fz >= 0. Inscribed means every accepted f also satisfies
    the quadratic constraints.
    """
    if sides < 3:
        raise ValueError(f"cone linearization needs at least 3 sides, got {sides}")
    rows = np.zeros((sides + 3, 4))
    apothem = mu * np.cos(np.pi / sides)
    for k in range(sides):
        theta = 2.0 * np.pi * k / sides
        rows[k] = (-np.cos(theta), -np.sin(theta), apothem, 0.0)
    rows[sides] = (0.0, 0.0, mu_tau, -1.0)
    rows[sides + 1] = (0.0, 0.0, mu_tau, 1.0)
    rows[sides + 2] = (0.0, 0.0, 1.0, 0.0)
    return rows


def _cone_program(contacts, sides):
    """Grasp matrix G, negated block-diagonal cone rows (-A f <= 0) and the sum(fz) row."""
    g = build_grasp_matrix(contacts)
    blocks = [linearize_cone(contact.mu, contact.mu_tau, sides) for contact in contacts]
    n, rows = len(blocks), blocks[0].shape[0]
    cone = np.zeros((rows * n, 4 * n))
    for i, block in enumerate(blocks):
        cone[rows * i : rows * (i + 1), 4 * i : 4 * i + 4] = block
    norm_row = np.zeros(4 * n)
    norm_row[FZ::4] = 1.0
    return g, -cone, norm_row


def is_force_closure(contacts: list[Contact], sides: int = DEFAULT_CONE_SIDES) -> ClosureReport:
    """Certify force closure of a contact set.

    Surjectivity of G is decided by singular values (rank 6 up to a
    relative threshold). Strict internal forces are sought by maximizing
    the uniform cone slack t subject to G @ f = 0 and sum(fz) <= 1; the
    grasp is force-closure when both tests pass.
    """
    g, neg_cone, norm_row = _cone_program(contacts, sides)
    sv = np.linalg.svd(g, compute_uv=False)
    surjective = len(sv) >= 6 and sv[5] > RANK_RTOL * sv[0]

    nf = g.shape[1]
    # Variables: stacked f then the slack t. Maximize t.
    c = np.zeros(nf + 1)
    c[-1] = -1.0
    # cone rows: A f >= t  ->  -A f + t <= 0; then sum(fz) <= 1 and -t <= 0.
    a_ub = np.vstack(
        [np.hstack([neg_cone, np.ones((neg_cone.shape[0], 1))]), np.append(norm_row, 0.0), c]
    )
    b_ub = np.zeros(a_ub.shape[0])
    b_ub[-2] = 1.0
    a_eq = np.hstack([g, np.zeros((6, 1))])

    result = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=np.zeros(6))
    if result.ok:
        margin = float(result.x[-1])
        internal = result.x[:nf].copy()
    else:
        margin = 0.0
        internal = None
    strict = margin > MARGIN_TOL
    return ClosureReport(
        surjective=surjective,
        has_strict_internal=strict,
        is_force_closure=surjective and strict,
        margin=margin if strict else 0.0,
        internal_force=internal if strict else None,
    )


def cone_rays(mu: float, mu_tau: float, sides: int = DEFAULT_CONE_SIDES) -> np.ndarray:
    """Generators of the cone linearize_cone describes, one per column (4 x 2*sides).

    At fz = 1 the tangential parts are the inscribed polygon's vertices,
    mu * (cos, sin)((2k+1)pi/sides), halfway between the face normals, each
    paired with tau = +mu_tau and -mu_tau. Their nonnegative combinations
    are exactly the forces linearize_cone accepts.
    """
    if sides < 3:
        raise ValueError(f"cone linearization needs at least 3 sides, got {sides}")
    theta = np.repeat((2.0 * np.arange(sides) + 1.0) * np.pi / sides, 2)
    tau = np.tile((mu_tau, -mu_tau), sides)
    return np.array([mu * np.cos(theta), mu * np.sin(theta), np.ones(2 * sides), tau])


def can_resist(contacts: list[Contact], wrench, sides: int = DEFAULT_CONE_SIDES) -> bool:
    """Feasibility test: can cone-admissible contact forces balance the wrench.

    The wrenches the contacts can balance are the nonnegative combinations
    of G times every contact's cone_rays (Ferrari and Canny's grasp wrench
    space), so the test asks whether -wrench is one: a 6-row standard-form
    phase 1. wrench may also be a (k, 6) stack: the ray matrix is built
    once and simplex.all_feasible runs a block of wrenches at a time in
    lockstep, returning False at the first wrench that cannot be balanced.
    Each wrench that finishes leaves 6 rays whose cone holds it, and a
    queued wrench inside such a cone is accepted without its own phase 1,
    so on a closure grasp most of a 500-wrench stack never pivots. A queued
    wrench outside every such cone starts its phase 1 from the 6 rays that
    come nearest to holding it, and a False from that start is checked by a
    phase 1 from scratch. This is the oracle that checks is_force_closure,
    so it deliberately does not go through solve_lp.

    Cone membership does not change under positive scaling, so each
    nonzero wrench is scaled to unit norm first, and phase 1's absolute
    1e-7 tolerance gives the same verdict at 1e-12 N as at 1e8 N.
    """
    g = build_grasp_matrix(contacts)
    rays = np.hstack(
        [g[:, 4 * i : 4 * i + 4] @ cone_rays(c.mu, c.mu_tau, sides) for i, c in enumerate(contacts)]
    )
    w = np.asarray(wrench, dtype=float).reshape(-1, 6)
    if not np.isfinite(w).all():
        raise ValueError("wrenches must be finite")
    # Scaling by the largest component first keeps the norm from under- or
    # overflowing; a nonzero row then has norm >= 1, a zero row stays zero.
    w = w / np.where(w.any(axis=1), np.abs(w).max(axis=1), 1.0)[:, None]
    w /= np.maximum(np.linalg.norm(w, axis=1), 1.0)[:, None]
    return all_feasible(rays, -w)


def sample_unit_wrenches(count: int, seed: int = 0) -> np.ndarray:
    """Quasi-uniform points on the unit 6-sphere from a seeded stream."""
    rng = np.random.default_rng(seed)
    points = np.empty((count, 6))
    filled = 0
    while filled < count:
        draw = rng.standard_normal((count - filled, 6))
        norms = np.linalg.norm(draw, axis=1)
        good = draw[norms > 1e-12] / norms[norms > 1e-12, None]
        points[filled : filled + good.shape[0]] = good
        filled += good.shape[0]
    return points


def resistance_oracle(
    contacts: list[Contact],
    wrench_samples: int = 500,
    sides: int = DEFAULT_CONE_SIDES,
    seed: int = 0,
) -> bool:
    """Brute-force closure check: try to balance many sampled unit wrenches.

    Returns True when every sample is balanced, stopping at the first
    failure. Meant for validating is_force_closure on small instances,
    not as a production certificate.
    """
    if wrench_samples < 1:
        raise ValueError("wrench_samples must be >= 1")
    return can_resist(contacts, sample_unit_wrenches(wrench_samples, seed), sides)
