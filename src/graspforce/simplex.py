"""Small dense two-phase simplex solver.

Solves   minimise c.x   subject to   a_ub.x <= b_ub  and  a_eq.x = b_eq
with every component of x unrestricted in sign. Free variables are split
into positive and negative parts internally, inequality rows get slack
variables, and equality rows (plus any inequality row whose slack cannot
seed the basis) get phase-1 artificials. Bland's rule keeps the pivoting
finite on the heavily degenerate cone programs this package feeds it.

The problems here are tiny, a few dozen variables and rows, so a plain
tableau with full row updates is both adequate and easy to audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_TOL = 1e-9
_FEAS_TOL = 1e-7
_MAX_PIVOTS = 50000


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    fun: float | None

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def _pivot(tableau: np.ndarray, obj: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= np.outer(factor, tableau[row])
    obj -= obj[col] * tableau[row]
    basis[row] = col


def _iterate(tableau: np.ndarray, obj: np.ndarray, basis: list[int], allowed: int) -> str:
    """Run simplex pivots until optimal or unbounded.

    Only columns with index < allowed may enter the basis; this is how
    phase 2 keeps retired artificial columns out.
    """
    for _ in range(_MAX_PIVOTS):
        eligible = np.flatnonzero(obj[:allowed] < -_TOL)
        if eligible.size == 0:
            return OPTIMAL
        entering = eligible[0]  # Bland: smallest eligible index
        col = tableau[:, entering]
        best_row = -1
        best_ratio = np.inf
        for r in np.flatnonzero(col > _TOL):
            ratio = tableau[r, -1] / col[r]
            if ratio < best_ratio - _TOL or (
                ratio < best_ratio + _TOL
                and (best_row < 0 or basis[r] < basis[best_row])
            ):
                best_ratio = ratio
                best_row = r
        if best_row < 0:
            return UNBOUNDED
        _pivot(tableau, obj, basis, best_row, entering)
    raise RuntimeError("simplex failed to terminate")


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LpResult:
    """Minimise c.x with x free, subject to a_ub.x <= b_ub and a_eq.x = b_eq."""
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

    # Columns: n positive parts, n negative parts, m_ub slacks, then artificials.
    a_rows = np.vstack([a_ub, a_eq]) if m else np.zeros((0, n))
    b = np.concatenate([b_ub, b_eq])
    split = np.hstack([a_rows, -a_rows])
    slack = np.eye(m, m_ub)

    # Normalise to b >= 0; a negated inequality row has slack -1 and needs
    # an artificial just like an equality row does.
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

    # Each row starts on its own slack, or on its artificial where it has one.
    basis = [2 * n + i for i in range(m)]
    for k, i in enumerate(need_art):
        tableau[i, n_real + k] = 1.0
        basis[i] = n_real + k

    if need_art:
        # Phase 1: minimise the artificial sum.
        obj = np.zeros(n_cols + 1)
        obj[n_real:n_cols] = 1.0
        for i in need_art:
            obj -= tableau[i]
        status = _iterate(tableau, obj, basis, n_cols)
        if status != OPTIMAL or -obj[-1] > _FEAS_TOL:
            return LpResult(INFEASIBLE, None, None)
        # Pivot leftover artificials out of the basis, dropping rows that
        # turned out linearly dependent.
        keep = []
        for r in range(m):
            if basis[r] < n_real:
                keep.append(r)
                continue
            piv = np.flatnonzero(np.abs(tableau[r, :n_real]) > _TOL)
            if piv.size:
                _pivot(tableau, obj, basis, r, piv[0])
                keep.append(r)
        if len(keep) < m:
            tableau = tableau[keep]
            basis = [basis[r] for r in keep]
            m = len(keep)

    # Phase 2 on the real objective.
    obj = np.zeros(n_cols + 1)
    obj[:n] = c
    obj[n : 2 * n] = -c
    for r in range(m):
        if obj[basis[r]] != 0.0:
            obj -= obj[basis[r]] * tableau[r]
    status = _iterate(tableau, obj, basis, n_real)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)

    full = np.zeros(n_cols)
    full[basis] = tableau[:, -1]
    x = full[:n] - full[n : 2 * n]
    return LpResult(OPTIMAL, x, float(c @ x))
