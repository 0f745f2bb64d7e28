"""Small dense two-phase simplex solver.

Solves   minimise c.x   subject to   a_ub.x <= b_ub  and  a_eq.x = b_eq
with every component of x unrestricted in sign. Free variables are split
into positive and negative parts internally, inequality rows get slack
variables, and equality rows (plus any inequality row whose slack cannot
seed the basis) get phase-1 artificials. Bland's rule keeps the pivoting
finite on the heavily degenerate cone programs this package feeds it.

The problems here are tiny, a few dozen variables and rows. The objective
row lives in the tableau, so a pivot is one rank-1 update, and its cost,
about 13 us a certify pivot on 2 vCPUs (Python 3.11, numpy 2.4), is numpy
call overhead rather than arithmetic.

all_feasible is a second, independent solver for one question: do many
standard-form systems a_eq.x = b, x >= 0 that share a_eq and differ only
in b all have a solution? It runs phase 1 alone over a stack of tableaux,
one per right-hand side, pivoting every still-running system in lockstep
with array operations. Its entering column is the one with the most
negative reduced cost (Dantzig's rule), which takes far fewer pivots than
Bland's smallest index; after a degenerate pivot it falls back to Bland's
rule until the objective falls again, so it cannot cycle. A system that
finishes feasible leaves a basis B, and A_B^-1 b >= 0 proves every b in
B's simplicial cone feasible (right-hand-side ranging), so the right-hand
sides still queued are screened against each new basis and only those no
basis covers take a lockstep slot. Such a b does not start from scratch:
it starts from the cached basis nearest to holding it (a crash basis, as
in Bixby, ORSA J. Computing 1992), with artificials only on the rows that
basis gets wrong. It shares no code with solve_lp, so it can check results
that solve_lp produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_TOL = 1e-9
_FEAS_TOL = 1e-7
_MAX_PIVOTS = 50000
# Systems all_feasible holds at once, one tableau each. A small first block
# finishes sooner and hands the screen and the warm start its bases
# sooner; too small a block pivots the wrenches no basis covers a few at a
# time. On the closure benchmark's oracle calls (seeds 0-31, 500 wrenches
# each; Python 3.11, numpy 2.4, 2 vCPUs; median of 12 interleaved rounds)
# 32 took 3.41 ms per call, 48 3.45 ms, 64 3.57 ms and 16 3.78 ms.
_BLOCK = 32


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    fun: float | None
    # Pivots made while minimising the artificial sum, including those that
    # drive leftover artificials out of the basis, and on the real objective.
    phase1_pivots: int = 0
    phase2_pivots: int = 0

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def _pivot(
    tableau: np.ndarray, basis: list[int], row: int, col: int, element: float, buf: np.ndarray
) -> None:
    """Make column col, whose entry in row is element, basic in row: one rank-1 update.

    The objective row is the tableau's last, so the update covers it too.
    The product goes into buf, an array of the tableau's shape per solve.
    """
    pivot_row = tableau[row]
    pivot_row /= element
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    # Not einsum("i,j->ij", ..., out=buf): faster, but its products differ in bits.
    np.multiply(factor[:, None], pivot_row, out=buf)
    tableau -= buf
    basis[row] = col


def _iterate(
    tableau: np.ndarray, basis: list[int], allowed: int, buf: np.ndarray
) -> tuple[str, int]:
    """Run simplex pivots until optimal or unbounded; return the status and pivot count.

    Only columns with index < allowed may enter the basis; this is how
    phase 2 keeps retired artificial columns out.

    The ratio test runs over the pivot column and right-hand side as Python
    floats. A Python float divides and subtracts with the same IEEE double
    arithmetic as a numpy float64 scalar, so the rows visited, the ratios,
    the Bland tie-break and the pivot element passed to _pivot are those of
    an array version, bit for bit. An array version (candidate mask, divide,
    minimum, tie mask) was slower: a certify pivot has about a dozen
    candidate rows, nearly all tied at ratio 0, and each array call costs
    more than the loop.
    """
    if not allowed:  # nothing may enter, and argmax needs a column
        return OPTIMAL, 0
    obj = tableau[-1, :allowed]
    for pivots in range(_MAX_PIVOTS):
        neg = obj < -_TOL
        entering = neg.argmax()  # Bland: smallest eligible index
        if not neg[entering]:
            return OPTIMAL, pivots
        rhs = tableau[:-1, -1].tolist()
        best_row = -1
        best_ratio = math.inf
        for r, c in enumerate(tableau[:-1, entering].tolist()):
            if not c > _TOL:
                continue
            ratio = rhs[r] / c
            if ratio < best_ratio - _TOL or (
                ratio < best_ratio + _TOL
                and (best_row < 0 or basis[r] < basis[best_row])
            ):
                best_ratio = ratio
                best_row = r
                element = c
        if best_row < 0:
            return UNBOUNDED, pivots
        _pivot(tableau, basis, best_row, entering, element, buf)
    raise RuntimeError("simplex failed to terminate")


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LpResult:
    """Minimise c.x with x free, subject to a_ub.x <= b_ub and a_eq.x = b_eq."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if not np.isfinite(c).all():
        raise ValueError("objective must be finite")
    n = c.shape[0]

    def _block(a, b, kind):
        if a is None:
            return np.zeros((0, n)), np.zeros(0)
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != (b.shape[0], n):
            raise ValueError(f"{kind} constraint shapes disagree: {a.shape} vs {b.shape}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError(f"{kind} constraints must be finite")
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
    tableau = np.zeros((m + 1, n_cols + 1))
    tableau[:m, : 2 * n] = split
    tableau[:m, 2 * n : n_real] = slack
    tableau[:m, -1] = b
    buf = np.empty_like(tableau)

    # Each row starts on its own slack, or on its artificial where it has one.
    basis = [2 * n + i for i in range(m)]
    for k, i in enumerate(need_art):
        tableau[i, n_real + k] = 1.0
        basis[i] = n_real + k

    phase1 = 0
    if need_art:
        # Phase 1: minimise the artificial sum.
        obj = tableau[m]
        obj[n_real:n_cols] = 1.0
        for i in need_art:
            obj -= tableau[i]
        status, phase1 = _iterate(tableau, basis, n_cols, buf)
        if status != OPTIMAL or -obj[-1] > _FEAS_TOL:
            return LpResult(INFEASIBLE, None, None, phase1)
        # Pivot leftover artificials out of the basis, dropping rows that
        # turned out linearly dependent.
        keep = []
        for r in range(m):
            if basis[r] < n_real:
                keep.append(r)
                continue
            piv = np.flatnonzero(np.abs(tableau[r, :n_real]) > _TOL)
            if piv.size:
                _pivot(tableau, basis, r, piv[0], tableau[r, piv[0]], buf)
                phase1 += 1
                keep.append(r)
        if len(keep) < m:
            tableau, buf = tableau[keep + [m]], buf[: len(keep) + 1]
            basis = [basis[r] for r in keep]
            m = len(keep)

    # Phase 2 on the real objective.
    obj = tableau[m]
    obj[:] = np.concatenate([c, -c, np.zeros(n_cols + 1 - 2 * n)])
    for r in range(m):
        if obj[basis[r]] != 0.0:
            obj -= obj[basis[r]] * tableau[r]
    status, phase2 = _iterate(tableau, basis, n_real, buf)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None, phase1, phase2)

    full = np.zeros(n_cols)
    full[basis] = tableau[:m, -1]
    x = full[:n] - full[n : 2 * n]
    return LpResult(OPTIMAL, x, float(c @ x), phase1, phase2)


def all_feasible(a_eq, b_eqs) -> bool:
    """Whether a_eq.x = b has a solution x >= 0 for every row b of b_eqs.

    Runs phase 1 for up to _BLOCK systems at once as a (k, m + 1, n + 1)
    stack of tableaux, the last row of each holding the reduced costs, with
    a (k, m) basis: every lockstep iteration makes one pivot in each
    running system with array operations, and a system that finishes hands
    its slot to the next right-hand side. Returns False as soon as one
    system ends phase 1 with an artificial sum above _FEAS_TOL or finds no
    pivot row, without solving the rest.

    A system that finishes feasible with no artificial left in its basis
    has found m columns whose cone holds its b. Before queued right-hand
    sides fill idle slots, each such basis not seen before screens the
    queue (_screen), and every b it proves feasible is dropped unsolved.
    Each such basis is inverted once (_inverses), and the screen and the
    warm start share its A_B^-1. The screen only drops, so a b that no
    basis covers, an unresisted one among them, still reaches a slot.

    A b that reaches a slot while bases are cached starts warm (_start)
    from the cached basis B with the largest min(A_B^-1 b), so that few
    rows need an artificial. Every other b, the whole first block among
    them, starts cold: each row is negated where its b is negative and
    starts on its own artificial. On the closure benchmark's oracle calls
    (seeds 0-31, 500 wrenches each) about 36 wrenches per call start warm,
    and pivoting iterations fell from 25.1 to 12.7 per call. A warm
    system's rows are scaled by A_B^-1, so _TOL and _FEAS_TOL act on them
    in other units; a warm system that ends infeasible is therefore decided
    again by a cold one-row call, and every False comes from a cold phase 1.

    A system enters the column with the most negative reduced cost. After
    a degenerate pivot (minimum ratio within _TOL of 0) it enters the
    smallest eligible index instead, until a pivot moves the objective.
    The objective falls on every nondegenerate pivot, and within a
    degenerate run every pivot after the first follows Bland's rule, which
    cannot cycle. The ratio test breaks ties by the smallest basis index.

    Artificial columns are not stored: an artificial that leaves the basis
    never re-enters, and since every point with all artificials at zero
    stays reachable, the phase-1 minimum is still zero exactly when the
    system is feasible. The ratio test ranks the artificials after the n
    real columns.
    """
    a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
    m, n = a_eq.shape
    b_eqs = np.asarray(b_eqs, dtype=float)
    if b_eqs.shape[-1:] != (m,):
        raise ValueError(f"constraint shapes disagree: a_eq {a_eq.shape}, b_eqs {b_eqs.shape}")
    if not (np.isfinite(a_eq).all() and np.isfinite(b_eqs).all()):
        raise ValueError("constraints must be finite")
    b_eqs = b_eqs.reshape(-1, m)
    total = b_eqs.shape[0]

    slots = min(_BLOCK, total)
    tableau = np.empty((slots, m + 1, n + 1))
    basis = np.empty((slots, m), dtype=np.int64)
    pivots = np.empty(slots, dtype=np.int64)
    bland = np.empty(slots, dtype=bool)  # the system's last pivot was degenerate
    warm = np.empty(slots, dtype=bool)
    own_b = np.empty((slots, m))  # each system's b, untransformed
    no_row = np.iinfo(basis.dtype).max
    pending = b_eqs  # right-hand sides not yet given a slot, in order
    seen = set()  # feasible bases, as sorted column tuples
    fresh = []  # those of them pending has not yet been screened against
    cached = np.empty((0, m), dtype=np.int64)  # the screened ones that have an inverse
    inverses = np.empty((0, m, m))  # and their A_B^-1
    idle = np.arange(slots)
    while True:
        if idle.size:
            if fresh:
                fresh = np.array(fresh)
                invertible, fresh_inverses = _inverses(a_eq, fresh)
                fresh = fresh[invertible]
                pending = _screen(a_eq, fresh, fresh_inverses, pending)
                cached = np.vstack([cached, fresh])
                inverses = np.concatenate([inverses, fresh_inverses])
                fresh = []
            fill, drop = idle[: pending.shape[0]], idle[pending.shape[0] :]
            if fill.size:
                own_b[fill], pending = pending[: fill.size], pending[fill.size :]
                tableau[fill], basis[fill], warm[fill] = _start(
                    a_eq, own_b[fill], cached, inverses
                )
                pivots[fill] = 0
                bland[fill] = False
            if drop.size:
                keep = np.ones(tableau.shape[0], dtype=bool)
                keep[drop] = False
                tableau, basis, pivots, bland, warm, own_b = (
                    tableau[keep], basis[keep], pivots[keep], bland[keep], warm[keep], own_b[keep]
                )
        if not tableau.shape[0]:
            return True

        live = np.arange(tableau.shape[0])
        cost = tableau[:, m, :-1]
        eligible = cost < -_TOL
        # Either choice is eligible exactly when some column is.
        entering = np.where(bland, eligible.argmax(axis=1), cost.argmin(axis=1))
        col = tableau[live, :, entering]
        usable = col[:, :m] > _TOL
        optimal = ~eligible[live, entering]
        # A system ends at its phase-1 optimum, or where no row can pivot.
        idle = np.flatnonzero(optimal | ~usable.any(axis=1))
        if idle.size:
            infeasible = ~optimal[idle] | (tableau[idle, m, -1] < -_FEAS_TOL)
            for k in idle[infeasible]:
                if not (warm[k] and all_feasible(a_eq, own_b[k])):
                    return False
            if pending.shape[0]:
                for cols in map(tuple, np.sort(basis[idle[~infeasible]], axis=1).tolist()):
                    if cols[-1] < n and cols not in seen:  # no artificial left
                        seen.add(cols)
                        fresh.append(cols)
            continue
        if pivots.max() >= _MAX_PIVOTS:
            raise RuntimeError("lockstep phase 1 failed to terminate")

        ratio = np.where(usable, tableau[:, :m, -1] / np.where(usable, col[:, :m], 1.0), np.inf)
        least = ratio.min(axis=1, keepdims=True)
        tie = ratio <= least + _TOL
        row = np.where(tie, basis, no_row).argmin(axis=1)
        bland = least[:, 0] <= _TOL
        pivot_row = tableau[live, row] / col[live, row][:, None]
        tableau -= np.einsum("km,kn->kmn", col, pivot_row)
        tableau[live, row] = pivot_row
        basis[live, row] = entering
        pivots += 1


def _start(
    a_eq: np.ndarray, rhs: np.ndarray, bases: np.ndarray, inverses: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase-1 tableaux, bases and warm flags for the rows b of rhs.

    bases holds cached feasible bases and inverses their A_B^-1. Each b
    takes the basis B with the largest min(A_B^-1 b) and, when that minimum
    is negative, starts warm: its rows are A_B^-1 [A | b], a row with
    (A_B^-1 b)_i >= 0 starts on B's column i, and the others are negated and
    start on their artificial. Multiplying by A_B^-1 leaves the solutions x
    unchanged. Where the minimum is >= 0 the screen kept b only on its
    residual gate, so b starts cold, on m artificials, as it does when no
    basis is cached. The cost row sums the artificial rows alone.
    """
    f, m = rhs.shape
    n = a_eq.shape[1]
    block = np.empty((f, m + 1, n + 1))
    rows = block[:, :m]
    rows[:, :, :-1] = a_eq
    rows[:, :, -1] = rhs
    basis = (n + np.arange(m))[None].repeat(f, axis=0)
    warm = np.zeros(f, dtype=bool)
    if bases.shape[0]:
        x = inverses @ rhs.T  # x[q, :, k] = A_B^-1 b_k for the q-th cached basis
        least = x.min(axis=1)
        best = least.argmax(axis=0)
        warm = least[best, np.arange(f)] < 0.0
        w, pick = np.flatnonzero(warm), best[warm]
        if w.size:
            rows[w, :, :-1] = inverses[pick] @ a_eq
            rows[w, :, -1] = x[pick, :, w]
            rows[w[:, None], :, bases[pick]] = np.eye(m)  # B's columns, exactly
            basis[w] = np.where(x[pick, :, w] < 0.0, basis[w], bases[pick])
    rows *= np.where(rows[:, :, -1:] < 0.0, -1.0, 1.0)
    block[:, m] = -(rows * (basis >= n)[:, :, None]).sum(axis=1)
    return block, basis, warm


def _inverses(a_eq: np.ndarray, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which bases in bases have an inverse, and A_B^-1 for each that does."""
    a_b = a_eq[:, bases].transpose(1, 0, 2)  # each A_B
    try:
        return np.ones(bases.shape[0], dtype=bool), np.linalg.inv(a_b)
    except np.linalg.LinAlgError:  # some basis is singular: find which, one at a time
        pass
    invertible = np.ones(bases.shape[0], dtype=bool)
    for k, one in enumerate(a_b):
        try:
            np.linalg.inv(one)
        except np.linalg.LinAlgError:
            invertible[k] = False
    return invertible, np.linalg.inv(a_b[invertible])


def _screen(
    a_eq: np.ndarray, bases: np.ndarray, inverses: np.ndarray, pending: np.ndarray
) -> np.ndarray:
    """The rows b of pending that no basis in bases proves feasible.

    bases is a (q, m) array of column indices into a_eq and inverses their
    A_B^-1, both as _inverses returns them, so a singular basis is never
    passed and proves nothing. A basis B proves b feasible when
    x = A_B^-1 b >= 0 and |A_B x - b|_1 <= _FEAS_TOL, the slack phase 1
    allows its artificial sum. The residual is that of the x actually
    computed, so an inaccurate inverse of a near-singular basis makes the
    gate fail rather than pass a b outside the basis's cone.

    Each b is a column of x here, so that the tests over the m components
    of every b run as m passes along rows as long as pending, several times
    faster in numpy than reducing a last axis of length m.
    """
    x = inverses @ pending.T
    nonneg = (x >= 0.0).all(axis=1)
    some = np.flatnonzero(nonneg.any(axis=0))  # b that some basis may prove
    a_b = a_eq[:, bases].transpose(1, 0, 2)  # each A_B
    residual = np.abs(a_b @ x[:, :, some] - pending[some].T).sum(axis=1)
    proved = np.zeros(pending.shape[0], dtype=bool)
    proved[some] = (nonneg[:, some] & (residual <= _FEAS_TOL)).any(axis=0)
    return pending[~proved]
