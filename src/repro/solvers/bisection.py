"""One-dimensional solvers: monotone root bisection, scalar and batched.

The S4 price-decomposition solver (Section IV-C) reduces the coupled
energy-management program — the slot energy balance of Eqs. 2-3 under
the battery/grid constraints Eqs. 9-14 — to a fixed point in the
marginal grid price; these routines are the numerical workhorses
behind it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import SolverError


def bisect_root(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
    max_iterations: int = 200,
) -> float:
    """Root of a monotone (non-decreasing) function on ``[lo, hi]``.

    If ``func`` has no sign change on the interval the nearer endpoint
    is returned — for monotone response curves that endpoint is the
    constrained optimum, which is exactly the semantics the S4 solver
    needs.

    Raises:
        SolverError: if ``lo > hi``.
    """
    if lo > hi:
        raise SolverError(f"empty interval [{lo}, {hi}]")
    f_lo = func(lo)
    f_hi = func(hi)
    if f_lo >= 0.0:
        return lo
    if f_hi <= 0.0:
        return hi
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if abs(f_mid) <= tol or (hi - lo) <= tol * max(1.0, abs(mid)):
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_root_vec(
    func: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float = 1e-9,
    max_iterations: int = 200,
) -> np.ndarray:
    """Elementwise :func:`bisect_root` over a batch of ``K`` problems.

    ``func`` maps a ``(K,)`` abscissa vector to a ``(K,)`` residual
    vector; every component must be monotone non-decreasing in its own
    coordinate.  Each component follows *exactly* the scalar
    :func:`bisect_root` iteration — the same midpoints, the same
    stopping rule, the same endpoint short-circuits — so a ``K = 1``
    batch is bit-identical to the scalar solver.  This is the kernel
    behind the batched S4 price decomposition: one ``func`` evaluation
    prices all nodes simultaneously instead of one convex program per
    node (Section IV-C-4).

    Converged components are frozen: their abscissa stops moving and
    their result is pinned, while the remaining components keep
    bisecting (``func`` is still evaluated on the full vector, so it
    must be pure).

    Raises:
        SolverError: if any ``lo > hi``.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    if np.any(lo > hi):
        bad = int(np.argmax(lo > hi))
        raise SolverError(f"empty interval [{lo[bad]}, {hi[bad]}]")
    result = np.empty_like(lo)
    f_lo = np.asarray(func(lo), dtype=float)
    at_lo = f_lo >= 0.0
    result[at_lo] = lo[at_lo]
    f_hi = np.asarray(func(hi), dtype=float)
    at_hi = ~at_lo & (f_hi <= 0.0)
    result[at_hi] = hi[at_hi]
    active = ~(at_lo | at_hi)
    if not np.any(active):
        return result
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        f_mid = np.asarray(func(mid), dtype=float)
        done = active & (
            (np.abs(f_mid) <= tol)
            | ((hi - lo) <= tol * np.maximum(1.0, np.abs(mid)))
        )
        result[done] = mid[done]
        active &= ~done
        if not np.any(active):
            return result
        below = active & (f_mid < 0.0)
        lo[below] = mid[below]
        above = active & ~below
        hi[above] = mid[above]
    tail = 0.5 * (lo + hi)
    result[active] = tail[active]
    return result
