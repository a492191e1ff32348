"""A matrix-in linear program over ``scipy``'s HiGHS.

The LPs of this package — the S1 sequential-fix relaxation over
constraints (20)-(24) and the per-slot relaxed program P3bar of the
Theorem-5 bound — are assembled by their callers as arrays over frozen
column and row orders: a cost vector, ``(n, 2)`` column bounds, and
sparse ``A_ub x <= b_ub`` / ``A_eq x == b_eq`` blocks (a ``>=`` row is
passed negated in ``A_ub``).  ``LinearProgram`` equilibrates the rows
once, fixes columns by changing their bounds, and solves with HiGHS.
:meth:`LinearProgram.solve` is the package's one call into HiGHS.
Minimisation only, like scipy.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.axes import AnyArray
from repro.exceptions import InfeasibleError, SolverError

#: The arguments :func:`scipy.optimize.linprog` receives:
#: ``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` with a ``None`` pair for an
#: empty block.
StandardForm = Tuple[
    AnyArray,
    Optional[sparse.csr_matrix],
    Optional[AnyArray],
    Optional[sparse.csr_matrix],
    Optional[AnyArray],
    AnyArray,
]


@dataclass(frozen=True)
class LPSolution:
    """Result of an LP solve.

    Attributes:
        objective: optimal objective value.
        x: ``(n,)`` optimal value per column.
    """

    objective: float
    x: AnyArray


def _rows(
    a: Optional[object], b: Optional[AnyArray], num_cols: int, name: str
) -> Tuple[Optional[sparse.csr_matrix], Optional[AnyArray]]:
    """One row block as CSR with its exact zeros dropped."""
    if a is None:
        return None, None
    matrix = sparse.csr_matrix(a, dtype=np.float64, copy=True)
    rhs = np.asarray(b, dtype=np.float64).reshape(-1)
    if matrix.shape[1] != num_cols:
        raise SolverError(
            f"{name} block has {matrix.shape[1]} columns, the LP has {num_cols}"
        )
    if rhs.shape[0] != matrix.shape[0]:
        raise SolverError(
            f"{name} block has {matrix.shape[0]} rows but {rhs.shape[0]} bounds"
        )
    if matrix.shape[0] == 0:
        return None, None
    # Exactly-zero coefficients leave the structure (an empty battery
    # puts a tangent point at 0); near-zero ones must stay.
    matrix.eliminate_zeros()
    return matrix, rhs


def _equilibrate(
    a: Optional[sparse.csr_matrix], b: Optional[AnyArray]
) -> Tuple[Optional[sparse.csr_matrix], Optional[AnyArray]]:
    """Divide every row and its bound by the row's largest |coefficient|.

    Physical-model rows mix propagation gains (~1e-12) with big-M
    constants (~10), which makes HiGHS mis-declare feasible systems
    infeasible; the scaling is an exact reformulation.  Empty rows keep
    scale 1.
    """
    if a is None:
        return None, None
    scale = abs(a).max(axis=1).toarray().ravel()
    scale[scale <= 0.0] = 1.0
    scaled = a.copy()
    scaled.data = a.data / np.repeat(scale, np.diff(a.indptr))
    return scaled, b / scale


class LinearProgram:
    """Minimise ``cost @ x`` over column bounds and two row blocks.

    Args:
        cost: ``(n,)`` objective coefficients.
        bounds: ``(n, 2)`` ``[lower, upper]`` per column (``inf`` for
            no upper bound).
        a_ub, b_ub: ``A_ub x <= b_ub`` (any scipy sparse or dense
            matrix); None for no rows.
        a_eq, b_eq: ``A_eq x == b_eq``; None for no rows.

    Raises:
        SolverError: on inconsistent shapes or an empty bound interval.
    """

    def __init__(
        self,
        cost: AnyArray,
        bounds: AnyArray,
        a_ub: Optional[object] = None,
        b_ub: Optional[AnyArray] = None,
        a_eq: Optional[object] = None,
        b_eq: Optional[AnyArray] = None,
    ) -> None:
        self.cost = np.asarray(cost, dtype=np.float64).reshape(-1)
        num_cols = self.cost.shape[0]
        self.bounds = np.array(bounds, dtype=np.float64).reshape(-1, 2)
        if self.bounds.shape[0] != num_cols:
            raise SolverError(
                f"{self.bounds.shape[0]} column bounds for {num_cols} columns"
            )
        empty = np.flatnonzero(self.bounds[:, 1] < self.bounds[:, 0])
        if empty.size:
            lower, upper = self.bounds[empty[0]]
            raise SolverError(
                f"column {empty[0]} has empty bound interval [{lower}, {upper}]"
            )
        self.a_ub, self.b_ub = _rows(a_ub, b_ub, num_cols, "A_ub")
        self.a_eq, self.b_eq = _rows(a_eq, b_eq, num_cols, "A_eq")
        # The scaled rows and objective depend on neither the bounds nor
        # the fixings, so they are computed once per matrix.
        a_ub_s, b_ub_s = _equilibrate(self.a_ub, self.b_ub)
        a_eq_s, b_eq_s = _equilibrate(self.a_eq, self.b_eq)
        # Normalise the objective: drift coefficients can span 12+
        # orders of magnitude (the beta^2-scaled virtual-queue terms),
        # which trips HiGHS's simplex numerics.  Scaling the objective
        # leaves the argmin unchanged; the true value is restored on
        # solve.
        scale = float(np.abs(self.cost).max()) if num_cols else 1.0
        self._cost_scale = scale if scale > 0.0 else 1.0
        self._scaled = (
            self.cost / self._cost_scale, a_ub_s, b_ub_s, a_eq_s, b_eq_s
        )

    @property
    def num_variables(self) -> int:
        """Number of columns."""
        return self.cost.shape[0]

    def fixed(self, columns: AnyArray, values: AnyArray) -> "LinearProgram":
        """A copy with ``columns`` pinned to ``values`` (bounds only).

        The copy shares the row blocks and their scaling, so a fix costs
        one ``(n, 2)`` bounds copy.
        """
        pinned = copy.copy(self)
        pinned.bounds = self.bounds.copy()
        pinned.bounds[np.asarray(columns, dtype=np.intp)] = np.asarray(
            values, dtype=np.float64
        ).reshape(-1, 1)
        return pinned

    def standard_form(self) -> StandardForm:
        """The equilibrated problem exactly as HiGHS receives it."""
        c, a_ub, b_ub, a_eq, b_eq = self._scaled
        return c, a_ub, b_ub, a_eq, b_eq, self.bounds

    def solve(self) -> LPSolution:
        """Solve with HiGHS (HiGHS-IPM as fallback) and return the solution.

        Raises:
            InfeasibleError: primal infeasible (or unbounded, which for
                our bounded formulations always indicates a modelling
                bug upstream).
            SolverError: any other solver failure.
        """
        if self.num_variables == 0:
            return LPSolution(objective=0.0, x=np.zeros(0))
        c, a_ub, b_ub, a_eq, b_eq, bounds = self.standard_form()
        result = None
        for method in ("highs", "highs-ipm"):
            result = linprog(
                c=c,
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=bounds,
                method=method,
            )
            if result.status in (0, 2, 3):
                break
        assert result is not None
        if result.status == 2:
            raise InfeasibleError("linear program is infeasible")
        if result.status == 3:
            raise InfeasibleError("linear program is unbounded")
        if not result.success:
            raise SolverError(f"linprog failed: {result.message}")
        return LPSolution(
            objective=float(result.fun) * self._cost_scale, x=result.x
        )
