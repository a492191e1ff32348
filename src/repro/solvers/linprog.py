"""A matrix-in linear program solved by HiGHS.

The LPs of this package — the S1 sequential-fix relaxation over
constraints (20)-(24) and the per-slot relaxed program P3bar of the
Theorem-5 bound — are assembled by their callers as arrays over frozen
column and row orders: a cost vector, ``(n, 2)`` column bounds, and
sparse ``A_ub x <= b_ub`` / ``A_eq x == b_eq`` blocks (a ``>=`` row is
passed negated in ``A_ub``).  ``LinearProgram`` equilibrates the rows
and stacks them into HiGHS's column-wise matrix once per matrix, fixes
columns by changing their bounds, and solves through the HiGHS bindings
that scipy ships (``scipy.optimize._highspy._core``).  It sets the
options, maps the model status and tests the solution exactly as
``scipy.optimize.linprog`` with ``method="highs"`` does, so its solutions equal
``linprog``'s bit for bit, without ``linprog``'s per-call input
cleaning, matrix conversion and dual/basis read-out.
:meth:`LinearProgram.solve` is the package's one call into HiGHS.
Minimisation only, like scipy.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy
from scipy import sparse

try:
    from scipy.optimize._highspy._core import (
        HighsDebugLevel,
        HighsLp,
        HighsModelStatus,
        HighsOptions,
        HighsSparseMatrix,
        HighsStatus,
        MatrixFormat,
        _Highs,
        kHighsInf,
        simplex_constants,
    )
except ImportError as error:  # pragma: no cover - depends on the installed scipy
    raise ImportError(
        "repro needs scipy>=1.17, whose scipy.optimize._highspy._core "
        f"HiGHS bindings it calls directly; found scipy {scipy.__version__}"
    ) from error

from repro.axes import AnyArray
from repro.exceptions import InfeasibleError, SolverError

#: The equilibrated problem, in ``linprog``'s argument order:
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

#: Absolute tolerance of the post-solve feasibility test, as
#: ``linprog`` derives it from its default ``tol=1e-9``.
FEASIBILITY_TOL = float(np.sqrt(1e-9) * 10)


def _options(solver: Optional[str] = None) -> HighsOptions:
    """The options ``linprog`` passes for ``method="highs"``, plus ``solver``."""
    options = HighsOptions()
    options.presolve = "on"
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = HighsDebugLevel.kHighsDebugLevelNone
    options.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
    if solver is not None:
        options.solver = solver
    return options


#: HiGHS's default solver first (dual simplex), then its IPM.
_PASSES = (_options(), _options("ipm"))

_INFEASIBLE = (HighsModelStatus.kInfeasible, HighsModelStatus.kModelError)


class _Outcome(NamedTuple):
    """One HiGHS run: its model status and, when optimal, the solution."""

    status: HighsModelStatus
    x: Optional[AnyArray] = None
    row_value: Optional[AnyArray] = None
    objective: float = float("nan")


def _run(lp: HighsLp, options: HighsOptions) -> _Outcome:
    """Solve ``lp`` once with a fresh HiGHS instance.

    Reads the primal column and row values and the objective only when
    the model status is optimal.
    """
    highs = _Highs()
    highs.passOptions(options)
    if highs.passModel(lp) == HighsStatus.kError:
        return _Outcome(HighsModelStatus.kModelError)
    if highs.run() == HighsStatus.kError:
        return _Outcome(highs.getModelStatus())
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        return _Outcome(status)
    solution = highs.getSolution()
    return _Outcome(
        status,
        np.array(solution.col_value),
        np.array(solution.row_value),
        highs.getInfo().objective_function_value,
    )


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
    if not (np.isfinite(matrix.data).all() and np.isfinite(rhs).all()):
        raise SolverError(f"{name} block has a non-finite coefficient or bound")
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


def _column_matrix(
    blocks: Tuple[Optional[sparse.csr_matrix], ...], num_cols: int
) -> HighsSparseMatrix:
    """The row blocks stacked top to bottom as HiGHS's CSC matrix."""
    present = [block for block in blocks if block is not None]
    if present:
        stacked = sparse.csc_array(sparse.vstack(present))
    else:
        stacked = sparse.csc_array((0, num_cols))
    stacked.sum_duplicates()
    matrix = HighsSparseMatrix()
    matrix.format_ = MatrixFormat.kColwise
    matrix.num_col_ = num_cols
    matrix.num_row_ = stacked.shape[0]
    # The bindings copy an integer ndarray element by element through
    # numpy scalars; a list of ints converts about twice as fast.
    matrix.start_ = stacked.indptr.tolist()
    matrix.index_ = stacked.indices.tolist()
    matrix.value_ = stacked.data
    return matrix


class LinearProgram:
    """Minimise ``cost @ x`` over column bounds and two row blocks.

    Args:
        cost: ``(n,)`` objective coefficients.
        bounds: ``(n, 2)`` ``[lower, upper]`` per column (``inf`` for
            no upper bound; NaN reads as no bound, as in ``linprog``).
        a_ub, b_ub: ``A_ub x <= b_ub`` (any scipy sparse or dense
            matrix); None for no rows.
        a_eq, b_eq: ``A_eq x == b_eq``; None for no rows.

    Raises:
        SolverError: on inconsistent shapes, a non-finite cost,
            coefficient or row bound, or an empty bound interval.
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
        if not np.isfinite(self.cost).all():
            raise SolverError("the cost vector has a non-finite coefficient")
        self.bounds = np.array(bounds, dtype=np.float64).reshape(-1, 2)
        if self.bounds.shape[0] != num_cols:
            raise SolverError(
                f"{self.bounds.shape[0]} column bounds for {num_cols} columns"
            )
        self.bounds[np.isnan(self.bounds[:, 0]), 0] = -np.inf
        self.bounds[np.isnan(self.bounds[:, 1]), 1] = np.inf
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
        # HiGHS takes lower <= A x <= upper over the stacked rows: an
        # inequality row has no lower bound, an equality row two equal
        # ones.
        empty_rhs = np.zeros(0)
        b_ub_s = empty_rhs if b_ub_s is None else b_ub_s
        b_eq_s = empty_rhs if b_eq_s is None else b_eq_s
        self._num_ub = b_ub_s.shape[0]
        self._row_lower = np.concatenate((np.full(self._num_ub, -kHighsInf), b_eq_s))
        self._row_upper = np.concatenate((b_ub_s, b_eq_s))
        self._matrix = _column_matrix((a_ub_s, a_eq_s), num_cols)

    @property
    def num_variables(self) -> int:
        """Number of columns."""
        return self.cost.shape[0]

    def fixed(self, columns: AnyArray, values: AnyArray) -> "LinearProgram":
        """A copy with ``columns`` pinned to ``values`` (bounds only).

        The copy shares the row blocks, their scaling and the HiGHS
        matrix, so a fix costs one ``(n, 2)`` bounds copy.
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

    def _highs_lp(self) -> HighsLp:
        """The problem as one ``HighsLp`` under the current bounds.

        ``kHighsInf`` is IEEE infinity, so infinite column bounds pass
        unchanged.
        """
        lp = HighsLp()
        lp.num_col_ = self.num_variables
        lp.num_row_ = self._row_upper.shape[0]
        lp.a_matrix_ = self._matrix
        lp.col_cost_ = self._scaled[0]
        lp.col_lower_ = np.ascontiguousarray(self.bounds[:, 0])
        lp.col_upper_ = np.ascontiguousarray(self.bounds[:, 1])
        lp.row_lower_ = self._row_lower
        lp.row_upper_ = self._row_upper
        return lp

    def _satisfied_by(self, outcome: _Outcome) -> bool:
        """``linprog``'s post-solve test of an optimal solution.

        No NaN; every column within its bounds, every inequality slack
        at least ``-FEASIBILITY_TOL`` and every equality residual within
        ``FEASIBILITY_TOL``.
        """
        x = outcome.x
        if x is None:
            return False
        residual = self._row_upper - outcome.row_value  # b - A x
        if np.isnan(x).any() or np.isnan(outcome.objective) or np.isnan(residual).any():
            return False
        tol = FEASIBILITY_TOL
        return bool(
            np.all(x >= self.bounds[:, 0] - tol)
            and np.all(x <= self.bounds[:, 1] + tol)
            and np.all(residual[: self._num_ub] >= -tol)
            and np.all(np.abs(residual[self._num_ub :]) <= tol)
        )

    def solve(self) -> LPSolution:
        """Solve with HiGHS (HiGHS-IPM as fallback) and return the solution.

        A pass whose optimal solution fails the post-solve test, or that
        ends in any status but optimal, infeasible or unbounded, hands
        over to the IPM pass.

        Raises:
            InfeasibleError: primal infeasible (or unbounded, which for
                our bounded formulations always indicates a modelling
                bug upstream).
            SolverError: any other solver failure.
        """
        if self.num_variables == 0:
            return LPSolution(objective=0.0, x=np.zeros(0))
        lp = self._highs_lp()
        for options in _PASSES:
            outcome = _run(lp, options)
            if self._satisfied_by(outcome):
                assert outcome.x is not None
                return LPSolution(
                    objective=outcome.objective * self._cost_scale, x=outcome.x
                )
            if outcome.status in _INFEASIBLE:
                raise InfeasibleError("linear program is infeasible")
            if outcome.status == HighsModelStatus.kUnbounded:
                raise InfeasibleError("linear program is unbounded")
        if outcome.status == HighsModelStatus.kOptimal:
            raise SolverError(
                "HiGHS solution violates the constraints by more than "
                f"{FEASIBILITY_TOL:.2e}"
            )
        raise SolverError(f"HiGHS failed: model status {outcome.status.name}")
