"""SLSQP reference solver for S4, used only by the agreement tests.

A general-purpose NLP over every node's ``[r, c^r, g, c^g, d]`` that the
closed-form price decomposition of
:class:`~repro.control.energy_manager.EnergyManager` must match or beat
on the exact-drift objective.  It reads a
:class:`~repro.control.energy_manager.NodeEnergyBatch` and returns a
:class:`~repro.control.decisions.BatchAllocation` in batch row order.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.constants import FEASIBILITY_EPS
from repro.control.decisions import BatchAllocation
from repro.exceptions import SolverError


def solve_slsqp(batch, cost, control_v, warm_start=None) -> BatchAllocation:
    """Minimise the exact-drift S4 objective with scipy SLSQP.

    Complementarity (9) is omitted from the relaxation because an
    equal-objective complementary point always exists (DESIGN.md); the
    returned allocation nets charge against discharge where both are
    positive.

    Args:
        warm_start: optional ``(5 n,)`` starting point (a feasible
            candidate allocation); defaults to the greedy
            r -> g -> d serve split.
    """
    n = len(batch)
    renewable = batch.renewable_j
    demand = batch.demand_j
    grid = batch.usable_grid_j
    charge_cap = batch.charge_cap_j
    bs_mask = batch.is_base_station
    z = batch.z
    eta_c = batch.charge_efficiency
    eta_d = batch.discharge_efficiency
    # Normalise the objective: drift terms scale like |z| * caps, which
    # can be 1e8+, and SLSQP's line search stalls on badly scaled
    # problems.  Scaling does not move the argmin.
    scale = max(float(np.abs(z).max()), control_v * cost.derivative(0.0), 1.0)

    def objective(x):
        vars_ = x.reshape(n, 5)
        total_draw = float(np.sum((vars_[:, 2] + vars_[:, 3])[bs_mask]))
        # Level delta: eta_c * input charge - delivered / eta_d.
        net = eta_c * (vars_[:, 1] + vars_[:, 3]) - vars_[:, 4] / eta_d
        raw = float(np.dot(z, net)) + control_v * cost.value(max(total_draw, 0.0))
        return (raw + 0.5 * float(np.dot(net, net))) / scale

    def demand_balance(x):
        vars_ = x.reshape(n, 5)
        return vars_[:, 0] + vars_[:, 2] + vars_[:, 4] - demand

    def caps(x):
        vars_ = x.reshape(n, 5)
        return np.concatenate(
            (
                renewable - vars_[:, 0] - vars_[:, 1],
                charge_cap - vars_[:, 1] - vars_[:, 3],
                grid - vars_[:, 2] - vars_[:, 3],
            )
        )

    constraints = [
        {"type": "eq", "fun": demand_balance},
        {"type": "ineq", "fun": caps},
    ]
    bounds = []
    for i in range(n):
        bounds.extend(
            [
                (0.0, renewable[i]),
                (0.0, min(charge_cap[i], renewable[i])),
                (0.0, grid[i]),
                (0.0, min(charge_cap[i], grid[i])),
                (0.0, batch.discharge_cap_j[i]),
            ]
        )
    # Feasible start: serve demand greedily r -> g -> d.
    x0 = np.zeros((n, 5))
    x0[:, 0] = np.minimum(renewable, demand)
    x0[:, 2] = np.minimum(grid, demand - x0[:, 0])
    x0[:, 4] = np.maximum(0.0, demand - x0[:, 0] - x0[:, 2])
    x0 = x0.ravel()

    result = None
    start = x0 if warm_start is None else warm_start
    for _ in range(3):
        result = optimize.minimize(
            objective,
            start,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 500, "ftol": 1e-12},
        )
        if result.success:
            break
        # Restart from the stalled point nudged into the interior;
        # SLSQP line searches can stall at degenerate vertices.
        start = 0.99 * result.x + 0.01 * x0
    if not result.success:
        raise SolverError(f"SLSQP failed: {result.message}")

    r, c_r, g, c_g, d = np.maximum(result.x.reshape(n, 5), 0.0).T.copy()
    # Net simultaneous charge/discharge (equal-objective shift).
    overlap = np.minimum(c_r + c_g, d)
    overlap = np.where(overlap > FEASIBILITY_EPS, overlap, 0.0)
    from_renewable = np.minimum(overlap, c_r)
    c_r -= from_renewable
    c_g -= overlap - from_renewable
    d -= overlap
    r = np.minimum(renewable, r + from_renewable)
    return BatchAllocation(
        renewable_serve_j=r,
        renewable_charge_j=c_r,
        grid_serve_j=g,
        grid_charge_j=c_g,
        discharge_j=d,
        spill_j=np.maximum(0.0, renewable - r - c_r),
    )


def assert_matches_slsqp(batch, allocation, cost, control_v, tol=1e-8) -> None:
    """Assert ``allocation`` agrees with the SLSQP reference.

    Compares the physically determined per-node aggregates — grid draw
    ``g + c^g``, delivered discharge ``d``, and total charge input
    ``c^r + c^g`` — rather than the raw five-way split, which is
    degenerate (shifting grid energy between serve and charge with
    renewable compensating leaves the objective unchanged).  The
    tolerance is relative to each node's supply scale.

    SLSQP is warm-started *at the candidate allocation*: from a cold
    start its ``ftol`` termination only locates the argmin of a
    quadratic to ~sqrt(ftol), far looser than 1e-8.  Started at a true
    KKT point it stays put; started at a suboptimal point the line
    search walks away from it and the comparison fails.
    """
    warm = np.column_stack(
        (
            allocation.renewable_serve_j,
            allocation.renewable_charge_j,
            allocation.grid_serve_j,
            allocation.grid_charge_j,
            allocation.discharge_j,
        )
    ).ravel()
    reference = solve_slsqp(batch, cost, control_v, warm_start=warm)
    denom = np.maximum(np.maximum(1.0, batch.demand_j), batch.max_supply_j)
    for name in ("grid_draw_j", "discharge_j", "charge_j"):
        mine = getattr(allocation, name)
        ref = getattr(reference, name)
        bad = np.flatnonzero(np.abs(mine - ref) > tol * denom)
        assert not bad.size, (
            f"node {int(batch.nodes[bad[0]])} {name} disagrees with SLSQP "
            f"({mine[bad[0]]} vs {ref[bad[0]]}, tol {tol * denom[bad[0]]})"
        )
