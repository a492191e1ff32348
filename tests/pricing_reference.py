"""The S4 oracles: the two-mode node response and the full-fleet residual.

:meth:`repro.control.energy_manager.EnergyManager._price_fixed_point`
bisects the station price ``mu`` with ``mu = f'(P(mu))`` and, on fleets
above ``_SCALAR_PRICING_MAX`` stations, re-prices only the stations whose
draws differ at the two bracket ends.  This module keeps the paths the
library replaced as independent oracles:

* :func:`batched_serve_mode`, :func:`batched_charge_mode` and
  :func:`batched_node_response`: each mode's allocation built in full
  and every field picked per row (the library shares the terms both
  modes compute and drops the picks of equal fields);
* :func:`full_grid_draw_j` and :func:`full_fleet_price`: every station
  priced from its raw batch fields at every evaluation, bisected with
  the ``K = 1`` :func:`~repro.solvers.bisection.bisect_root_vec`;
* :func:`reference_manage`: ``EnergyManager.manage`` as one function
  over those kernels, with both +/- probes run through the full
  two-mode response.
"""

from __future__ import annotations

import numpy as np

from repro.control import energy_manager
from repro.control.decisions import BatchAllocation, EnergyManagementDecision
from repro.core.arraystate import seq_sum
from repro.exceptions import InfeasibleError
from repro.solvers.bisection import bisect_root_vec

_PRICE_BISECT_TOL = energy_manager._PRICE_BISECT_TOL
_ENERGY_TOL = energy_manager._ENERGY_TOL
_PRICE_PROBE_REL = energy_manager._PRICE_PROBE_REL


def batched_serve_mode(batch, grid_price):
    """Discharge mode: serve demand, never charge.

    The per-node objective ``-z (d/eta_d) + (d/eta_d)^2/2 + price * g``
    is strictly convex in the delivered discharge ``d`` (the battery
    drains ``d / eta_d``), so its constrained minimiser is the
    stationary point clamped to the feasible box.  Returns
    ``(allocation, objective)``.
    """
    demand, renewable = batch.demand_j, batch.renewable_j
    grid = batch.usable_grid_j
    z = batch.z
    eta_d = batch.discharge_efficiency
    r_serve = np.minimum(renewable, demand)
    residual = demand - r_serve

    d_min = np.maximum(0.0, residual - grid)
    d_max = np.minimum(batch.discharge_cap_j, residual)
    infeasible = d_min > d_max + _ENERGY_TOL
    if np.any(infeasible):
        i = int(np.argmax(infeasible))
        raise InfeasibleError(
            f"node {int(batch.nodes[i])}: demand {demand[i]} J exceeds max "
            f"supply {batch.max_supply_j[i]} J (curtailment missing upstream)"
        )
    d_max = np.maximum(d_min, d_max)

    stationary = eta_d * z + eta_d * eta_d * grid_price
    d = np.minimum(np.maximum(stationary, d_min), d_max)

    g_serve = residual - d
    drained = d / eta_d
    objective = -z * drained + 0.5 * drained * drained + grid_price * g_serve
    allocation = BatchAllocation(
        renewable_serve_j=r_serve,
        renewable_charge_j=np.zeros_like(d),
        grid_serve_j=g_serve,
        grid_charge_j=np.zeros_like(d),
        discharge_j=d,
        spill_j=renewable - r_serve,
    )
    return allocation, objective


def batched_charge_mode(batch, grid_price):
    """Charge mode: serve demand without discharging, charge.

    The objective ``z (eta_c c) + (eta_c c)^2/2 + price * grid`` is
    convex piecewise quadratic in the charge input ``c`` with one kink
    (where the grid starts funding the charge); its unconstrained
    minimiser is the kink clamped between the two stationary points,
    and the constrained minimiser clamps that to ``[0, hi]``.  Returns
    ``(allocation, objective, feasible)``; rows with ``feasible`` False
    cannot meet demand without discharging and carry unspecified
    values.
    """
    demand, renewable = batch.demand_j, batch.renewable_j
    grid = batch.usable_grid_j
    feasible = ~(demand > renewable + grid + _ENERGY_TOL)
    z = batch.z
    eta_c = batch.charge_efficiency
    hi = np.minimum(batch.charge_cap_j, renewable + grid - demand)
    hi = np.maximum(hi, 0.0)

    kink = renewable - demand  # beyond this, charging draws the grid
    stationary_free = -z / eta_c
    stationary_grid = -z / eta_c - grid_price / (eta_c * eta_c)
    unconstrained = np.minimum(np.maximum(kink, stationary_grid), stationary_free)
    c = np.minimum(np.maximum(unconstrained, 0.0), hi)

    grid_draw = np.maximum(0.0, demand + c - renewable)
    stored = eta_c * c
    objective = z * stored + 0.5 * stored * stored + grid_price * grid_draw
    r_serve = np.minimum(renewable, demand)
    g_serve = demand - r_serve
    r_charge = np.minimum(renewable - r_serve, c)
    g_charge = c - r_charge
    allocation = BatchAllocation(
        renewable_serve_j=r_serve,
        renewable_charge_j=r_charge,
        grid_serve_j=g_serve,
        grid_charge_j=g_charge,
        discharge_j=np.zeros_like(c),
        spill_j=renewable - r_serve - r_charge,
    )
    return allocation, objective, feasible


def batched_node_response(batch, mu, control_v):
    """Both modes in full, each field picked per row by ``serve <= charge``.

    Returns ``(allocation, objective)``; users are priced at zero.
    """
    grid_price = np.where(batch.is_base_station, control_v * mu, 0.0)
    serve_alloc, serve_obj = batched_serve_mode(batch, grid_price)
    charge_alloc, charge_obj, charge_ok = batched_charge_mode(batch, grid_price)
    serve_wins = ~charge_ok | (serve_obj <= charge_obj)
    allocation = BatchAllocation(
        *(
            np.where(serve_wins, getattr(serve_alloc, name), getattr(charge_alloc, name))
            for name in (
                "renewable_serve_j",
                "renewable_charge_j",
                "grid_serve_j",
                "grid_charge_j",
                "discharge_j",
                "spill_j",
            )
        )
    )
    return allocation, np.where(serve_wins, serve_obj, charge_obj)


def full_grid_draw_j(batch, mu, control_v):
    """Every row's grid draw at marginal price ``mu``, from the raw fields.

    The slim chain of ``_batched_node_response``: both modes, the
    per-row winner by ``serve <= charge``, and the picked
    ``grid_serve + grid_charge``.  Users are priced at zero.
    """
    grid_price = np.where(batch.is_base_station, control_v * mu, 0.0)
    demand, renewable = batch.demand_j, batch.renewable_j
    grid = batch.usable_grid_j
    z = batch.z

    eta_d = batch.discharge_efficiency
    r_serve = np.minimum(renewable, demand)
    residual = demand - r_serve
    d_min = np.maximum(0.0, residual - grid)
    d_max = np.minimum(batch.discharge_cap_j, residual)
    d_max = np.maximum(d_min, d_max)
    stationary = eta_d * z + eta_d * eta_d * grid_price
    d = np.minimum(np.maximum(stationary, d_min), d_max)
    g_serve = residual - d
    drained = d / eta_d
    serve_obj = -z * drained + 0.5 * drained * drained + grid_price * g_serve

    eta_c = batch.charge_efficiency
    charge_ok = ~(demand > renewable + grid + _ENERGY_TOL)
    hi = np.minimum(batch.charge_cap_j, renewable + grid - demand)
    hi = np.maximum(hi, 0.0)
    kink = renewable - demand
    stationary_free = -z / eta_c
    stationary_grid = -z / eta_c - grid_price / (eta_c * eta_c)
    unconstrained = np.minimum(np.maximum(kink, stationary_grid), stationary_free)
    c = np.minimum(np.maximum(unconstrained, 0.0), hi)
    grid_draw = np.maximum(0.0, demand + c - renewable)
    stored = eta_c * c
    charge_obj = z * stored + 0.5 * stored * stored + grid_price * grid_draw
    g_charge = c - np.minimum(renewable - r_serve, c)

    serve_wins = ~charge_ok | (serve_obj <= charge_obj)
    return np.where(serve_wins, g_serve + 0.0, (demand - r_serve) + g_charge)


def full_fleet_price(stations, cost, control_v):
    """``mu`` with ``mu = f'(P(mu))``, pricing every station at every step."""
    cap = seq_sum(stations.usable_grid_j)
    mu_lo = cost.derivative(0.0)
    mu_hi = cost.derivative(cap) + max(1.0, cost.derivative(cap)) * 1e-6

    def residual_vec(mu_vec):
        mu = float(mu_vec[0])
        draw = seq_sum(full_grid_draw_j(stations, mu, control_v))
        return np.array([mu - cost.derivative(draw)])

    return float(
        bisect_root_vec(
            residual_vec, np.array([mu_lo]), np.array([mu_hi]), tol=_PRICE_BISECT_TOL
        )[0]
    )


def reference_manage(manager, batch, cost):
    """``manager.manage(batch, cost)`` over the oracle kernels.

    ``mu*`` is :func:`full_fleet_price`; the +epsilon probe prices the
    whole batch and the -epsilon probe the stations, both through
    :func:`batched_node_response`; the marginal repair is the
    library's ``_allocation_given_grid``.
    """
    over = batch.demand_j > batch.max_supply_j + _ENERGY_TOL
    if np.any(over):
        raise InfeasibleError(f"node {int(batch.nodes[int(np.argmax(over))])}")
    control_v = manager._v
    bs_rows = np.flatnonzero(batch.is_base_station)
    if not bs_rows.size:
        allocation, _ = batched_node_response(batch, 0.0, control_v)
    else:
        stations = batch.take(bs_rows)
        mu_star = full_fleet_price(stations, cost, control_v)
        eps = max(abs(mu_star), cost.derivative(0.0), 1e-9) * _PRICE_PROBE_REL
        allocation, _ = batched_node_response(batch, mu_star + eps, control_v)
        low_alloc, _ = batched_node_response(stations, mu_star - eps, control_v)
        high_draw = allocation.grid_draw_j[bs_rows]
        low_draw = low_alloc.grid_draw_j
        p_plus = seq_sum(high_draw)
        p_minus = seq_sum(low_draw)
        if cost.a > 0:
            p_target = min(max(cost.inverse_derivative(mu_star), p_plus), p_minus)
        else:
            p_target = p_plus
        extra = p_target - p_plus
        if extra > _ENERGY_TOL:
            gap = low_draw - high_draw
            for j in np.flatnonzero((gap > _ENERGY_TOL) & (stations.z < 0)):
                take = min(float(gap[j]), extra)
                energy_manager._allocation_given_grid(
                    batch, int(bs_rows[j]), float(high_draw[j]) + take, allocation
                )
                extra -= take
                if extra <= _ENERGY_TOL:
                    break
    bs_draw = seq_sum(allocation.grid_draw_j[batch.is_base_station])
    return EnergyManagementDecision(
        allocation=allocation, bs_grid_draw_j=bs_draw, cost=cost.value(bs_draw)
    )
