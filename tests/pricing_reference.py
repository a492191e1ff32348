"""The S4 pricing oracle: the full-fleet bisection residual.

:meth:`repro.control.energy_manager.EnergyManager._price_fixed_point`
bisects the station price ``mu`` with ``mu = f'(P(mu))`` and, on fleets
above ``_SCALAR_PRICING_MAX`` stations, re-prices only the stations whose
draws differ at the two bracket ends.  This module keeps the path it
replaced as an independent oracle: every station priced from its raw
batch fields at every evaluation (:func:`full_grid_draw_j`), bisected
with the ``K = 1`` :func:`~repro.solvers.bisection.bisect_root_vec`
(:func:`full_fleet_price`).  :func:`reference_manage` runs
``EnergyManager.manage`` with that price in place of the library's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.control import energy_manager
from repro.core.arraystate import seq_sum
from repro.solvers.bisection import bisect_root_vec

_PRICE_BISECT_TOL = energy_manager._PRICE_BISECT_TOL
_ENERGY_TOL = energy_manager._ENERGY_TOL


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
    """``manager.manage(batch, cost)`` with :func:`full_fleet_price` as ``mu*``."""

    def price(self, stations, cost):
        return full_fleet_price(stations, cost, self._v)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(energy_manager.EnergyManager, "_price_fixed_point", price)
        return manager.manage(batch, cost)
