"""S4 — energy management (Section IV-C-4).

Minimises ``Psi-hat_4 = sum_i z_i (c_i - d_i) + V f(P)`` plus the exact
quadratic battery-drift term ``sum_i (c_i - d_i)^2 / 2`` subject to the
energy constraints (9)-(14), where ``P = sum_{b in BS} (g_b + c^g_b)``
is the total base-station grid draw.  Two solvers, both one pass over
a :class:`NodeEnergyBatch` that returns a :class:`BatchAllocation`:

* ``PRICE_DECOMPOSITION`` (default) — exact for the paper's strictly
  convex quadratic ``f``: every node answers a marginal grid price
  ``mu`` in closed form (one batched KKT pass); bisection finds the
  fixed point ``mu = f'(P(mu))``, re-pricing at each midpoint only the
  stations whose draw can still change; a marginal-node repair step
  handles the staircase discontinuity of ``P(mu)`` so interior optima
  (partial charging) are recovered.
* ``GRID_ONLY`` — a naive baseline: renewables serve demand, the grid
  covers the rest, the battery is never charged.

Deviation from the paper noted in DESIGN.md: Eq. (3) forces the
renewable output to be fully consumed (``R = r + c^r``), which is
infeasible whenever the battery is full and demand is low; we allow
spilling (``r + c^r <= R``) and report the spilled energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.axes import NodeJoules, NodeVec
from repro.contracts import ContractChecker
from repro.core.arraystate import seq_sum
from repro.control.decisions import BatchAllocation, EnergyManagementDecision
from repro.energy.cost import QuadraticCost
from repro.exceptions import InfeasibleError
from repro.model import NetworkModel
from repro.solvers.bisection import (
    bisect_root,
    # Not called here; benchmarks/suite/spans.py wraps it on this module.
    bisect_root_vec,
)
from repro.types import EnergySolverKind, NodeId
from repro.units import Joules

#: Bisection bracket tolerance: must be far below the +/- probe offset
#: used by the marginal repair step, or both probes can land on the
#: same side of a response discontinuity and miss the interior optimum.
_PRICE_BISECT_TOL = 1e-10
#: Relative +/- probe offset around the fixed-point price.
_PRICE_PROBE_REL = 1e-3

#: Station-fleet size at or below which the bisection residual prices
#: base stations as Python floats (:func:`_quadratic_grid_draw_j`):
#: each vectorized residual step costs ~30 numpy dispatches regardless
#: of row count, so tiny fleets are faster as floats (the float64
#: chains are identical, so both residuals find the same ``mu``).
_SCALAR_PRICING_MAX = 8
_ENERGY_TOL = 1e-6
#: Serve/charge gap margin, relative to a station's objective scale
#: (~8000 ulp): closer choices stay in play at every midpoint.
_GAP_TOL_REL = 2.0**-40


@dataclass(frozen=True)
class NodeEnergyInputs:
    """Everything S4 needs to know about one node for one slot.

    A per-node record for standalone callers, packed into a
    :class:`NodeEnergyBatch` by :meth:`NodeEnergyBatch.from_inputs`.
    All energies in joules.  ``charge_cap_j``/``discharge_cap_j`` are
    the *effective* caps — constraints (11)/(12) already intersected
    with the battery's current headroom and level.  Conventions with
    storage losses: ``charge`` amounts are *input* energy (the battery
    stores ``eta_c`` of them); ``discharge`` amounts are *delivered*
    energy (the battery drains ``1/eta_d`` of them), so
    ``discharge_cap_j`` is the deliverable cap.
    """

    node: NodeId
    is_base_station: bool
    demand_j: Joules
    renewable_j: Joules
    grid_connected: bool
    grid_cap_j: Joules
    charge_cap_j: Joules
    discharge_cap_j: Joules
    z: Joules
    charge_efficiency: float = 1.0
    discharge_efficiency: float = 1.0

    @property
    def usable_grid_j(self) -> Joules:
        """Grid supply available this slot (0 when disconnected)."""
        return self.grid_cap_j if self.grid_connected else 0.0

    @property
    def max_supply_j(self) -> Joules:
        """Most demand this node could possibly serve this slot."""
        return self.renewable_j + self.usable_grid_j + self.discharge_cap_j


@dataclass
class NodeEnergyBatch:
    """S4 inputs as struct-of-arrays, one row per node.

    Row ``i`` holds the fields of one :class:`NodeEnergyInputs`; the S4
    kernels run one vectorized pass over these arrays instead of one
    convex program per node.  The allocation keeps the batch's row
    order, which also fixes every sequential reduction; the controller
    passes nodes ``0..N-1``, so its rows are node ids.
    """

    nodes: NodeVec
    is_base_station: NodeVec
    demand_j: NodeJoules
    renewable_j: NodeJoules
    grid_connected: NodeVec
    grid_cap_j: NodeJoules
    charge_cap_j: NodeJoules
    discharge_cap_j: NodeJoules
    z: NodeJoules
    charge_efficiency: NodeVec
    discharge_efficiency: NodeVec
    #: Grid supply available this slot (0 where disconnected), derived
    #: once per batch from ``grid_connected`` and ``grid_cap_j``.
    usable_grid_j: NodeJoules = field(init=False)

    def __post_init__(self) -> None:
        self.usable_grid_j = np.where(self.grid_connected, self.grid_cap_j, 0.0)

    def __len__(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def max_supply_j(self) -> NodeJoules:
        """Most demand each node could possibly serve this slot."""
        supply = self.renewable_j + self.usable_grid_j
        return np.add(supply, self.discharge_cap_j, out=supply)

    @classmethod
    def from_inputs(cls, inputs: Sequence[NodeEnergyInputs]) -> "NodeEnergyBatch":
        """Pack per-node inputs into arrays (row order = input order)."""
        count = len(inputs)

        def farr(attr: str) -> np.ndarray:
            return np.fromiter(
                (getattr(n, attr) for n in inputs), dtype=float, count=count
            )

        return cls(
            nodes=np.fromiter(
                (n.node for n in inputs), dtype=np.intp, count=count
            ),
            is_base_station=np.fromiter(
                (n.is_base_station for n in inputs), dtype=bool, count=count
            ),
            demand_j=farr("demand_j"),
            renewable_j=farr("renewable_j"),
            grid_connected=np.fromiter(
                (n.grid_connected for n in inputs), dtype=bool, count=count
            ),
            grid_cap_j=farr("grid_cap_j"),
            charge_cap_j=farr("charge_cap_j"),
            discharge_cap_j=farr("discharge_cap_j"),
            z=farr("z"),
            charge_efficiency=farr("charge_efficiency"),
            discharge_efficiency=farr("discharge_efficiency"),
        )

    def take(self, rows: np.ndarray) -> "NodeEnergyBatch":
        """Sub-batch of ``rows`` (index array), preserving row order."""
        return NodeEnergyBatch(
            nodes=self.nodes[rows],
            is_base_station=self.is_base_station[rows],
            demand_j=self.demand_j[rows],
            renewable_j=self.renewable_j[rows],
            grid_connected=self.grid_connected[rows],
            grid_cap_j=self.grid_cap_j[rows],
            charge_cap_j=self.charge_cap_j[rows],
            discharge_cap_j=self.discharge_cap_j[rows],
            z=self.z[rows],
            charge_efficiency=self.charge_efficiency[rows],
            discharge_efficiency=self.discharge_efficiency[rows],
        )


def _batched_node_response(
    batch: NodeEnergyBatch, mu: float, control_v: float
) -> BatchAllocation:
    """Every row's optimal allocation facing marginal grid price ``mu``.

    Solves each row's closed-form KKT system in one pass.  Users never
    contribute to ``P(t)``, so their effective grid price is zero.  Two
    modes are evaluated and the per-row winner picked by
    ``serve <= charge`` (serve also wins where charging cannot meet
    demand without discharging):

    * serve: the objective ``-z (d/eta_d) + (d/eta_d)^2/2 + price * g``
      is strictly convex in the delivered discharge ``d`` (the battery
      drains ``d / eta_d``), so its constrained minimiser is the
      stationary point clamped to the feasible box;
    * charge: ``z (eta_c c) + (eta_c c)^2/2 + price * grid`` is convex
      piecewise quadratic in the charge input ``c`` with one kink
      (where the grid starts funding the charge); its minimiser is the
      kink clamped between the two stationary points, then to
      ``[0, hi]``.

    Each field is the float chain of the two-mode kernel it replaced
    (``tests/pricing_reference.py::batched_node_response``), which
    built both modes' allocations in full and picked every field:

    * ``renewable_serve_j``: both modes serve ``min(renewable,
      demand)``, so the pick is that one array;
    * ``renewable_charge_j`` / ``grid_charge_j``: serve mode's zeros
      were ``+0.0``, the literal written over the serve rows;
    * ``grid_serve_j``: charge mode's ``demand - r_serve`` is the
      shared ``residual``, the same operation on the same operands;
    * ``discharge_j``: charge mode's zeros, as above;
    * ``spill_j``: serve mode's ``renewable - r_serve`` is the shared
      ``spare``, and charge mode's ``renewable - r_serve - r_charge``
      associates as ``spare - r_charge``; ``spare - 0.0`` is ``spare``.

    Shared terms (``r_serve``, ``residual``, ``spare``, ``-z``,
    ``renewable + grid``, the usable grid and the price) are computed
    once; a term both modes formed twice had the same operands, so
    the bits cannot differ.
    """
    demand, renewable, z = batch.demand_j, batch.renewable_j, batch.z
    eta_d, eta_c = batch.discharge_efficiency, batch.charge_efficiency
    price = np.where(batch.is_base_station, control_v * mu, 0.0)
    r_serve = np.minimum(renewable, demand)
    residual = demand - r_serve
    spare = renewable - r_serve
    neg_z = -z
    # Full-size temporaries are reused through ``out=``: a fresh (N,)
    # buffer per operation costs more than the arithmetic at U = 100k
    # (fresh pages and cache misses).
    # Each in-place step is the operation of the expression it stands
    # for, with max/min operands in the same order.
    work = np.empty_like(demand)

    # Serve mode: discharge, never charge.
    d_min = np.subtract(residual, batch.usable_grid_j)
    np.maximum(0.0, d_min, out=d_min)
    d_max = np.minimum(batch.discharge_cap_j, residual)
    infeasible = d_min > np.add(d_max, _ENERGY_TOL, out=work)
    if np.any(infeasible):
        i = int(np.argmax(infeasible))
        raise InfeasibleError(
            f"node {int(batch.nodes[i])}: demand {demand[i]} J exceeds max "
            f"supply {batch.max_supply_j[i]} J (curtailment missing upstream)"
        )
    np.maximum(d_min, d_max, out=d_max)
    d = np.multiply(eta_d, z)  # d = eta_d * z + eta_d * eta_d * price, clamped
    np.multiply(eta_d, eta_d, out=work)
    np.multiply(work, price, out=work)
    np.add(d, work, out=d)
    np.maximum(d, d_min, out=d)
    np.minimum(d, d_max, out=d)
    g_serve = residual - d
    drained = np.divide(d, eta_d, out=d_min)
    # serve_obj = -z * drained + 0.5 * drained * drained + price * g_serve
    serve_obj = np.multiply(neg_z, drained, out=d_max)
    np.multiply(0.5, drained, out=work)
    np.multiply(work, drained, out=work)
    np.add(serve_obj, work, out=serve_obj)
    np.multiply(price, g_serve, out=work)
    np.add(serve_obj, work, out=serve_obj)

    # Charge mode: serve demand without discharging, charge.
    hi = np.add(renewable, batch.usable_grid_j)  # renewable + grid
    blocked = demand > np.add(hi, _ENERGY_TOL, out=work)
    np.subtract(hi, demand, out=hi)
    np.minimum(batch.charge_cap_j, hi, out=hi)
    np.maximum(hi, 0.0, out=hi)
    stationary_free = np.divide(neg_z, eta_c, out=neg_z)
    # The grid-funded stationary point -z / eta_c - price / eta_c^2 is
    # the smaller of the two (price >= 0); c is the kink
    # renewable - demand clamped between them, then to [0, hi].
    np.multiply(eta_c, eta_c, out=work)
    np.divide(price, work, out=work)
    np.subtract(stationary_free, work, out=work)
    c = np.subtract(renewable, demand)
    np.maximum(c, work, out=c)
    np.minimum(c, stationary_free, out=c)
    np.maximum(c, 0.0, out=c)
    np.minimum(c, hi, out=c)
    # charge_obj = z * stored + 0.5 * stored * stored + price * grid_draw
    stored = np.multiply(eta_c, c, out=hi)
    charge_obj = np.multiply(z, stored, out=stationary_free)
    np.multiply(0.5, stored, out=work)
    np.multiply(work, stored, out=work)
    np.add(charge_obj, work, out=charge_obj)
    np.add(demand, c, out=work)
    np.subtract(work, renewable, out=work)
    np.maximum(0.0, work, out=work)  # grid_draw
    np.multiply(price, work, out=work)
    np.add(charge_obj, work, out=charge_obj)
    r_charge = np.minimum(spare, c, out=stored)

    # The per-row pick, written into the buffers that are returned.
    # With r_charge zeroed on the serve rows, spare - r_charge is spare
    # there (x - 0.0 == x, bit for bit) and spare - r_charge elsewhere.
    serve_wins = blocked | (serve_obj <= charge_obj)
    charge_wins = ~serve_wins
    grid_charge = np.subtract(c, r_charge, out=c)
    np.copyto(grid_charge, 0.0, where=serve_wins)
    np.copyto(r_charge, 0.0, where=serve_wins)
    spill = np.subtract(spare, r_charge, out=spare)
    np.copyto(g_serve, residual, where=charge_wins)
    np.copyto(d, 0.0, where=charge_wins)
    return BatchAllocation(
        renewable_serve_j=r_serve,
        renewable_charge_j=r_charge,
        grid_serve_j=g_serve,
        grid_charge_j=grid_charge,
        discharge_j=d,
        spill_j=spill,
    )


class _StationPricer:
    """Grid draw of :func:`_batched_node_response` at any price ``mu``.

    Built once per slot from the station batch: the part of the KKT
    chain that does not depend on ``mu`` is hoisted here, and
    :meth:`draw` runs the rest, every float64 operation the full
    kernel's, so it returns the picked ``grid_serve + grid_charge`` bit
    for bit.  Every row is priced at ``control_v * mu`` (stations only).
    """

    def __init__(self, stations: NodeEnergyBatch, control_v: float) -> None:
        demand, renewable = stations.demand_j, stations.renewable_j
        z = stations.z
        eta_d = stations.discharge_efficiency
        eta_c = stations.charge_efficiency
        self._v = control_v
        # One (16, B) stack, so a row subset is gathered in one indexing;
        # each row is computed in place.  -z / eta_c is the charge mode's
        # grid-free stationary point, renewable - demand its kink, and
        # residual also its demand - r_serve.
        self._cols = cols = np.empty((16, demand.shape[0]))
        (eta_d_z, eta_d2, d_min, d_max, residual, eta_d_row, neg_z, stationary_free,
         eta_c2, kink, hi, demand_row, renewable_row, z_row, eta_c_row, spare) = cols
        r_serve = np.minimum(renewable, demand, out=spare)
        np.subtract(demand, r_serve, out=residual)
        np.subtract(renewable, r_serve, out=spare)  # renewable - r_serve
        np.subtract(residual, stations.usable_grid_j, out=d_min)
        np.maximum(0.0, d_min, out=d_min)
        np.minimum(stations.discharge_cap_j, residual, out=d_max)
        np.maximum(d_min, d_max, out=d_max)
        np.add(renewable, stations.usable_grid_j, out=hi)  # renewable + grid
        self._charge_blocked = demand > hi + _ENERGY_TOL
        np.subtract(hi, demand, out=hi)
        np.minimum(stations.charge_cap_j, hi, out=hi)
        np.maximum(hi, 0.0, out=hi)
        np.multiply(eta_d, z, out=eta_d_z)
        np.multiply(eta_d, eta_d, out=eta_d2)
        eta_d_row[:] = eta_d
        np.negative(z, out=neg_z)
        np.divide(neg_z, eta_c, out=stationary_free)
        np.multiply(eta_c, eta_c, out=eta_c2)
        np.subtract(renewable, demand, out=kink)
        demand_row[:] = demand
        renewable_row[:] = renewable
        z_row[:] = z
        eta_c_row[:] = eta_c
        # Every product in either objective is at most (slope + price) *
        # length, so each is within ~30 ulp of that of its exact optimum.
        slope = np.abs(z) + d_max / eta_d + eta_c * hi
        length = d_max / eta_d + eta_c * hi + residual + demand + renewable + hi
        self._tol_length = length * _GAP_TOL_REL
        self._tol_area = slope * self._tol_length

    def draw(self, mu: float, rows: Optional[np.ndarray] = None) -> Tuple[NodeVec, NodeVec]:
        """Grid draw and mode gap of every row (or of ``rows``) at price ``mu``.

        The mode gap is ``serve_obj - charge_obj`` (serve wins where it
        is <= 0), and ``-inf`` where the charge mode is infeasible.
        """
        price = self._v * mu
        cols = self._cols if rows is None else self._cols[:, rows]
        blocked = self._charge_blocked if rows is None else self._charge_blocked[rows]
        (eta_d_z, eta_d2, d_min, d_max, residual, eta_d, neg_z, stationary_free,
         eta_c2, kink, hi, demand, renewable, z, eta_c, spare) = cols

        # Serve mode (the serve chain of _batched_node_response), in a
        # few fresh buffers; nothing writes into the column stack.
        d = np.multiply(eta_d2, price)
        np.add(eta_d_z, d, out=d)
        np.maximum(d, d_min, out=d)
        np.minimum(d, d_max, out=d)
        g_serve = residual - d
        drained = np.divide(d, eta_d, out=d)
        # serve_obj = -z * drained + 0.5 * drained * drained + price * g_serve
        serve_obj = neg_z * drained
        work = np.multiply(0.5, drained)
        np.multiply(work, drained, out=work)
        np.add(serve_obj, work, out=serve_obj)
        np.multiply(price, g_serve, out=work)
        np.add(serve_obj, work, out=serve_obj)

        # Charge mode (the charge chain of _batched_node_response).
        np.divide(price, eta_c2, out=work)
        np.subtract(stationary_free, work, out=work)  # the grid-funded stationary point
        c = np.maximum(kink, work, out=drained)
        np.minimum(c, stationary_free, out=c)
        np.maximum(c, 0.0, out=c)
        np.minimum(c, hi, out=c)
        # charge_obj = z * stored + 0.5 * stored * stored + price * grid_draw
        stored = np.multiply(eta_c, c)
        charge_obj = np.multiply(z, stored)
        np.multiply(0.5, stored, out=work)
        np.multiply(work, stored, out=work)
        np.add(charge_obj, work, out=charge_obj)
        np.add(demand, c, out=work)
        np.subtract(work, renewable, out=work)
        np.maximum(0.0, work, out=work)  # grid_draw
        np.multiply(price, work, out=work)
        np.add(charge_obj, work, out=charge_obj)
        g_charge = np.minimum(spare, c, out=stored)
        np.subtract(c, g_charge, out=g_charge)

        # Winner rows: grid_serve + grid_charge exactly as the pick() sums.
        serve_wins = blocked | (serve_obj <= charge_obj)
        np.add(g_serve, 0.0, out=g_serve)
        np.add(residual, g_charge, out=g_charge)
        draw = np.where(serve_wins, g_serve, g_charge)
        gap = np.subtract(serve_obj, charge_obj, out=serve_obj)
        np.copyto(gap, -np.inf, where=blocked)
        return draw, gap

    def settled(
        self, rows: Optional[np.ndarray], low: _BracketEnd, high: _BracketEnd
    ) -> np.ndarray:
        """Which of ``rows`` (all when None) keep one draw on ``[low, high]``.

        Settled: equal draws at both ends, and serve decided at the low
        end or charge at the high end by more than the rounding margin.
        The exact serve-minus-charge gap is nonincreasing in the price,
        so the mode cannot flip inside the bracket, and within one mode
        the draw is monotone in the price (docs/architecture.md, S4).
        """
        sel: Union[slice, np.ndarray] = slice(None) if rows is None else rows
        tol = self._tol_area[sel] + (self._v * high.mu) * self._tol_length[sel]
        decided = (low.gap[sel] < -tol) | (high.gap[sel] > tol)
        return decided & (low.draw[sel] == high.draw[sel])


class _BracketEnd(NamedTuple):
    """One evaluated end of the price bracket."""

    mu: float
    draw: NodeVec
    gap: NodeVec
    total: Joules


class _InPlayResidual:
    """The bisection residual ``mu - f'(P(mu))`` over a station fleet.

    Keeps both bracket ends as :func:`bisect_root` moves them (low for
    a negative residual).  Stations settled on the bracket keep their
    draw on every sub-bracket and are copied; only those in play are
    priced again.  ``P`` is the ``seq_sum`` of the whole vector.
    """

    def __init__(self, pricer: _StationPricer, cost: QuadraticCost) -> None:
        self._pricer = pricer
        self._cost = cost
        self.ends: List[Optional[_BracketEnd]] = [None, None]
        self._in_play: Optional[np.ndarray] = None  # None: every row

    def __call__(self, mu: float) -> float:
        low, high = self.ends
        inside = low is not None and high is not None and low.mu <= mu <= high.mu
        if not inside:
            if low is not None and high is not None:
                self.ends = [None, None]  # restart the bracket at mu
            self._in_play = None
        rows = self._in_play
        if rows is None or high is None or 2 * rows.size > high.draw.size:
            # Pricing every row beats gathering most of them.
            draw, gap = self._pricer.draw(mu)
            total = seq_sum(draw)
        elif not rows.size:
            draw, gap, total = high.draw, high.gap, high.total
        else:
            draw, gap = high.draw.copy(), high.gap.copy()
            draw[rows], gap[rows] = self._pricer.draw(mu, rows)
            total = seq_sum(draw)
        value = mu - self._cost.derivative(total)
        self.ends[0 if value < 0.0 else 1] = _BracketEnd(mu, draw, gap, total)
        low, high = self.ends
        if low is not None and high is not None:
            settled = self._pricer.settled(rows, low, high)
            self._in_play = (
                np.flatnonzero(~settled) if rows is None else rows[~settled]
            )
        return value


def _quadratic_grid_draw_j(
    demand: float,
    renewable: float,
    grid: float,
    charge_cap: float,
    discharge_cap: float,
    z: float,
    eta_c: float,
    eta_d: float,
    grid_price: float,
) -> float:
    """One row of :meth:`_StationPricer.draw`, as Python floats.

    The small-fleet bisection residual: the same closed-form KKT chain,
    kept operation-for-operation identical to the vectorized kernel so
    both residuals return the same bits.  ``grid`` is the usable
    (connectivity-gated) grid cap.
    """
    # Serve mode (the serve chain of _batched_node_response).
    r_serve = min(renewable, demand)
    residual = demand - r_serve
    d_min = max(0.0, residual - grid)
    d_max = max(d_min, min(discharge_cap, residual))
    stationary = eta_d * z + eta_d * eta_d * grid_price
    d = min(max(stationary, d_min), d_max)
    g_serve = residual - d
    drained = d / eta_d
    serve_obj = -z * drained + 0.5 * drained * drained + grid_price * g_serve

    # Charge mode (the charge chain of _batched_node_response).
    charge_ok = not demand > renewable + grid + _ENERGY_TOL
    hi = max(min(charge_cap, renewable + grid - demand), 0.0)
    kink = renewable - demand
    stationary_free = -z / eta_c
    stationary_grid = -z / eta_c - grid_price / (eta_c * eta_c)
    c = min(max(min(max(kink, stationary_grid), stationary_free), 0.0), hi)
    grid_draw = max(0.0, demand + c - renewable)
    stored = eta_c * c
    charge_obj = z * stored + 0.5 * stored * stored + grid_price * grid_draw
    g_charge = c - min(renewable - r_serve, c)

    if not charge_ok or serve_obj <= charge_obj:
        return g_serve + 0.0
    return (demand - r_serve) + g_charge


def _allocation_given_grid(
    batch: NodeEnergyBatch, row: int, grid_draw_j: Joules, out: BatchAllocation
) -> None:
    """Write row ``row``'s optimum with its grid draw pinned (``z < 0``).

    Used by the marginal-node repair step: for a node with ``z < 0``
    the optimum given a grid budget ``p`` maximises charging — demand
    is covered by renewable + grid first (discharging only to fill any
    gap), and the leftovers charge the battery up to its cap, and at
    most to an input of ``-z / eta_c``, where the quadratic drift term
    turns charging unprofitable.
    """
    demand = float(batch.demand_j[row])
    renewable = float(batch.renewable_j[row])
    usable = float(batch.grid_cap_j[row]) if batch.grid_connected[row] else 0.0
    p = min(grid_draw_j, usable)
    shortfall = max(0.0, demand - renewable - p)
    discharge = min(shortfall, float(batch.discharge_cap_j[row]))
    if shortfall > discharge + _ENERGY_TOL:
        raise InfeasibleError(
            f"node {int(batch.nodes[row])}: grid budget {p} J cannot meet demand"
        )
    r_serve = min(renewable, demand - discharge)
    g_serve = demand - discharge - r_serve
    headroom = float(batch.charge_cap_j[row]) if discharge <= _ENERGY_TOL else 0.0
    headroom = min(
        headroom, max(0.0, -float(batch.z[row])) / float(batch.charge_efficiency[row])
    )
    r_charge = min(renewable - r_serve, headroom)
    g_charge = min(p - g_serve, headroom - r_charge)
    r_charge = max(0.0, r_charge)
    g_charge = max(0.0, g_charge)
    out.renewable_serve_j[row] = r_serve
    out.renewable_charge_j[row] = r_charge
    out.grid_serve_j[row] = g_serve
    out.grid_charge_j[row] = g_charge
    out.discharge_j[row] = discharge
    out.spill_j[row] = renewable - r_serve - r_charge


def _grid_only(batch: NodeEnergyBatch) -> BatchAllocation:
    """Renewables serve demand, grid covers the rest, no charging.

    Disconnected users with insufficient renewables fall back to the
    battery (forced discharge) so demand stays met;
    :meth:`EnergyManager.manage` has already rejected demand beyond the
    node's supply.
    """
    demand = batch.demand_j
    r_serve = np.minimum(batch.renewable_j, demand)
    g_serve = np.minimum(batch.usable_grid_j, demand - r_serve)
    return BatchAllocation(
        renewable_serve_j=r_serve,
        renewable_charge_j=np.zeros_like(demand),
        grid_serve_j=g_serve,
        grid_charge_j=np.zeros_like(demand),
        discharge_j=np.minimum(batch.discharge_cap_j, demand - r_serve - g_serve),
        spill_j=batch.renewable_j - r_serve,
    )


class EnergyManager:
    """The S4 subproblem solver."""

    def __init__(
        self,
        model: NetworkModel,
        kind: EnergySolverKind = EnergySolverKind.PRICE_DECOMPOSITION,
        checker: Optional[ContractChecker] = None,
    ) -> None:
        self._model = model
        self._kind = kind
        self._v = model.params.control_v
        self._checker = checker

    def attach_contracts(self, checker: ContractChecker) -> None:
        """Validate every S4 allocation against Eqs. 2-3, 5 and 9-14."""
        self._checker = checker

    @property
    def kind(self) -> EnergySolverKind:
        """The configured solver."""
        return self._kind

    def manage(
        self, batch: NodeEnergyBatch, cost: Optional[QuadraticCost] = None
    ) -> EnergyManagementDecision:
        """Solve S4 for one slot over all nodes.

        Args:
            batch: per-node demand/supply state, one row per node
                (standalone callers pack per-node records with
                :meth:`NodeEnergyBatch.from_inputs`).
            cost: the slot's generation cost function; defaults to the
                model's flat tariff (time-of-use callers pass
                ``model.cost_at(slot)``).

        Returns:
            The allocation in ``batch`` row order with ``P(t)`` summed
            over the base-station rows in that order.
        """
        if cost is None:
            cost = self._model.cost
        supply = batch.max_supply_j
        over = batch.demand_j > np.add(supply, _ENERGY_TOL, out=supply)
        if np.any(over):
            i = int(np.argmax(over))
            raise InfeasibleError(
                f"node {int(batch.nodes[i])}: demand {batch.demand_j[i]} J "
                f"exceeds max supply {batch.max_supply_j[i]} J; the "
                "controller's curtailment pass must run first"
            )
        if self._kind is EnergySolverKind.GRID_ONLY:
            allocation = _grid_only(batch)
        else:
            allocation = self._solve_price_decomposition(batch, cost)
        bs = batch.is_base_station
        bs_draw = seq_sum(allocation.grid_serve_j[bs] + allocation.grid_charge_j[bs])
        decision = EnergyManagementDecision(
            allocation=allocation,
            bs_grid_draw_j=bs_draw,
            cost=cost.value(bs_draw),
        )
        if self._checker is not None and self._checker.enabled:
            self._checker.check_energy(batch, decision)
        return decision

    def _solve_price_decomposition(
        self, batch: NodeEnergyBatch, cost: QuadraticCost
    ) -> BatchAllocation:
        """Closed-form price decomposition over the whole batch.

        Users never contribute to ``P(t)`` (the provider only pays for
        base-station draws), so their grid price is zero at every
        ``mu`` and the final high-side pass prices them too.  Only the
        base stations enter the fixed point ``mu = f'(P(mu))``, and the
        low-side probe needs only their grid draws, which the slot's
        :class:`_StationPricer` returns bit for bit.
        """
        bs_rows = np.flatnonzero(batch.is_base_station)
        if not bs_rows.size:
            return _batched_node_response(batch, 0.0, self._v)
        stations = batch.take(bs_rows)
        pricer = _StationPricer(stations, self._v)
        mu_star = self._price_fixed_point(stations, pricer, cost)

        eps = max(abs(mu_star), cost.derivative(0.0), 1e-9) * _PRICE_PROBE_REL
        allocation = _batched_node_response(batch, mu_star + eps, self._v)
        high_draw = allocation.grid_serve_j[bs_rows] + allocation.grid_charge_j[bs_rows]
        low_draw, _ = pricer.draw(mu_star - eps)
        p_plus = seq_sum(high_draw)
        p_minus = seq_sum(low_draw)

        if cost.a > 0:
            p_target = min(max(cost.inverse_derivative(mu_star), p_plus), p_minus)
        else:
            p_target = p_plus

        extra = p_target - p_plus
        if extra > _ENERGY_TOL:
            # Marginal repair: the few stations whose draw jumps across
            # mu* absorb the interior allocation (z < 0 handled exactly;
            # the z >= 0 corner cannot occur with the paper's huge
            # V*gamma_max shift, and keeps the vertex solution).
            gap = low_draw - high_draw
            for j in np.flatnonzero((gap > _ENERGY_TOL) & (stations.z < 0)):
                take = min(float(gap[j]), extra)
                _allocation_given_grid(
                    batch, int(bs_rows[j]), float(high_draw[j]) + take, allocation
                )
                extra -= take
                if extra <= _ENERGY_TOL:
                    break
        return allocation

    def _price_fixed_point(
        self, stations: NodeEnergyBatch, pricer: _StationPricer, cost: QuadraticCost
    ) -> float:
        """Bisect the station price ``mu`` with ``mu = f'(P(mu))``.

        Fleets of at most ``_SCALAR_PRICING_MAX`` stations sum the
        residual as Python floats.  Larger ones run :class:`_InPlayResidual`
        over ``pricer`` (the slot's pricer of ``stations``), which prices
        only the stations still in play at each midpoint.  Both sum the
        whole fleet's draws in row order, so ``mu`` is the same either
        way, and the same as pricing every station every time.
        """
        cap = seq_sum(stations.usable_grid_j)
        mu_lo = cost.derivative(0.0)
        mu_hi = cost.derivative(cap) + max(1.0, cost.derivative(cap)) * 1e-6
        v = self._v
        if len(stations) <= _SCALAR_PRICING_MAX:
            rows = list(
                zip(
                    stations.demand_j.tolist(),
                    stations.renewable_j.tolist(),
                    stations.usable_grid_j.tolist(),
                    stations.charge_cap_j.tolist(),
                    stations.discharge_cap_j.tolist(),
                    stations.z.tolist(),
                    stations.charge_efficiency.tolist(),
                    stations.discharge_efficiency.tolist(),
                )
            )

            def residual(mu: float) -> float:
                price = v * mu
                draw = sum(_quadratic_grid_draw_j(*row, price) for row in rows)
                return mu - cost.derivative(draw)

            return bisect_root(residual, mu_lo, mu_hi, tol=_PRICE_BISECT_TOL)

        return bisect_root(_InPlayResidual(pricer, cost), mu_lo, mu_hi, tol=_PRICE_BISECT_TOL)
