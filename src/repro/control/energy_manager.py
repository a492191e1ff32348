"""S4 — energy management (Section IV-C-4).

Minimises ``Psi-hat_4 = sum_i z_i (c_i - d_i) + V f(P)`` subject to the
energy constraints (9)-(14), where ``P = sum_{b in BS} (g_b + c^g_b)``
is the total base-station grid draw.  Three solvers:

* ``PRICE_DECOMPOSITION`` (default) — exact for the paper's strictly
  convex quadratic ``f``: nodes respond optimally to a marginal grid
  price ``mu``; bisection finds the fixed point ``mu = f'(P(mu))``;
  a marginal-node repair step handles the staircase discontinuity of
  ``P(mu)`` so interior optima (partial charging) are recovered.
* ``SLSQP`` — scipy general-purpose NLP over all node variables,
  used as a cross-check in the test suite.
* ``GRID_ONLY`` — a naive baseline: renewables serve demand, the grid
  covers the rest, the battery is never used.

Deviation from the paper noted in DESIGN.md: Eq. (3) forces the
renewable output to be fully consumed (``R = r + c^r``), which is
infeasible whenever the battery is full and demand is low; we allow
spilling (``r + c^r <= R``) and report the spilled energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import optimize

from repro.axes import NodeJoules, NodeVec
from repro.constants import FEASIBILITY_EPS
from repro.contracts import ContractChecker
from repro.core.arraystate import seq_sum
from repro.control.decisions import EnergyManagementDecision, NodeEnergyAllocation
from repro.energy.cost import QuadraticCost
from repro.exceptions import InfeasibleError, SolverError
from repro.model import NetworkModel
from repro.solvers.bisection import bisect_root, bisect_root_vec
from repro.types import EnergySolverKind, NodeId
from repro.units import DollarsPerJoule, Joules

#: Bisection bracket tolerance: must be far below the +/- probe offset
#: used by the marginal repair step, or both probes can land on the
#: same side of a response discontinuity and miss the interior optimum.
_PRICE_BISECT_TOL = 1e-10
#: Relative +/- probe offset around the fixed-point price.
_PRICE_PROBE_REL = 1e-3

#: Station-fleet size at or below which the batched solver prices base
#: stations through the scalar kernel: each vectorized residual step
#: costs ~30 numpy dispatches regardless of row count, so tiny fleets
#: are faster as Python floats (the float64 chains are identical).
_SCALAR_PRICING_MAX = 8
_ENERGY_TOL = 1e-6


@dataclass(frozen=True)
class NodeEnergyInputs:
    """Everything S4 needs to know about one node for one slot.

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
    """Struct-of-arrays form of a ``List[NodeEnergyInputs]``.

    Row ``i`` holds the same fields as ``inputs[i]`` would; the batched
    S4 kernels run one vectorized pass over these arrays instead of one
    convex program per node.  Rows keep the caller's input order (the
    controller passes nodes ``0..N-1``), which fixes the allocation
    dict's insertion order and every sequential reduction — both must
    match the scalar path bit for bit.
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

    def __len__(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def usable_grid_j(self) -> NodeJoules:
        """Grid supply available this slot (0 where disconnected)."""
        return np.where(self.grid_connected, self.grid_cap_j, 0.0)

    @property
    def max_supply_j(self) -> NodeJoules:
        """Most demand each node could possibly serve this slot."""
        return self.renewable_j + self.usable_grid_j + self.discharge_cap_j

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

    def row(self, i: int) -> NodeEnergyInputs:
        """Materialise row ``i`` as a scalar :class:`NodeEnergyInputs`."""
        return NodeEnergyInputs(
            node=int(self.nodes[i]),
            is_base_station=bool(self.is_base_station[i]),
            demand_j=float(self.demand_j[i]),
            renewable_j=float(self.renewable_j[i]),
            grid_connected=bool(self.grid_connected[i]),
            grid_cap_j=float(self.grid_cap_j[i]),
            charge_cap_j=float(self.charge_cap_j[i]),
            discharge_cap_j=float(self.discharge_cap_j[i]),
            z=float(self.z[i]),
            charge_efficiency=float(self.charge_efficiency[i]),
            discharge_efficiency=float(self.discharge_efficiency[i]),
        )

    def to_inputs(self) -> List[NodeEnergyInputs]:
        """Materialise the whole batch (scalar-solver fallback path)."""
        return [self.row(i) for i in range(len(self))]

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


@dataclass
class BatchAllocation:
    """Struct-of-arrays S4 allocation (one row per batch row)."""

    renewable_serve_j: NodeJoules
    renewable_charge_j: NodeJoules
    grid_serve_j: NodeJoules
    grid_charge_j: NodeJoules
    discharge_j: NodeJoules
    spill_j: NodeJoules

    @property
    def grid_draw_j(self) -> NodeJoules:
        """Total grid draw ``g_i + c^g_i`` per row (constraint 14)."""
        return self.grid_serve_j + self.grid_charge_j

    def row(self, i: int) -> NodeEnergyAllocation:
        """Materialise row ``i`` as a scalar allocation."""
        return NodeEnergyAllocation(
            renewable_serve_j=float(self.renewable_serve_j[i]),
            renewable_charge_j=float(self.renewable_charge_j[i]),
            grid_serve_j=float(self.grid_serve_j[i]),
            grid_charge_j=float(self.grid_charge_j[i]),
            discharge_j=float(self.discharge_j[i]),
            spill_j=float(self.spill_j[i]),
        )


def _batched_serve_mode(
    batch: NodeEnergyBatch, grid_price: NodeVec
) -> Tuple[BatchAllocation, NodeVec]:
    """Vectorized :func:`_quadratic_serve_mode` (exact-drift only).

    The per-node objective ``-z (d/eta_d) + (d/eta_d)^2/2 + price * g``
    is strictly convex in the delivered discharge ``d``, so its
    constrained minimiser is the stationary point clamped to the
    feasible box — exactly the candidate the scalar solver's
    evaluate-every-kink ``min`` selects, computed without the per-node
    Python loop.  Every elementwise float64 operation replicates the
    scalar chain, so allocations agree bit for bit.
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


def _batched_charge_mode(
    batch: NodeEnergyBatch, grid_price: NodeVec
) -> Tuple[BatchAllocation, NodeVec, NodeVec]:
    """Vectorized :func:`_quadratic_charge_mode` (exact-drift only).

    The objective is convex piecewise quadratic in the charge input
    ``c`` with one kink (where the grid starts funding the charge);
    its unconstrained minimiser is the kink clamped between the two
    stationary points, and the constrained minimiser clamps that to
    ``[0, hi]`` — again exactly the scalar candidate ``min``.  Returns
    ``(allocation, objective, feasible)``; rows with ``feasible`` False
    correspond to the scalar solver returning None (demand cannot be
    met without discharging) and carry unspecified values.
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
    # Unconstrained minimiser of the two-piece convex objective, then
    # clamped to the box (grid_price >= 0 makes the grid-funded
    # stationary point the smaller of the two).
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


def _batched_node_response(
    batch: NodeEnergyBatch, mu: float, control_v: float
) -> Tuple[BatchAllocation, NodeVec]:
    """Vectorized :func:`_node_response` for the exact-drift objective.

    Solves every row's closed-form KKT system at marginal grid price
    ``mu`` in one pass: both modes are evaluated batched and the
    per-row winner selected by the same ``serve <= charge`` comparison
    as the scalar solver.  Users never contribute to ``P(t)``, so their
    effective grid price is zero.
    """
    grid_price = np.where(batch.is_base_station, control_v * mu, 0.0)
    serve_alloc, serve_obj = _batched_serve_mode(batch, grid_price)
    charge_alloc, charge_obj, charge_ok = _batched_charge_mode(batch, grid_price)
    serve_wins = ~charge_ok | (serve_obj <= charge_obj)

    def pick(serve_field: np.ndarray, charge_field: np.ndarray) -> np.ndarray:
        return np.where(serve_wins, serve_field, charge_field)

    allocation = BatchAllocation(
        renewable_serve_j=pick(
            serve_alloc.renewable_serve_j, charge_alloc.renewable_serve_j
        ),
        renewable_charge_j=pick(
            serve_alloc.renewable_charge_j, charge_alloc.renewable_charge_j
        ),
        grid_serve_j=pick(serve_alloc.grid_serve_j, charge_alloc.grid_serve_j),
        grid_charge_j=pick(
            serve_alloc.grid_charge_j, charge_alloc.grid_charge_j
        ),
        discharge_j=pick(serve_alloc.discharge_j, charge_alloc.discharge_j),
        spill_j=pick(serve_alloc.spill_j, charge_alloc.spill_j),
    )
    return allocation, np.where(serve_wins, serve_obj, charge_obj)


def _batched_grid_draw_j(
    batch: NodeEnergyBatch, mu: float, control_v: float
) -> NodeVec:
    """Grid draw of :func:`_batched_node_response` without the allocation.

    The bisection residual only needs ``sum grid_draw_j(mu)``, so this
    re-derives exactly the picked ``grid_serve + grid_charge`` rows —
    every elementwise float64 operation is the same chain as the full
    kernel (mode objectives included), just skipping the six-field
    :class:`BatchAllocation` assembly and the infeasibility scan (the
    caller's pre-check already guarantees feasible serve boxes).
    """
    grid_price = np.where(batch.is_base_station, control_v * mu, 0.0)
    demand, renewable = batch.demand_j, batch.renewable_j
    grid = batch.usable_grid_j
    z = batch.z

    # Serve mode (same chain as _batched_serve_mode).
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

    # Charge mode (same chain as _batched_charge_mode).
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

    # Winner rows: grid_serve + grid_charge exactly as the pick() sums.
    serve_wins = ~charge_ok | (serve_obj <= charge_obj)
    return np.where(serve_wins, g_serve + 0.0, (demand - r_serve) + g_charge)


def _serve_mode_allocation(
    inputs: NodeEnergyInputs, grid_price: DollarsPerJoule
) -> Tuple[NodeEnergyAllocation, float]:
    """Discharge-mode optimum: serve demand, never charge.

    Fills demand from the three sources in ascending unit cost
    (renewable: 0, discharge: ``-z / eta_d`` per delivered joule, grid:
    ``grid_price``) and returns the allocation with its ``Psi-hat_4``
    contribution (minus the ``V f(P)`` coupling term).
    """
    sources = sorted(
        [
            ("r", 0.0, min(inputs.renewable_j, inputs.demand_j)),
            (
                "d",
                -inputs.z / inputs.discharge_efficiency,
                inputs.discharge_cap_j,
            ),
            ("g", grid_price, inputs.usable_grid_j),
        ],
        key=lambda item: item[1],
    )
    remaining = inputs.demand_j
    amounts = {"r": 0.0, "d": 0.0, "g": 0.0}
    objective = 0.0
    for name, unit_cost, cap in sources:
        take = min(remaining, cap)
        if take > 0:
            amounts[name] = take
            objective += unit_cost * take
            remaining -= take
    if remaining > _ENERGY_TOL:
        raise InfeasibleError(
            f"node {inputs.node}: demand {inputs.demand_j} J exceeds max "
            f"supply {inputs.max_supply_j} J (curtailment missing upstream)"
        )
    allocation = NodeEnergyAllocation(
        renewable_serve_j=amounts["r"],
        grid_serve_j=amounts["g"],
        discharge_j=amounts["d"],
        spill_j=inputs.renewable_j - amounts["r"],
    )
    return allocation, objective


def _charge_mode_allocation(
    inputs: NodeEnergyInputs, grid_price: DollarsPerJoule
) -> Tuple[NodeEnergyAllocation, float] | None:
    """Charge-mode optimum: serve demand without discharging, charge.

    The only free variable after eliminating the balance equations is
    ``rE`` (renewable energy serving demand); the objective is
    piecewise linear in ``rE``, so evaluating it at every kink and
    endpoint is exact.  Returns None when demand cannot be met without
    discharging.
    """
    supply = inputs.renewable_j + inputs.usable_grid_j
    if inputs.demand_j > supply + _ENERGY_TOL:
        return None

    lo = max(0.0, inputs.demand_j - inputs.usable_grid_j)
    hi = min(inputs.renewable_j, inputs.demand_j)
    if lo > hi + _ENERGY_TOL:
        return None
    hi = max(lo, hi)

    z = inputs.z
    ccap = inputs.charge_cap_j
    eta_c = inputs.charge_efficiency
    want_grid_charge = inputs.grid_connected and (z * eta_c + grid_price) < 0.0

    def evaluate(r_serve: float) -> Tuple[float, NodeEnergyAllocation]:
        g_serve = inputs.demand_j - r_serve
        r_charge = min(inputs.renewable_j - r_serve, ccap) if z < 0 else 0.0
        r_charge = max(0.0, r_charge)
        g_charge = 0.0
        if want_grid_charge:
            g_charge = max(
                0.0,
                min(inputs.usable_grid_j - g_serve, ccap - r_charge),
            )
        objective = (
            grid_price * g_serve
            + z * eta_c * r_charge
            + (z * eta_c + grid_price) * g_charge
        )
        allocation = NodeEnergyAllocation(
            renewable_serve_j=r_serve,
            renewable_charge_j=r_charge,
            grid_serve_j=g_serve,
            grid_charge_j=g_charge,
            spill_j=inputs.renewable_j - r_serve - r_charge,
        )
        return objective, allocation

    candidates = {lo, hi}
    for kink in (
        inputs.renewable_j - ccap,  # renewable-charge cap switch
        inputs.demand_j - inputs.usable_grid_j + ccap,  # grid-charge room
    ):
        if lo < kink < hi:
            candidates.add(kink)

    best = min((evaluate(r) for r in candidates), key=lambda pair: pair[0])
    return best[1], best[0]


def _quadratic_charge_mode(
    inputs: NodeEnergyInputs, grid_price: DollarsPerJoule
) -> Tuple[NodeEnergyAllocation, float] | None:
    """Exact-drift charge mode.

    Minimises ``z (eta_c c) + (eta_c c)^2 / 2 + price * grid`` over the
    charge *input* ``c``.  With the quadratic self-term the objective
    is convex piecewise quadratic in ``c`` with one kink (where the
    grid starts funding the charge), so evaluating the clamped
    stationary points and the kink is exact.  Returns None when demand
    cannot be met without discharging.
    """
    demand, renewable = inputs.demand_j, inputs.renewable_j
    grid = inputs.usable_grid_j
    if demand > renewable + grid + _ENERGY_TOL:
        return None
    z = inputs.z
    eta_c = inputs.charge_efficiency
    hi = min(inputs.charge_cap_j, renewable + grid - demand)
    hi = max(hi, 0.0)

    candidates = {0.0, hi}
    kink = renewable - demand  # beyond this, charging draws the grid
    stationary_free = -z / eta_c
    stationary_grid = -z / eta_c - grid_price / (eta_c * eta_c)
    for point in (stationary_free, stationary_grid, kink):
        if 0.0 < point < hi:
            candidates.add(point)

    def evaluate(c: float) -> Tuple[float, NodeEnergyAllocation]:
        grid_draw = max(0.0, demand + c - renewable)
        stored = eta_c * c
        objective = z * stored + 0.5 * stored * stored + grid_price * grid_draw
        r_serve = min(renewable, demand)
        g_serve = demand - r_serve
        r_charge = min(renewable - r_serve, c)
        g_charge = c - r_charge
        allocation = NodeEnergyAllocation(
            renewable_serve_j=r_serve,
            renewable_charge_j=r_charge,
            grid_serve_j=g_serve,
            grid_charge_j=g_charge,
            spill_j=renewable - r_serve - r_charge,
        )
        return objective, allocation

    best = min((evaluate(c) for c in candidates), key=lambda pair: pair[0])
    return best[1], best[0]


def _quadratic_serve_mode(
    inputs: NodeEnergyInputs, grid_price: DollarsPerJoule
) -> Tuple[NodeEnergyAllocation, float]:
    """Exact-drift discharge mode.

    Minimises ``-z (d/eta_d) + (d/eta_d)^2 / 2 + price * grid`` over
    the *delivered* discharge ``d`` (the battery drains ``d / eta_d``).
    Convex quadratic in ``d`` on the feasible interval, so the clamped
    stationary point is exact.
    """
    demand, renewable = inputs.demand_j, inputs.renewable_j
    grid = inputs.usable_grid_j
    z = inputs.z
    eta_d = inputs.discharge_efficiency
    r_serve = min(renewable, demand)
    residual = demand - r_serve

    d_min = max(0.0, residual - grid)
    d_max = min(inputs.discharge_cap_j, residual)
    if d_min > d_max + _ENERGY_TOL:
        raise InfeasibleError(
            f"node {inputs.node}: demand {demand} J exceeds max supply "
            f"{inputs.max_supply_j} J (curtailment missing upstream)"
        )
    d_max = max(d_min, d_max)

    candidates = {d_min, d_max}
    stationary = eta_d * z + eta_d * eta_d * grid_price
    if d_min < stationary < d_max:
        candidates.add(stationary)

    def evaluate(d: float) -> Tuple[float, NodeEnergyAllocation]:
        g_serve = residual - d
        drained = d / eta_d
        objective = -z * drained + 0.5 * drained * drained + grid_price * g_serve
        allocation = NodeEnergyAllocation(
            renewable_serve_j=r_serve,
            grid_serve_j=g_serve,
            discharge_j=d,
            spill_j=renewable - r_serve,
        )
        return objective, allocation

    best = min((evaluate(d) for d in candidates), key=lambda pair: pair[0])
    return best[1], best[0]


def _quadratic_grid_draw_j(
    inputs: NodeEnergyInputs, mu: float, control_v: float
) -> float:
    """Grid draw of :func:`_node_response` (exact drift), allocation-free.

    Scalar transcription of :func:`_batched_grid_draw_j` for one row:
    the same closed-form KKT chain the quadratic modes evaluate, kept
    operation-for-operation identical so the bisection residual built
    on it reproduces the full solver's draws bit for bit — without
    constructing two candidate allocations per probe.
    """
    grid_price = control_v * mu if inputs.is_base_station else 0.0
    demand, renewable = inputs.demand_j, inputs.renewable_j
    grid = inputs.usable_grid_j
    z = inputs.z

    # Serve mode (chain of _quadratic_serve_mode at the clipped optimum).
    eta_d = inputs.discharge_efficiency
    r_serve = min(renewable, demand)
    residual = demand - r_serve
    d_min = max(0.0, residual - grid)
    d_max = max(d_min, min(inputs.discharge_cap_j, residual))
    stationary = eta_d * z + eta_d * eta_d * grid_price
    d = min(max(stationary, d_min), d_max)
    g_serve = residual - d
    drained = d / eta_d
    serve_obj = -z * drained + 0.5 * drained * drained + grid_price * g_serve

    # Charge mode (chain of _quadratic_charge_mode at the clipped optimum).
    eta_c = inputs.charge_efficiency
    charge_ok = not demand > renewable + grid + _ENERGY_TOL
    hi = max(min(inputs.charge_cap_j, renewable + grid - demand), 0.0)
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


def _node_response(
    inputs: NodeEnergyInputs,
    mu: float,
    control_v: float,
    exact_drift: bool = False,
) -> Tuple[NodeEnergyAllocation, float]:
    """Optimal allocation of one node facing marginal grid price ``mu``.

    Users never contribute to ``P(t)`` (the provider only pays for
    base-station draws), so their effective grid price is zero.
    """
    grid_price = control_v * mu if inputs.is_base_station else 0.0
    if exact_drift:
        serve = _quadratic_serve_mode(inputs, grid_price)
        charge = _quadratic_charge_mode(inputs, grid_price)
    else:
        serve = _serve_mode_allocation(inputs, grid_price)
        charge = _charge_mode_allocation(inputs, grid_price)
    if charge is None or serve[1] <= charge[1]:
        return serve
    return charge


def _allocation_given_grid(
    inputs: NodeEnergyInputs, grid_draw_j: Joules, exact_drift: bool = False
) -> NodeEnergyAllocation:
    """Node-optimal allocation with total grid draw pinned (``z < 0``).

    Used by the marginal-node repair step: for a node with ``z < 0``
    the optimum given a grid budget ``p`` maximises charging — demand
    is covered by renewable + grid first (discharging only to fill any
    gap), and all leftovers charge the battery up to its cap (in
    exact-drift mode additionally capped at ``-z``, where the quadratic
    drift term turns charging unprofitable).
    """
    p = min(grid_draw_j, inputs.usable_grid_j)
    shortfall = max(0.0, inputs.demand_j - inputs.renewable_j - p)
    discharge = min(shortfall, inputs.discharge_cap_j)
    if shortfall > discharge + _ENERGY_TOL:
        raise InfeasibleError(
            f"node {inputs.node}: grid budget {p} J cannot meet demand"
        )
    r_serve = min(inputs.renewable_j, inputs.demand_j - discharge)
    g_serve = inputs.demand_j - discharge - r_serve
    headroom = inputs.charge_cap_j if discharge <= _ENERGY_TOL else 0.0
    if exact_drift:
        # The quadratic drift makes charging unprofitable past a
        # stored level of -z, i.e. an input of -z / eta_c.
        headroom = min(
            headroom, max(0.0, -inputs.z) / inputs.charge_efficiency
        )
    r_charge = min(inputs.renewable_j - r_serve, headroom)
    g_charge = min(p - g_serve, headroom - r_charge)
    r_charge = max(0.0, r_charge)
    g_charge = max(0.0, g_charge)
    return NodeEnergyAllocation(
        renewable_serve_j=r_serve,
        renewable_charge_j=r_charge,
        grid_serve_j=g_serve,
        grid_charge_j=g_charge,
        discharge_j=discharge,
        spill_j=inputs.renewable_j - r_serve - r_charge,
    )


class EnergyManager:
    """The S4 subproblem solver."""

    def __init__(
        self,
        model: NetworkModel,
        kind: EnergySolverKind = EnergySolverKind.PRICE_DECOMPOSITION,
        exact_drift: Optional[bool] = None,
        checker: Optional[ContractChecker] = None,
        cross_check: bool = False,
        cross_check_tol: float = 1e-8,
    ) -> None:
        self._model = model
        self._kind = kind
        self._v = model.params.control_v
        if exact_drift is None:
            exact_drift = model.params.exact_battery_drift
        self._exact_drift = exact_drift
        self._checker = checker
        self._cross_check = cross_check
        self._cross_check_tol = cross_check_tol

    def attach_contracts(self, checker: ContractChecker) -> None:
        """Validate every S4 allocation against Eqs. 3 and 9-14."""
        self._checker = checker

    @property
    def exact_drift(self) -> bool:
        """Whether S4 minimises the exact quadratic battery drift."""
        return self._exact_drift

    @property
    def kind(self) -> EnergySolverKind:
        """The configured solver."""
        return self._kind

    def manage(
        self,
        inputs: Union[List[NodeEnergyInputs], NodeEnergyBatch],
        cost: Optional[QuadraticCost] = None,
    ) -> EnergyManagementDecision:
        """Solve S4 for one slot over all nodes.

        Args:
            inputs: per-node demand/supply state — either a list of
                scalar :class:`NodeEnergyInputs` (standalone callers,
                the SLSQP and grid-only solvers) or the
                :class:`NodeEnergyBatch` struct-of-arrays the
                controller passes, which unlocks the closed-form
                vectorized kernel for the exact-drift price
                decomposition (other solver/drift combinations fall
                back to the scalar path on materialised rows).
            cost: the slot's generation cost function; defaults to the
                model's flat tariff (time-of-use callers pass
                ``model.cost_at(slot)``).
        """
        if cost is None:
            cost = self._model.cost
        if isinstance(inputs, NodeEnergyBatch):
            if (
                self._kind is EnergySolverKind.PRICE_DECOMPOSITION
                and self._exact_drift
            ):
                return self._manage_batched(inputs, cost)
            inputs = inputs.to_inputs()
        for node_inputs in inputs:
            if node_inputs.demand_j > node_inputs.max_supply_j + _ENERGY_TOL:
                raise InfeasibleError(
                    f"node {node_inputs.node}: demand {node_inputs.demand_j} J "
                    f"exceeds max supply {node_inputs.max_supply_j} J; the "
                    "controller's curtailment pass must run first"
                )
        if self._kind is EnergySolverKind.PRICE_DECOMPOSITION:
            allocations = self._solve_price_decomposition(inputs, cost)
            if self._cross_check:
                self._cross_check_slsqp(inputs, allocations, cost)
        elif self._kind is EnergySolverKind.SLSQP:
            allocations = self._solve_slsqp(inputs, cost)
        else:
            allocations = self._solve_grid_only(inputs)
        bs_set = {n.node for n in inputs if n.is_base_station}
        decision = self._assemble(allocations, bs_set, cost)
        if self._checker is not None and self._checker.enabled:
            self._checker.check_energy(inputs, decision)
        return decision

    def _manage_batched(
        self, batch: NodeEnergyBatch, cost: QuadraticCost
    ) -> EnergyManagementDecision:
        """Array fast path of :meth:`manage` (exact-drift KKT kernel)."""
        over = batch.demand_j > batch.max_supply_j + _ENERGY_TOL
        if np.any(over):
            i = int(np.argmax(over))
            raise InfeasibleError(
                f"node {int(batch.nodes[i])}: demand {batch.demand_j[i]} J "
                f"exceeds max supply {batch.max_supply_j[i]} J; the "
                "controller's curtailment pass must run first"
            )
        allocations = self._solve_price_decomposition_batched(batch, cost)
        if self._cross_check:
            self._cross_check_slsqp(batch.to_inputs(), allocations, cost)
        bs_set = {int(n) for n in batch.nodes[batch.is_base_station]}
        decision = self._assemble(allocations, bs_set, cost)
        if self._checker is not None and self._checker.enabled:
            self._checker.check_energy(batch.to_inputs(), decision)
        return decision

    def _assemble(
        self,
        allocations: Dict[NodeId, NodeEnergyAllocation],
        bs_set: set,
        cost: QuadraticCost,
    ) -> EnergyManagementDecision:
        total_draw = sum(
            alloc.grid_draw_j for node, alloc in allocations.items() if node in bs_set
        )
        return EnergyManagementDecision(
            allocations=allocations,
            bs_grid_draw_j=total_draw,
            cost=cost.value(total_draw),
        )

    # ------------------------------------------------------------------
    # Price decomposition
    # ------------------------------------------------------------------

    def _solve_price_decomposition(
        self, inputs: List[NodeEnergyInputs], cost: QuadraticCost
    ) -> Dict[NodeId, NodeEnergyAllocation]:
        users = [n for n in inputs if not n.is_base_station]
        stations = [n for n in inputs if n.is_base_station]

        allocations: Dict[NodeId, NodeEnergyAllocation] = {}
        for node_inputs in users:  # noqa: R040 - list-input path of manage (unit tests, SLSQP cross-checks, the energy ablation bench); the slot loop passes a NodeEnergyBatch and batches users through _batched_node_response
            allocations[node_inputs.node], _ = _node_response(
                node_inputs, 0.0, self._v, self._exact_drift
            )
        if stations:
            self._price_stations(stations, cost, allocations)
        return allocations

    def _price_stations(
        self,
        stations: List[NodeEnergyInputs],
        cost: QuadraticCost,
        allocations: Dict[NodeId, NodeEnergyAllocation],
    ) -> None:
        """Scalar station-pricing fixed point ``mu = f'(P(mu))``.

        Shared by the reference solver and the batched solver's
        small-fleet fallback: with only a handful of base stations the
        per-iteration numpy dispatch of the vectorized residual costs
        more than pricing the rows as Python floats, and the float64
        chains are identical either way.  Appends the station rows to
        ``allocations`` in input order.
        """

        if self._exact_drift:
            # Closed-form residual: same float64 chain as the full
            # response, minus the per-probe allocation objects.
            def bs_total_draw(mu: float) -> float:
                return sum(
                    _quadratic_grid_draw_j(n, mu, self._v) for n in stations
                )
        else:
            def bs_total_draw(mu: float) -> float:
                return sum(
                    _node_response(n, mu, self._v, self._exact_drift)[
                        0
                    ].grid_draw_j
                    for n in stations
                )

        cap = sum(n.usable_grid_j for n in stations)
        mu_lo = cost.derivative(0.0)
        mu_hi = cost.derivative(cap) + max(1.0, cost.derivative(cap)) * 1e-6
        mu_star = bisect_root(
            lambda mu: mu - cost.derivative(bs_total_draw(mu)),
            mu_lo,
            mu_hi,
            tol=_PRICE_BISECT_TOL,
        )

        eps = max(abs(mu_star), mu_lo, 1e-9) * _PRICE_PROBE_REL
        high_side = {
            n.node: _node_response(n, mu_star + eps, self._v, self._exact_drift)[0]
            for n in stations
        }
        low_side = {
            n.node: _node_response(n, mu_star - eps, self._v, self._exact_drift)[0]
            for n in stations
        }
        p_plus = sum(a.grid_draw_j for a in high_side.values())
        p_minus = sum(a.grid_draw_j for a in low_side.values())

        if cost.a > 0:
            p_target = min(max(cost.inverse_derivative(mu_star), p_plus), p_minus)
        else:
            p_target = p_plus

        extra = p_target - p_plus
        for node_inputs in stations:
            allocations[node_inputs.node] = high_side[node_inputs.node]
        if extra > _ENERGY_TOL:
            # Marginal repair: nodes whose draw differs across mu* can
            # absorb the interior allocation (z < 0 handled exactly;
            # the z >= 0 corner cannot occur with the paper's huge
            # V*gamma_max shift, and falls back to the vertex solution).
            for node_inputs in stations:
                gap = (
                    low_side[node_inputs.node].grid_draw_j
                    - high_side[node_inputs.node].grid_draw_j
                )
                if gap <= _ENERGY_TOL or extra <= _ENERGY_TOL:
                    continue
                if node_inputs.z >= 0:
                    continue
                take = min(gap, extra)
                target_draw = high_side[node_inputs.node].grid_draw_j + take
                allocations[node_inputs.node] = _allocation_given_grid(
                    node_inputs, target_draw, self._exact_drift
                )
                extra -= take

    def _solve_price_decomposition_batched(
        self, batch: NodeEnergyBatch, cost: QuadraticCost
    ) -> Dict[NodeId, NodeEnergyAllocation]:
        """Closed-form vectorized price decomposition (exact drift).

        One batched KKT pass replaces the per-node convex programs: the
        user rows respond at price zero in a single kernel call, and the
        base-station fixed point ``mu = f'(P(mu))`` is found by
        :func:`bisect_root_vec` where every residual evaluation prices
        *all* stations simultaneously.  The float64 operation chains
        replicate the scalar solver exactly, so the allocation dict is
        bit-identical to :meth:`_solve_price_decomposition` on the same
        rows — insertion order included (users first, then stations).
        """
        user_rows = np.flatnonzero(~batch.is_base_station)
        bs_rows = np.flatnonzero(batch.is_base_station)
        allocations: Dict[NodeId, NodeEnergyAllocation] = {}
        if user_rows.size:
            users = batch.take(user_rows)
            user_alloc, _ = _batched_node_response(users, 0.0, self._v)
            for j in range(len(users)):  # noqa: R040 - decision-dict materialisation from the batched kernel: one dataclass per node, no per-node solves
                allocations[int(users.nodes[j])] = user_alloc.row(j)
        if not bs_rows.size:
            return allocations
        stations = batch.take(bs_rows)
        if bs_rows.size <= _SCALAR_PRICING_MAX:
            # With a handful of stations the numpy dispatch per
            # bisection step dominates: price the rows as floats
            # through the shared scalar kernel (same bits).
            self._price_stations(stations.to_inputs(), cost, allocations)
            return allocations

        def residual(mu_vec: np.ndarray) -> np.ndarray:
            mu = float(mu_vec[0])
            draw = float(seq_sum(_batched_grid_draw_j(stations, mu, self._v)))
            return np.array([mu - cost.derivative(draw)])

        cap = float(seq_sum(stations.usable_grid_j))
        mu_lo = cost.derivative(0.0)
        mu_hi = cost.derivative(cap) + max(1.0, cost.derivative(cap)) * 1e-6
        mu_star = float(
            bisect_root_vec(
                residual,
                np.array([mu_lo]),
                np.array([mu_hi]),
                tol=_PRICE_BISECT_TOL,
            )[0]
        )

        eps = max(abs(mu_star), mu_lo, 1e-9) * _PRICE_PROBE_REL
        high_alloc, _ = _batched_node_response(stations, mu_star + eps, self._v)
        low_alloc, _ = _batched_node_response(stations, mu_star - eps, self._v)
        high_draw = high_alloc.grid_draw_j
        low_draw = low_alloc.grid_draw_j
        p_plus = float(seq_sum(high_draw))
        p_minus = float(seq_sum(low_draw))

        if cost.a > 0:
            p_target = min(max(cost.inverse_derivative(mu_star), p_plus), p_minus)
        else:
            p_target = p_plus

        extra = p_target - p_plus
        for j in range(len(stations)):  # noqa: R040 - decision-dict materialisation from the batched kernel: one dataclass per node, no per-node solves
            allocations[int(stations.nodes[j])] = high_alloc.row(j)
        if extra > _ENERGY_TOL:
            # Marginal repair (same staircase logic as the scalar
            # solver): only the few stations whose draw jumps across
            # mu* are touched, so the scalar helper is fine here.
            for j in range(len(stations)):
                gap = float(low_draw[j]) - float(high_draw[j])
                if gap <= _ENERGY_TOL or extra <= _ENERGY_TOL:
                    continue
                if stations.z[j] >= 0:
                    continue
                take = min(gap, extra)
                target_draw = float(high_draw[j]) + take
                allocations[int(stations.nodes[j])] = _allocation_given_grid(
                    stations.row(j), target_draw, self._exact_drift
                )
                extra -= take
        return allocations

    def _cross_check_slsqp(
        self,
        inputs: List[NodeEnergyInputs],
        allocations: Dict[NodeId, NodeEnergyAllocation],
        cost: QuadraticCost,
    ) -> None:
        """Opt-in audit: assert agreement with the SLSQP reference.

        Compares the physically determined per-node aggregates — grid
        draw ``g + c^g``, delivered discharge ``d``, and total charge
        input ``c^r + c^g`` — rather than the raw five-way split, which
        is degenerate (shifting grid energy between serve and charge
        with renewable compensating leaves the objective unchanged).
        Raises :class:`SolverError` on disagreement beyond
        ``cross_check_tol`` relative to the node's supply scale.

        SLSQP is warm-started *at the candidate allocation*: from a
        cold start its ``ftol`` termination only locates the argmin of
        a quadratic to ~sqrt(ftol), far looser than the 1e-8 default
        here.  Started at a true KKT point it stays put (bit-level
        agreement); started at a suboptimal point the line search walks
        away from it and the comparison fails — exactly the audit we
        want.
        """
        warm = np.zeros(len(inputs) * 5)
        for idx, node_inputs in enumerate(inputs):
            mine = allocations[node_inputs.node]
            warm[idx * 5 : idx * 5 + 5] = (
                mine.renewable_serve_j,
                mine.renewable_charge_j,
                mine.grid_serve_j,
                mine.grid_charge_j,
                mine.discharge_j,
            )
        reference = self._solve_slsqp(inputs, cost, warm_start=warm)
        tol = self._cross_check_tol
        for node_inputs in inputs:
            mine = allocations[node_inputs.node]
            ref = reference[node_inputs.node]
            denom = max(1.0, node_inputs.demand_j, node_inputs.max_supply_j)
            for name, a, b in (
                ("grid_draw_j", mine.grid_draw_j, ref.grid_draw_j),
                ("discharge_j", mine.discharge_j, ref.discharge_j),
                ("charge_j", mine.charge_j, ref.charge_j),
            ):
                if abs(a - b) > tol * denom:
                    raise SolverError(
                        f"S4 cross-check: node {node_inputs.node} {name} "
                        f"disagrees with SLSQP ({a} vs {b}, "
                        f"tol {tol * denom})"
                    )

    # ------------------------------------------------------------------
    # SLSQP cross-check solver
    # ------------------------------------------------------------------

    def _solve_slsqp(
        self,
        inputs: List[NodeEnergyInputs],
        cost: QuadraticCost,
        warm_start: Optional[np.ndarray] = None,
    ) -> Dict[NodeId, NodeEnergyAllocation]:
        """General-purpose NLP: variables [r, c_r, g, c_g, d] per node.

        Complementarity (9) is omitted from the relaxation because an
        equal-objective complementary point always exists (module docs
        in DESIGN.md); the returned allocation nets charge against
        discharge where both are positive.

        Args:
            warm_start: optional ``(5 n,)`` starting point (a feasible
                candidate allocation); defaults to the greedy
                r -> g -> d serve split.
        """
        n = len(inputs)
        if n == 0:
            return {}
        v = self._v

        def unpack(x: np.ndarray) -> np.ndarray:
            return x.reshape(n, 5)

        bs_mask = np.array([i.is_base_station for i in inputs])

        def total_draw(x: np.ndarray) -> float:
            vars_ = unpack(x)
            return float(np.sum((vars_[:, 2] + vars_[:, 3])[bs_mask]))

        z = np.array([i.z for i in inputs])
        # Normalise the objective: drift terms scale like |z| * caps,
        # which can be 1e8+, and SLSQP's line search stalls on badly
        # scaled problems.  Scaling does not move the argmin.
        scale = max(float(np.abs(z).max()), v * cost.derivative(0.0), 1.0)

        exact_drift = self._exact_drift
        eta_c = np.array([i.charge_efficiency for i in inputs])
        eta_d = np.array([i.discharge_efficiency for i in inputs])

        def objective(x: np.ndarray) -> float:
            vars_ = unpack(x)
            charge = vars_[:, 1] + vars_[:, 3]
            discharge = vars_[:, 4]
            # Level delta: eta_c * input charge - delivered / eta_d.
            net = eta_c * charge - discharge / eta_d
            raw = float(np.dot(z, net)) + v * cost.value(
                max(total_draw(x), 0.0)
            )
            if exact_drift:
                raw += 0.5 * float(np.dot(net, net))
            return raw / scale

        constraints = []
        for idx, node_inputs in enumerate(inputs):
            base = idx * 5

            def demand_balance(x: np.ndarray, b: int = base, e: float = node_inputs.demand_j) -> float:
                return x[b] + x[b + 2] + x[b + 4] - e

            def renewable_cap(x: np.ndarray, b: int = base, r: float = node_inputs.renewable_j) -> float:
                return r - x[b] - x[b + 1]

            def charge_cap(x: np.ndarray, b: int = base, c: float = node_inputs.charge_cap_j) -> float:
                return c - x[b + 1] - x[b + 3]

            def grid_cap(x: np.ndarray, b: int = base, p: float = node_inputs.usable_grid_j) -> float:
                return p - x[b + 2] - x[b + 3]

            constraints.append({"type": "eq", "fun": demand_balance})
            constraints.append({"type": "ineq", "fun": renewable_cap})
            constraints.append({"type": "ineq", "fun": charge_cap})
            constraints.append({"type": "ineq", "fun": grid_cap})

        bounds = []
        x0 = np.zeros(n * 5)
        for idx, node_inputs in enumerate(inputs):
            grid = node_inputs.usable_grid_j
            bounds.extend(
                [
                    (0.0, node_inputs.renewable_j),
                    (0.0, min(node_inputs.charge_cap_j, node_inputs.renewable_j)),
                    (0.0, grid),
                    (0.0, min(node_inputs.charge_cap_j, grid)),
                    (0.0, node_inputs.discharge_cap_j),
                ]
            )
            # Feasible start: serve demand greedily r -> g -> d.
            r = min(node_inputs.renewable_j, node_inputs.demand_j)
            g = min(grid, node_inputs.demand_j - r)
            d = node_inputs.demand_j - r - g
            x0[idx * 5 + 0] = r
            x0[idx * 5 + 2] = g
            x0[idx * 5 + 4] = max(0.0, d)

        result = None
        start = x0 if warm_start is None else warm_start
        for attempt in range(3):
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
        assert result is not None
        if not result.success:
            raise SolverError(f"SLSQP failed: {result.message}")

        vars_ = unpack(result.x)
        allocations: Dict[NodeId, NodeEnergyAllocation] = {}
        for idx, node_inputs in enumerate(inputs):
            r, c_r, g, c_g, d = (max(0.0, float(x)) for x in vars_[idx])
            # Net simultaneous charge/discharge (equal-objective shift).
            overlap = min(c_r + c_g, d)
            if overlap > FEASIBILITY_EPS:
                from_renewable = min(overlap, c_r)
                c_r -= from_renewable
                c_g -= overlap - from_renewable
                d -= overlap
                r = min(node_inputs.renewable_j, r + from_renewable)
            allocations[node_inputs.node] = NodeEnergyAllocation(
                renewable_serve_j=r,
                renewable_charge_j=c_r,
                grid_serve_j=g,
                grid_charge_j=c_g,
                discharge_j=d,
                spill_j=max(0.0, node_inputs.renewable_j - r - c_r),
            )
        return allocations

    # ------------------------------------------------------------------
    # Naive baseline
    # ------------------------------------------------------------------

    def _solve_grid_only(
        self, inputs: List[NodeEnergyInputs]
    ) -> Dict[NodeId, NodeEnergyAllocation]:
        """Renewables serve demand, grid covers the rest, no battery.

        Disconnected users with insufficient renewables fall back to
        the battery (forced discharge) so demand stays met.
        """
        allocations: Dict[NodeId, NodeEnergyAllocation] = {}
        for node_inputs in inputs:
            r = min(node_inputs.renewable_j, node_inputs.demand_j)
            g = min(node_inputs.usable_grid_j, node_inputs.demand_j - r)
            d = min(node_inputs.discharge_cap_j, node_inputs.demand_j - r - g)
            if node_inputs.demand_j - r - g - d > _ENERGY_TOL:
                raise InfeasibleError(
                    f"node {node_inputs.node}: grid-only policy cannot meet demand"
                )
            allocations[node_inputs.node] = NodeEnergyAllocation(
                renewable_serve_j=r,
                grid_serve_j=g,
                discharge_j=d,
                spill_j=node_inputs.renewable_j - r,
            )
        return allocations
