"""Per-slot metrics collection.

The collector records, for every slot, the quantities the paper's
figures plot — grid draw, generation cost, the P2-style penalty, queue
aggregates — plus library-specific diagnostics (deficits, curtailments,
spilled renewable energy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.control.decisions import BatchAllocation, SlotDecision
from repro.core.arraystate import seq_sum
from repro.queueing.backlog import BacklogSnapshot


@dataclass(frozen=True)
class EnergyFlows:
    """One slot's energy-flow breakdown for one node class (J).

    Attributes:
        renewable_used_j: harvested energy serving demand or charging.
        grid_serve_j: grid energy serving demand directly.
        grid_charge_j: grid energy charging batteries.
        discharge_j: battery energy delivered to demand.
        spill_j: harvested energy left unused.
    """

    renewable_used_j: float = 0.0
    grid_serve_j: float = 0.0
    grid_charge_j: float = 0.0
    discharge_j: float = 0.0
    spill_j: float = 0.0


def _aggregate_flows(allocation: BatchAllocation, rows: slice) -> EnergyFlows:
    """Sum one node class's flows over its ``rows`` in ascending node order."""
    return EnergyFlows(
        renewable_used_j=seq_sum(
            allocation.renewable_serve_j[rows] + allocation.renewable_charge_j[rows]
        ),
        grid_serve_j=seq_sum(allocation.grid_serve_j[rows]),
        grid_charge_j=seq_sum(allocation.grid_charge_j[rows]),
        discharge_j=seq_sum(allocation.discharge_j[rows]),
        spill_j=seq_sum(allocation.spill_j[rows]),
    )


@dataclass(frozen=True)
class SlotMetrics:
    """Everything measured in one slot.

    Attributes:
        slot: slot index ``t``.
        grid_draw_j: ``P(t)`` — total base-station grid draw.
        cost: ``f(P(t))``.
        admitted_pkts: ``sum_s k_s(t)``.
        penalty: the P2 objective sample ``f(P) - lambda sum_s k_s``.
        delivered_pkts: packets forced into destinations (Eq. 18).
        scheduled_links: transmissions that survived power control.
        curtailed_links: link-bands shed by the energy-feasibility pass.
        deficit_j: unservable base energy demand.
        spill_j: renewable energy left unused.
        snapshot: queue/battery aggregates after the slot's update.
        bs_flows: base-station energy-flow breakdown.
        user_flows: mobile-user energy-flow breakdown.
    """

    slot: int
    grid_draw_j: float
    cost: float
    admitted_pkts: float
    penalty: float
    delivered_pkts: float
    scheduled_links: int
    curtailed_links: int
    deficit_j: float
    spill_j: float
    snapshot: BacklogSnapshot
    bs_flows: EnergyFlows = EnergyFlows()
    user_flows: EnergyFlows = EnergyFlows()


class MetricsCollector:
    """Accumulates :class:`SlotMetrics` and computes time averages."""

    def __init__(self, admission_lambda: float, num_bs: int = 0) -> None:
        self._lambda = admission_lambda
        # Base stations hold rows 0..B-1, users the rest.
        self._bs_rows = slice(0, num_bs)
        self._user_rows = slice(num_bs, None)
        self.slots: List[SlotMetrics] = []
        #: Cumulative delivered packets per session id.
        self.session_delivered: Dict[int, float] = {}

    def record(
        self,
        slot: int,
        decision: SlotDecision,
        snapshot: BacklogSnapshot,
        deficit_j: float,
        delivered_pkts: float,
        session_delivered: Dict[int, float] = None,
    ) -> SlotMetrics:
        """Derive and store one slot's metrics."""
        if session_delivered:
            for sid, amount in session_delivered.items():
                self.session_delivered[sid] = (
                    self.session_delivered.get(sid, 0.0) + amount
                )
        admitted = decision.admission.total_admitted()
        allocation = decision.energy.allocation
        bs_rows, user_rows = self._bs_rows, self._user_rows
        metrics = SlotMetrics(
            slot=slot,
            grid_draw_j=decision.energy.bs_grid_draw_j,
            cost=decision.energy.cost,
            admitted_pkts=admitted,
            penalty=decision.energy.cost - self._lambda * admitted,
            delivered_pkts=delivered_pkts,
            scheduled_links=int(decision.schedule.link_pos.size),
            curtailed_links=len(decision.curtailed),
            deficit_j=deficit_j,
            # Users first, then stations: the summation order the
            # golden trajectories (tests/golden) pin bit for bit.
            spill_j=seq_sum(
                np.concatenate(
                    (allocation.spill_j[user_rows], allocation.spill_j[bs_rows])
                )
            ),
            snapshot=snapshot,
            bs_flows=_aggregate_flows(allocation, bs_rows),
            user_flows=_aggregate_flows(allocation, user_rows),
        )
        self.slots.append(metrics)
        return metrics

    def flow_series(self, node_class: str, field_name: str) -> np.ndarray:
        """A per-slot energy-flow series.

        Args:
            node_class: ``"bs"`` or ``"user"``.
            field_name: an :class:`EnergyFlows` attribute name.
        """
        attr = {"bs": "bs_flows", "user": "user_flows"}[node_class]
        return np.array(
            [getattr(getattr(m, attr), field_name) for m in self.slots],
            dtype=float,
        )

    # -- series accessors -------------------------------------------------

    def series(self, name: str) -> np.ndarray:
        """A per-slot series by :class:`SlotMetrics` field name."""
        return np.array([getattr(m, name) for m in self.slots], dtype=float)

    def snapshot_series(self, name: str) -> np.ndarray:
        """A per-slot series by :class:`BacklogSnapshot` field name."""
        return np.array(
            [getattr(m.snapshot, name) for m in self.slots], dtype=float
        )

    # -- time averages (Definition 1) ---------------------------------------

    def average_cost(self) -> float:
        """``(1/T) sum_t f(P(t))`` — the Theorem-4 upper bound sample."""
        return float(self.series("cost").mean()) if self.slots else 0.0

    def average_penalty(self) -> float:
        """``(1/T) sum_t [f(P(t)) - lambda sum_s k_s(t)]``."""
        return float(self.series("penalty").mean()) if self.slots else 0.0

    def average_grid_draw_j(self) -> float:
        """``(1/T) sum_t P(t)``."""
        return float(self.series("grid_draw_j").mean()) if self.slots else 0.0

    def totals(self) -> Dict[str, float]:
        """Run-level totals for the summary table."""
        return {
            "admitted_pkts": float(self.series("admitted_pkts").sum()),
            "delivered_pkts": float(self.series("delivered_pkts").sum()),
            "deficit_j": float(self.series("deficit_j").sum()),
            "spill_j": float(self.series("spill_j").sum()),
            "curtailed_links": float(self.series("curtailed_links").sum()),
        }
