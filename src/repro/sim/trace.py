"""Structured trace recording with CSV/JSON export.

The trace is the debugging view of a run: one row per slot with the
realised random state, the controller's headline decisions, and the
resulting queue aggregates.  Export targets plain ``csv``/``json`` so
runs can be diffed and post-processed without this library.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.control.decisions import SlotDecision, SlotObservation
from repro.core.arraystate import seq_sum
from repro.sim.metrics import SlotMetrics

#: The exported columns, in order.
TRACE_FIELDS = (
    "slot",
    "grid_draw_j",
    "cost",
    "penalty",
    "admitted_pkts",
    "delivered_pkts",
    "scheduled_links",
    "curtailed_links",
    "deficit_j",
    "spill_j",
    "renewable_total_j",
    "connected_users",
    "bs_data_packets",
    "user_data_packets",
    "bs_energy_j",
    "user_energy_j",
    "virtual_packets",
    "bs_renewable_used_j",
    "bs_grid_charge_j",
    "bs_discharge_j",
    "user_renewable_used_j",
    "user_discharge_j",
)


class TraceRecorder:
    """Accumulates one flat record per slot."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, float]] = []

    def record_slot(
        self,
        observation: SlotObservation,
        decision: SlotDecision,
        metrics: SlotMetrics,
        num_bs: int,
    ) -> None:
        """Flatten one slot into a trace row.

        Base stations hold rows ``0..num_bs-1``: ``connected_users``
        counts grid-connected users only, never base stations.
        """
        del decision  # headline decision data already lives in metrics
        snapshot = metrics.snapshot
        self.rows.append(
            {
                "slot": metrics.slot,
                "grid_draw_j": metrics.grid_draw_j,
                "cost": metrics.cost,
                "penalty": metrics.penalty,
                "admitted_pkts": metrics.admitted_pkts,
                "delivered_pkts": metrics.delivered_pkts,
                "scheduled_links": metrics.scheduled_links,
                "curtailed_links": metrics.curtailed_links,
                "deficit_j": metrics.deficit_j,
                "spill_j": metrics.spill_j,
                "renewable_total_j": seq_sum(observation.renewable_j),
                "connected_users": int(
                    np.count_nonzero(observation.grid_connected[num_bs:])
                ),
                "bs_data_packets": snapshot.bs_data_packets,
                "user_data_packets": snapshot.user_data_packets,
                "bs_energy_j": snapshot.bs_energy_j,
                "user_energy_j": snapshot.user_energy_j,
                "virtual_packets": snapshot.virtual_packets,
                "bs_renewable_used_j": metrics.bs_flows.renewable_used_j,
                "bs_grid_charge_j": metrics.bs_flows.grid_charge_j,
                "bs_discharge_j": metrics.bs_flows.discharge_j,
                "user_renewable_used_j": metrics.user_flows.renewable_used_j,
                "user_discharge_j": metrics.user_flows.discharge_j,
            }
        )

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the trace as CSV and return the path."""
        target = Path(path)
        with target.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=TRACE_FIELDS)
            writer.writeheader()
            writer.writerows(self.rows)
        return target

    def to_json(self, path: Union[str, Path]) -> Path:
        """Write the trace as a JSON array and return the path."""
        target = Path(path)
        with target.open("w") as handle:
            json.dump(self.rows, handle, indent=2)
        return target
