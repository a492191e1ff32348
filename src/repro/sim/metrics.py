"""The per-slot record: one float column per measured quantity.

Every slot appends one value to each column of :data:`COLUMNS`: the
quantities the paper's figures plot (grid draw ``P(t)``, cost
``f(P(t))``, the P2-style penalty, the queue and battery totals), the
energy flows of each node class, and the library's diagnostics
(deficits, curtailments, spilled and harvested energy, grid-connected
users).  :meth:`MetricsCollector.series` reads one column over the
recorded slots; :meth:`~MetricsCollector.to_csv` and
:meth:`~MetricsCollector.to_json` export the record one row per slot,
so runs can be diffed and post-processed without this library.  The
record holds ``len(COLUMNS)`` floats per slot, whatever the node count.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.axes import AnyArray, NodeJoules, SessionVec
from repro.control.decisions import BatchAllocation, SlotDecision, SlotObservation
from repro.core.arraystate import ArrayState, seq_sum

#: The queue and battery totals of :func:`backlog_totals`, in order:
#: ``Q`` over base stations (Fig. 2b) and over users (Fig. 2c), battery
#: energy over base stations (Fig. 2d) and over users (Fig. 2e), and
#: ``G`` over links.
BACKLOG_COLUMNS = (
    "bs_data_packets",
    "user_data_packets",
    "bs_energy_j",
    "user_energy_j",
    "virtual_packets",
)

#: One node class's energy flows (J): harvested energy serving demand
#: or charging, grid energy serving demand, grid energy charging,
#: battery energy delivered to demand, and harvested energy left unused.
#: Each is a column per class, ``bs_<flow>`` and ``user_<flow>``.
FLOW_FIELDS = (
    "renewable_used_j",
    "grid_serve_j",
    "grid_charge_j",
    "discharge_j",
    "spill_j",
)

#: Every column, in stored and exported order.  ``penalty`` is
#: ``f(P) - lambda sum_s k_s``; ``delivered_pkts`` counts packets forced
#: into destinations (Eq. 18); ``scheduled_links`` the transmissions
#: that survived power control; ``curtailed_links`` the link-bands the
#: energy-feasibility pass shed; ``deficit_j`` the unservable demand;
#: ``renewable_total_j`` the harvest; ``connected_users`` the
#: grid-connected users (never base stations).
COLUMNS = (
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
    *BACKLOG_COLUMNS,
    *(f"{node_class}_{flow}" for node_class in ("bs", "user") for flow in FLOW_FIELDS),
)

_INDEX = {name: row for row, name in enumerate(COLUMNS)}


def _nonzero_sum(values: AnyArray) -> float:
    """:func:`seq_sum` of the nonzero entries of ``values``.

    Equal to ``seq_sum(values)`` bit for bit unless every entry is
    ``-0.0`` (see :func:`backlog_totals`), for one pass that allocates
    only a mask when ``values`` is mostly zero.
    """
    return seq_sum(values[values.astype(bool)])


def backlog_totals(
    arrays: ArrayState, num_bs: int
) -> Tuple[float, float, float, float, float]:
    """The :data:`BACKLOG_COLUMNS` totals of an :class:`ArrayState`.

    Base stations hold rows ``0..num_bs-1`` and users the rest, so each
    class is a view of contiguous rows.  The destination cells of ``q``
    hold exactly ``0.0``, so summing whole rows with :func:`seq_sum`
    equals the left-to-right sum over the valid ``(node, session)``
    cells in node-major order, bit for bit.

    The data totals sum only the nonzero cells of ``Q`` (by
    :func:`_nonzero_sum`), and the virtual total sums ``G`` over its
    support only; each equals the :func:`seq_sum` of every cell bit for
    bit.  Until the first nonzero term the running sum is a zero, and
    ``0 + x == x`` exactly.  After it, adding a zero of either sign
    never changes the running sum:
    ``s + 0.0 == s`` for ``s != 0``, and a sum that cancels to zero is
    ``+0.0``, which a zero of either sign leaves at ``+0.0``.  With no
    nonzero term at all, the dense sum is ``+0.0`` unless every cell is
    ``-0.0``, and neither ``Q`` nor ``G`` ever holds ``-0.0`` (see
    :meth:`~repro.core.arraystate.ArrayState.advance_q` and
    :meth:`~repro.core.arraystate.ArrayState.assign_g`), so both sides
    read ``+0.0``.
    """
    q, level = arrays.q, arrays.battery_level
    return (
        _nonzero_sum(q[:num_bs]),
        _nonzero_sum(q[num_bs:]),
        seq_sum(level[:num_bs]),
        seq_sum(level[num_bs:]),
        seq_sum(arrays.g[arrays.g_support]),
    )


def _class_flows(allocation: BatchAllocation, rows: slice) -> Tuple[float, ...]:
    """One node class's :data:`FLOW_FIELDS`, each summed in ascending node order."""
    return (
        seq_sum(allocation.renewable_serve_j[rows] + allocation.renewable_charge_j[rows]),
        seq_sum(allocation.grid_serve_j[rows]),
        seq_sum(allocation.grid_charge_j[rows]),
        seq_sum(allocation.discharge_j[rows]),
        seq_sum(allocation.spill_j[rows]),
    )


class MetricsCollector:
    """The per-slot record of a run and its time averages."""

    def __init__(
        self, admission_lambda: float, num_bs: int = 0, num_sessions: int = 0
    ) -> None:
        self._lambda = admission_lambda
        # Base stations hold rows 0..B-1, users the rest.
        self._num_bs = num_bs
        self._bs_rows = slice(0, num_bs)
        self._user_rows = slice(num_bs, None)
        #: ``(S,)`` cumulative delivered packets per session (row = session id).
        self.session_delivered = np.zeros(num_sessions)
        # One row per column; the slots fill the first _num_slots columns.
        self._table = np.empty((len(COLUMNS), 64))
        self._num_slots = 0

    def record(
        self,
        slot: int,
        observation: SlotObservation,
        decision: SlotDecision,
        arrays: ArrayState,
        deficit_j: NodeJoules,
        delivered: SessionVec,
    ) -> None:
        """Append one slot to every column.

        Args:
            slot: slot index ``t``.
            observation: the slot's realised random state.
            decision: the controller's output for the slot.
            arrays: the state after the slot's update.
            deficit_j: ``(N,)`` demand the decision shed (J).
            delivered: ``(S,)`` packets that reached each session's
                destination, row = session id.
        """
        self.session_delivered += delivered
        energy = decision.energy
        allocation = energy.allocation
        admitted = decision.admission.total_admitted()
        bs_rows, user_rows = self._bs_rows, self._user_rows
        row = (
            slot,
            energy.bs_grid_draw_j,
            energy.cost,
            energy.cost - self._lambda * admitted,
            admitted,
            seq_sum(delivered),
            decision.schedule.link_pos.size,
            len(decision.curtailed),
            _nonzero_sum(deficit_j),
            # Users first, then stations: the summation order the
            # golden trajectories (tests/golden) pin bit for bit.
            seq_sum(
                np.concatenate((allocation.spill_j[user_rows], allocation.spill_j[bs_rows]))
            ),
            _nonzero_sum(observation.renewable_j),
            np.count_nonzero(observation.grid_connected[user_rows]),
            *backlog_totals(arrays, self._num_bs),
            *_class_flows(allocation, bs_rows),
            *_class_flows(allocation, user_rows),
        )
        t = self._num_slots
        if t == self._table.shape[1]:
            self._table = np.concatenate((self._table, np.empty_like(self._table)), axis=1)
        self._table[:, t] = row
        self._num_slots = t + 1

    # -- reading ------------------------------------------------------------

    def series(self, name: str) -> np.ndarray:
        """The :data:`COLUMNS` column ``name`` over the recorded slots (a copy)."""
        return self._table[_INDEX[name], : self._num_slots].copy()

    #: The backlog totals are columns too; this name is kept for callers
    #: that read them under it.
    snapshot_series = series

    def _rows(self) -> List[List[float]]:
        """The record as one list of :data:`COLUMNS` values per slot."""
        return self._table[:, : self._num_slots].T.tolist()

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the record as CSV, one row per slot, and return the path."""
        target = Path(path)
        with target.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(COLUMNS)
            writer.writerows(self._rows())
        return target

    def to_json(self, path: Union[str, Path]) -> Path:
        """Write the record as a JSON array of one object per slot; return the path."""
        target = Path(path)
        with target.open("w") as handle:
            json.dump([dict(zip(COLUMNS, row)) for row in self._rows()], handle, indent=2)
        return target

    # -- time averages (Definition 1) ---------------------------------------

    def average_cost(self) -> float:
        """``(1/T) sum_t f(P(t))`` — the Theorem-4 upper bound sample."""
        return float(self.series("cost").mean()) if self._num_slots else 0.0

    def average_penalty(self) -> float:
        """``(1/T) sum_t [f(P(t)) - lambda sum_s k_s(t)]``."""
        return float(self.series("penalty").mean()) if self._num_slots else 0.0

    def average_grid_draw_j(self) -> float:
        """``(1/T) sum_t P(t)``."""
        return float(self.series("grid_draw_j").mean()) if self._num_slots else 0.0

    def totals(self) -> Dict[str, float]:
        """Run-level totals for the summary table."""
        return {
            name: float(self.series(name).sum())
            for name in (
                "admitted_pkts",
                "delivered_pkts",
                "deficit_j",
                "spill_j",
                "curtailed_links",
            )
        }
