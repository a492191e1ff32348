"""Aggregated backlog snapshots used by the metrics collector.

The evaluation figures plot four aggregates per slot: total data-queue
backlog of base stations and of users (Figs. 2b/2c), and total battery
energy of base stations and of users (Figs. 2d/2e).  A
:class:`BacklogSnapshot` freezes those aggregates, plus the virtual-
queue total, for one slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.arraystate import seq_sum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see state.py)
    from repro.core.arraystate import ArrayState


@dataclass(frozen=True)
class BacklogSnapshot:
    """All queue aggregates of one slot.

    Attributes:
        slot: slot index ``t``.
        bs_data_packets: total ``Q_i^s`` over base stations (Fig. 2b).
        user_data_packets: total ``Q_i^s`` over users (Fig. 2c).
        bs_energy_j: total battery level over base stations (Fig. 2d).
        user_energy_j: total battery level over users (Fig. 2e).
        virtual_packets: total ``G_ij`` over links.
    """

    slot: int
    bs_data_packets: float
    user_data_packets: float
    bs_energy_j: float
    user_energy_j: float
    virtual_packets: float

    @property
    def total_data_packets(self) -> float:
        """Network-wide data backlog."""
        return self.bs_data_packets + self.user_data_packets

    @property
    def total_energy_j(self) -> float:
        """Network-wide stored energy."""
        return self.bs_energy_j + self.user_energy_j


def make_snapshot_from_arrays(
    slot: int, arrays: "ArrayState", num_bs: int
) -> BacklogSnapshot:
    """Aggregate an :class:`~repro.core.arraystate.ArrayState` directly.

    Base stations hold rows ``0..num_bs-1`` and users the rest, so each
    class is a view of contiguous rows.  The destination cells of ``q``
    hold exactly ``0.0``, so summing whole rows with :func:`seq_sum`
    equals the left-to-right sum over the valid ``(node, session)``
    cells in node-major order, bit for bit.

    The data totals sum only the nonzero cells of ``Q``, and the
    virtual total sums ``G`` over its support only; each equals the
    :func:`seq_sum` of every cell bit for bit.  Until the first nonzero
    term the running sum is a zero, and ``0 + x == x`` exactly.  After
    it, adding a zero of either sign never changes the running sum:
    ``s + 0.0 == s`` for ``s != 0``, and a sum that cancels to zero is
    ``+0.0``, which a zero of either sign leaves at ``+0.0``.  With no
    nonzero term at all, the dense sum is ``+0.0`` unless every cell is
    ``-0.0``, and neither ``Q`` nor ``G`` ever holds ``-0.0`` (see
    :meth:`~repro.core.arraystate.ArrayState.advance_q` and
    :meth:`~repro.core.arraystate.ArrayState.assign_g`), so both sides
    read ``+0.0``.
    """
    q, level = arrays.q, arrays.battery_level
    bs_q, user_q = q[:num_bs], q[num_bs:]
    return BacklogSnapshot(
        slot=slot,
        bs_data_packets=seq_sum(bs_q[bs_q.astype(bool)]),
        user_data_packets=seq_sum(user_q[user_q.astype(bool)]),
        bs_energy_j=seq_sum(level[:num_bs]),
        user_energy_j=seq_sum(level[num_bs:]),
        virtual_packets=seq_sum(arrays.g[arrays.g_support]),
    )
