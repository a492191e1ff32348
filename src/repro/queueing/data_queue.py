"""Per-node per-session data queues ``Q_i^s`` (Eq. 15).

The queueing law is

    Q_i^s(t+1) = max(Q_i^s(t) - sum_j l_ij^s(t), 0)
                 + sum_j l_ji^s(t) + k_s(t) * 1[i = s_s(t)],

with the destination node keeping no queue (delivered packets leave the
network immediately).  Two transfer semantics are supported (see
``QueueSemantics``): the paper's null-packet idealisation credits the
receiver with the full scheduled rate; the packet-accurate mode credits
only what the transmitter really held.

The bank stores every backlog in one dense ``(num_nodes, num_sessions)``
array (optionally shared with an
:class:`~repro.core.arraystate.ArrayState`) and advances Eq. 15 with a
single vectorized update of elementwise numpy float64 arithmetic.
The per-object :class:`DataQueue` remains for standalone use; the
simulator's trajectories are pinned by the committed fingerprints in
``tests/golden/trajectories.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.axes import NodeSessionMat, QueueMask, QueuePackets
from repro.core.arraystate import ArrayState, seq_sum
from repro.exceptions import QueueError
from repro.types import NodeId, QueueSemantics, SessionId
from repro.units import Packets


@dataclass
class DataQueue:
    """One ``Q_i^s`` backlog counter (packets)."""

    node: NodeId
    session: SessionId
    backlog: Packets = 0.0

    def step(self, service: Packets, arrivals: Packets) -> Packets:
        """Advance Eq. (15) by one slot and return the new backlog."""
        if service < 0:
            raise QueueError(
                f"negative service {service} at Q[{self.node}][{self.session}]"
            )
        if arrivals < 0:
            raise QueueError(
                f"negative arrivals {arrivals} at Q[{self.node}][{self.session}]"
            )
        self.backlog = max(self.backlog - service, 0.0) + arrivals
        return self.backlog


class DataQueueBank:
    """All data queues of the network, with the slot-update logic.

    Destinations are excluded: the paper's destination node ``d_s``
    passes packets straight to the upper layers.

    Backlogs live in ``self._q[row, col]`` with rows in ``nodes`` order
    and columns in ``session_destinations`` key order; destination cells
    exist in the array but are masked invalid and pinned at ``0.0``.
    When ``storage`` is given the bank adopts the ``ArrayState``'s ``q``
    buffer (and its frozen indices) instead of allocating its own.
    """

    # Axis layouts of the buffers this bank adopts (see repro.axes).
    _q: QueuePackets
    _valid: QueueMask
    _invalid: QueueMask

    def __init__(
        self,
        nodes: Iterable[NodeId],
        session_destinations: Mapping[SessionId, NodeId],
        semantics: QueueSemantics = QueueSemantics.PAPER,
        storage: Optional[ArrayState] = None,
    ) -> None:
        """Freeze the node/session index and allocate (or adopt) ``q``.

        Cold path: runs once, before the slot loop.
        """
        self._destinations = dict(session_destinations)
        self._semantics = semantics
        if storage is not None:
            self._node_order: Tuple[NodeId, ...] = tuple(range(storage.num_nodes))
            self._rows: Dict[NodeId, int] = {i: i for i in self._node_order}
            self._session_order: Tuple[SessionId, ...] = storage.sessions
            self._cols: Dict[SessionId, int] = storage.session_col
            self._q = storage.q
            self._valid = storage.q_valid
            self._invalid = storage.q_invalid
        else:
            self._node_order = tuple(nodes)
            self._rows = {node: row for row, node in enumerate(self._node_order)}
            self._session_order = tuple(self._destinations)
            self._cols = {sid: col for col, sid in enumerate(self._session_order)}
            shape = (len(self._node_order), len(self._session_order))
            self._q = np.zeros(shape)
            valid = np.ones(shape, dtype=bool)
            for session, dest in self._destinations.items():
                row = self._rows.get(dest)
                if row is not None:
                    valid[row, self._cols[session]] = False
            self._valid = valid
            self._invalid = ~valid
        self._has_invalid = bool(self._invalid.any())

    @property
    def semantics(self) -> QueueSemantics:
        """The transfer-accounting mode in force."""
        return self._semantics

    def backlog(self, node: NodeId, session: SessionId) -> Packets:
        """``Q_i^s(t)``; destinations report a permanent 0."""
        if self._destinations.get(session) == node:
            return 0.0
        row = self._rows.get(node)
        col = self._cols.get(session)
        if row is None or col is None:
            raise QueueError(f"no queue for node {node}, session {session}")
        return float(self._q[row, col])

    def has_queue(self, node: NodeId, session: SessionId) -> bool:
        """True unless ``node`` is the destination of ``session``."""
        row = self._rows.get(node)
        col = self._cols.get(session)
        return row is not None and col is not None and bool(self._valid[row, col])

    def total_backlog(self, nodes: Iterable[NodeId]) -> Packets:
        """Sum of backlogs over ``nodes`` and all sessions."""
        node_set = set(nodes)
        rows = [row for node, row in self._rows.items() if node in node_set]  # noqa: R006 - node-count row filter in front of the vectorized sum
        # Invalid cells hold exactly 0.0, so summing whole rows matches
        # the valid-cells-only sequential sum bit for bit.
        return seq_sum(self._q[rows])

    def snapshot(self) -> Dict[Tuple[NodeId, SessionId], Packets]:
        """A copy of every backlog, keyed by ``(node, session)``.

        Cold path: used by diagnostics and the contracts checker, not
        the per-slot update.
        """
        q = self._q
        valid = self._valid
        return {
            (node, session): float(q[row, col])
            for row, node in enumerate(self._node_order)
            for col, session in enumerate(self._session_order)
            if valid[row, col]
        }

    def effective_rates(
        self, rates: Mapping[Tuple[NodeId, NodeId, SessionId], Packets]
    ) -> Dict[Tuple[NodeId, NodeId, SessionId], Packets]:
        """Transfer rates after applying the configured semantics.

        In ``PAPER`` mode the scheduled rates pass through unchanged.
        In ``PACKET_ACCURATE`` mode each transmitter's outgoing rates
        for a session are scaled down proportionally so their sum never
        exceeds its backlog.
        """
        if self._semantics is QueueSemantics.PAPER:
            return dict(rates)

        outgoing: Dict[Tuple[NodeId, SessionId], float] = {}
        for (tx, _rx, session), rate in rates.items():
            key = (tx, session)
            outgoing[key] = outgoing.get(key, 0.0) + rate

        effective: Dict[Tuple[NodeId, NodeId, SessionId], float] = {}
        for (tx, rx, session), rate in rates.items():
            total = outgoing[(tx, session)]
            if total <= 0:
                effective[(tx, rx, session)] = 0.0
                continue
            available = self.backlog(tx, session)
            scale = min(1.0, available / total)
            effective[(tx, rx, session)] = rate * scale
        return effective

    def step(
        self,
        rates: Mapping[Tuple[NodeId, NodeId, SessionId], Packets],
        admissions: Mapping[SessionId, Iterable[Tuple[NodeId, Packets]]],
    ) -> None:
        """Advance every queue one slot (vectorized Eq. 15).

        Args:
            rates: scheduled per-link per-session rates
                ``l_ij^s(t)`` keyed by ``(tx, rx, session)`` (packets).
            admissions: per-session lists of ``(source_bs, k)`` arrival
                pairs (a single pair for the integral algorithm; the
                relaxed LP bound may split across base stations).
        """
        transfer = self.effective_rates(rates)

        service: NodeSessionMat = np.zeros(self._q.shape)
        arrivals: NodeSessionMat = np.zeros(self._q.shape)
        rows = self._rows
        cols = self._cols
        for (tx, rx, session), rate in transfer.items():  # noqa: R006 - decision-sized mapping feeding the vectorized buffers
            col = cols.get(session)
            if col is None:
                continue
            row = rows.get(tx)
            if row is not None:
                service[row, col] += rate
            row = rows.get(rx)
            if row is not None:
                arrivals[row, col] += rate
        for session, pairs in admissions.items():  # noqa: R006 - decision-sized mapping feeding the vectorized buffers
            col = cols.get(session)
            for source, admitted in pairs:
                if admitted < 0:
                    raise QueueError(
                        f"negative admission {admitted} for session {session}"
                    )
                row = rows.get(source)
                if col is not None and row is not None:
                    arrivals[row, col] += admitted

        bad = ((service < 0.0) | (arrivals < 0.0)) & self._valid
        if bad.any():
            row, col = (int(i) for i in np.argwhere(bad)[0])
            node = self._node_order[row]
            session = self._session_order[col]
            if service[row, col] < 0:
                raise QueueError(
                    f"negative service {service[row, col]} at Q[{node}][{session}]"
                )
            raise QueueError(
                f"negative arrivals {arrivals[row, col]} at Q[{node}][{session}]"
            )
        np.subtract(self._q, service, out=self._q)
        np.maximum(self._q, 0.0, out=self._q)
        np.add(self._q, arrivals, out=self._q)
        if self._has_invalid:
            # Destination cells take no arrivals; re-pin them at 0.0.
            self._q[self._invalid] = 0.0
