"""Link-layer virtual queues ``G_ij`` and ``H_ij`` (Eqs. 28 and 30).

``G_ij`` buffers packets committed to link ``(i, j)`` by the router and
drains at the link's realised service rate; because the router commits
at most a link's capacity, per-slot arrivals stay bounded (Eq. 29),
which is all the drift argument needs.  ``H_ij = beta * G_ij``
with ``beta = max_ij (c_max_ij * delta_t / delta)`` is the scaled copy
whose strong stability the drift analysis tracks.

The bank stores every ``G_ij`` in one dense ``(num_links,)`` array over
the frozen link index (optionally shared with an
:class:`~repro.core.arraystate.ArrayState`) and advances Eq. 28 with a
single vectorized update.  ``H`` is derived as ``beta * G`` at read
time — scalar ``beta * g`` and elementwise ``beta * g_array`` produce
identical IEEE-754 results, so the lock-step invariant of the
per-object :class:`LinkVirtualQueue` (kept for standalone use) holds
bit for bit on the array too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.axes import LinkPackets, LinkVec
from repro.core.arraystate import ArrayState, seq_sum
from repro.exceptions import QueueError
from repro.types import Link
from repro.units import Packets


@dataclass
class LinkVirtualQueue:
    """The ``G_ij``/``H_ij`` pair for one directed link."""

    link: Link
    beta: float
    g_backlog: Packets = 0.0

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise QueueError(f"beta must be positive, got {self.beta}")

    @property
    def h_backlog(self) -> Packets:
        """``H_ij(t) = beta * G_ij(t)`` (Eq. 30)."""
        return self.beta * self.g_backlog

    def step(self, arrivals_pkts: Packets, service_pkts: Packets) -> Packets:
        """Advance Eq. (28) one slot; returns the new ``G_ij``."""
        if arrivals_pkts < 0:
            raise QueueError(f"negative arrivals {arrivals_pkts} at G{self.link}")
        if service_pkts < 0:
            raise QueueError(f"negative service {service_pkts} at G{self.link}")
        self.g_backlog = max(self.g_backlog - service_pkts, 0.0) + arrivals_pkts
        return self.g_backlog


class VirtualQueueBank:
    """All per-link virtual queues of the network.

    ``G`` backlogs live in ``self._g[pos]`` with positions in ``links``
    order.  When ``storage`` is given the bank adopts the
    ``ArrayState``'s ``g`` buffer and frozen link index.
    """

    # Axis declaration feeding the R020-R023 analyzer.
    _g: LinkPackets

    def __init__(
        self,
        links: Iterable[Link],
        beta: float,
        storage: Optional[ArrayState] = None,
    ) -> None:
        """Freeze the link index and allocate (or adopt) ``g``.

        Cold path: runs once, before the slot loop.
        """
        if beta <= 0:
            raise QueueError(f"beta must be positive, got {beta}")
        self.beta = beta
        if storage is not None:
            self._links = storage.links
            self._pos = storage.link_pos
            self._g = storage.g
        else:
            self._links = tuple(links)
            self._pos = {link: pos for pos, link in enumerate(self._links)}
            self._g = np.zeros(len(self._links))

    def g(self, link: Link) -> Packets:
        """``G_ij(t)`` for one link."""
        try:
            return float(self._g[self._pos[link]])
        except KeyError:
            raise QueueError(f"no virtual queue for link {link}") from None

    def h(self, link: Link) -> Packets:
        """``H_ij(t)`` for one link."""
        return self.beta * self.g(link)

    def h_array(self) -> LinkPackets:
        """A fresh ``(num_links,)`` array of ``H_ij(t) = beta * G_ij(t)``."""
        return self.beta * self._g

    def total_g(self) -> Packets:
        """Sum of all ``G_ij(t)`` backlogs."""
        return seq_sum(self._g)

    def total_h(self) -> Packets:
        """Sum of all ``H_ij(t)`` backlogs."""
        return seq_sum(self.beta * self._g)

    def snapshot(self) -> Dict[Link, Packets]:
        """A copy of every ``G_ij`` backlog.

        Cold path: used by diagnostics and the contracts checker, not
        the per-slot update.
        """
        return {link: float(g) for link, g in zip(self._links, self._g)}

    def step(
        self,
        arrivals_pkts: Mapping[Link, Packets],
        service_pkts: Mapping[Link, Packets],
    ) -> None:
        """Advance every virtual queue one slot (vectorized Eq. 28).

        Args:
            arrivals_pkts: per-link routed packets ``sum_s l_ij^s(t)``.
            service_pkts: per-link service
                ``(1/delta) sum_m c_ij^m(t) a_ij^m(t) delta_t``.
        """
        num_links = len(self._links)
        arrivals: LinkVec = np.zeros(num_links)
        service: LinkVec = np.zeros(num_links)
        pos_of = self._pos
        for link, pkts in arrivals_pkts.items():  # noqa: R006 - decision-sized mapping feeding the vectorized buffers
            pos = pos_of.get(link)
            if pos is not None:
                arrivals[pos] = pkts
        for link, pkts in service_pkts.items():  # noqa: R006 - decision-sized mapping feeding the vectorized buffers
            pos = pos_of.get(link)
            if pos is not None:
                service[pos] = pkts

        bad = (arrivals < 0.0) | (service < 0.0)
        if bad.any():
            pos = int(np.argmax(bad))
            link = self._links[pos]
            if arrivals[pos] < 0:
                raise QueueError(f"negative arrivals {arrivals[pos]} at G{link}")
            raise QueueError(f"negative service {service[pos]} at G{link}")
        np.subtract(self._g, service, out=self._g)
        np.maximum(self._g, 0.0, out=self._g)
        np.add(self._g, arrivals, out=self._g)
