"""Struct-of-arrays storage for the hot per-slot simulator state.

The observe -> decide -> apply loop touches every data queue ``Q_i^s``
(Eq. 15), every virtual queue ``G_ij``/``H_ij`` (Eqs. 28/30), and every
shifted battery queue ``z_i`` (Eq. 31) once per slot.  Keeping those
quantities in per-key Python objects makes the loop interpreter-bound,
so this module packs them into dense numpy arrays over *frozen* indices:

* nodes: row ``i`` is node id ``i`` (node ids are dense ``0..N-1``),
* sessions: column ``c`` is ``sessions[c].session_id`` in
  ``model.sessions`` order,
* links: position ``p`` is link ``(link_tx[p], link_rx[p])`` of the
  topology's frozen link index.

These positions are the only keys: there is no ``(tx, rx)`` or
``(node, session)`` lookup table beside the arrays.

``ArrayState`` is the whole energy layer of Section II-D as ``(N,)``
vectors: the battery law (Eq. 4), charge-xor-discharge (Eqs. 7-9), the
storage caps (Eqs. 10-13; Eq. 13 itself is checked when the scenario's
``EnergyParameters`` are built), the grid draw cap and connection
probability (Eqs. 5, 6 and 14) and the shifted queue
``z = x - (V * gamma_max + d_max)`` (Eq. 31).  It also owns the update
kernels of Eqs. 4, 15 and 28, and keeps ``H = beta * G`` (Eq. 30)
beside ``G``, written with it; ``NetworkState`` and the contract
checker share the same buffers.

``G`` is sparse in practice (a U=100k network holds ``G > 0`` on ~10k
of its 1.65M links), so the state also keeps ``g_support``: the
ascending positions where ``G != 0``.  The Eq. 28 kernel visits only
the routed and served positions and merges the support in place; every
other write to ``G`` goes through :meth:`ArrayState.assign_g`, which
rebuilds it.  Readers (S1's backlog floor and the backlog
snapshot) scan the support instead of the link index.  The support is
derived state: nothing serializes it.  The Eq. 15 kernel likewise
visits only the ``Q`` cells that routed entries and admissions touch.
Numerical policy:
kernels apply elementwise IEEE-754 operations in a fixed order,
repeated indices accumulate with the unbuffered ``np.add.at`` (index
order), and aggregates use :func:`seq_sum` (a strict left-to-right
accumulation) instead of numpy's pairwise ``sum``, so every result is
reproducible bit for bit; the committed trajectory fingerprints in
``tests/golden/trajectories.json`` pin it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.axes import (
    AnyArray,
    LinkIds,
    LinkToNode,
    LinkPackets,
    NodeIds,
    NodeJoules,
    NodeVec,
    QueueMask,
    QueuePackets,
)
from repro.constants import FEASIBILITY_EPS
from repro.exceptions import EnergyError, QueueError
from repro.types import QueueSemantics, SessionId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see state.py)
    from repro.core.lyapunov import LyapunovConstants
    from repro.model import NetworkModel


def seq_sum(values: AnyArray) -> float:
    """Strict left-to-right sum of ``values`` (raveled in C order).

    ``np.sum`` uses pairwise summation, which is *not* bit-identical to
    Python's sequential ``sum``.  ``np.add.accumulate`` is sequential,
    and Python's ``sum`` starts from int ``0`` whose first addition
    ``0 + x0 == x0`` is exact — so the two match bit for bit.
    """
    flat = np.ravel(values)
    if flat.size == 0:
        return 0.0
    return float(np.add.accumulate(flat)[-1])


def _distinct(values: AnyArray) -> AnyArray:
    """The ascending distinct values of ``values`` (a sort in place plus a neighbour compare)."""
    values.sort()
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


class ArrayState:
    """Dense per-slot state: ``Q``, ``G``, battery levels, caps, ``z`` shift, grid.

    Attributes:
        sessions: session ids in column order.
        session_col: session id -> column.
        link_tx / link_rx: ``(L,)`` endpoint arrays of the frozen
            link index (the topology's, shared, not copied).
        q: ``(N, S)`` data backlogs in packets; destination cells are
            pinned at exactly ``0.0``.
        q_valid / q_invalid: boolean masks over ``q``.
        g: ``(L,)`` virtual backlogs ``G_ij`` in packets.  Read-only
            outside this class: write it through :meth:`advance_g`
            or :meth:`assign_g`, which keep :attr:`g_support` and
            :attr:`h`.
        h: ``(L,)`` ``H = beta * G`` (Eq. 30), written at exactly the
            positions of each ``G`` write with the same product, so it
            equals ``beta * g`` bit for bit; :attr:`h_view` is its
            read-only view.
        g_support: ascending positions where ``G != 0`` (derived;
            ``g_support == np.flatnonzero(g)`` after every write).
            ``G`` never holds ``-0.0``: see :meth:`assign_g`.
        battery_level: ``(N,)`` battery levels ``x_i`` in joules, the
            one store of both the battery (Eq. 4) and its shifted
            queue (Eq. 31).
        z_shift: ``(N,)`` shifts ``V * gamma_max + d_max_i`` so that
            ``z = battery_level - z_shift`` (Eq. 31).
        capacity_j / charge_cap_j / discharge_cap_j: ``(N,)`` battery
            bounds ``x_max`` / ``c_max`` / ``d_max`` (Eqs. 10-13).
        charge_efficiency / discharge_efficiency: ``(N,)`` conversion
            losses ``eta_c`` / ``eta_d`` (the paper's Eq. 4 is
            lossless: both 1.0).
        grid_cap_j: ``(N,)`` per-slot grid draw caps ``p_max`` (Eq. 14).
        connect_prob: ``(N,)`` probabilities of ``omega_i(t) = 1``
            (Eqs. 5-6): 1.0 for the always-connected base stations.
        queue_semantics: the Eq. 15 transfer accounting in force
            (``params.queue_semantics``).
    """

    # Axis layouts of every buffer (see repro.axes): the one place a
    # reader of ``arrays.q`` in any module that threads an ArrayState
    # finds its named layout.
    link_tx: LinkToNode
    link_rx: LinkToNode
    q: QueuePackets
    q_valid: QueueMask
    q_invalid: QueueMask
    g: LinkPackets
    h: LinkPackets
    h_view: LinkPackets
    g_support: LinkIds
    battery_level: NodeJoules
    z_shift: NodeJoules
    capacity_j: NodeJoules
    charge_cap_j: NodeJoules
    discharge_cap_j: NodeJoules
    charge_efficiency: NodeVec
    discharge_efficiency: NodeVec
    grid_cap_j: NodeJoules
    connect_prob: NodeVec

    def __init__(self, model: "NetworkModel", constants: "LyapunovConstants") -> None:
        """Freeze the node/session/link indices and allocate the arrays.

        Cold path: runs once per simulation, before the slot loop.
        """
        params = model.params
        num_nodes = model.num_nodes
        sessions = tuple(s.session_id for s in model.sessions)
        destinations = model.session_destinations()

        self.num_nodes = num_nodes
        self.queue_semantics = params.queue_semantics
        self.sessions = sessions
        self.session_col: Dict[SessionId, int] = {
            sid: col for col, sid in enumerate(sessions)
        }
        self.destinations = destinations
        self.link_tx = model.topology.link_tx
        self.link_rx = model.topology.link_rx

        self.q = np.zeros((num_nodes, len(sessions)))  # noqa: R041 - (N, S) data backlog is the paper's state itself, not an all-pairs matrix; S stays O(10) while N scales
        valid = np.ones((num_nodes, len(sessions)), dtype=bool)  # noqa: R041 - (N, S) mask over the data backlog, same shape argument as q above
        for sid, dest in destinations.items():
            if 0 <= dest < num_nodes:
                valid[dest, self.session_col[sid]] = False
        self.q_valid = valid
        self.q_invalid = ~valid

        self.g = np.zeros(self.link_tx.shape[0])
        self.g_support = np.zeros(0, dtype=np.intp)
        self.beta = constants.beta
        self.h = np.zeros(self.link_tx.shape[0])
        self.h_view = self.h.view()
        self.h_view.flags.writeable = False

        self.battery_level = np.zeros(num_nodes)
        bs, user = params.bs_energy, params.user_energy

        def node_vector(field: str) -> NodeVec:
            return model.node_vector(getattr(bs, field), getattr(user, field))

        self.capacity_j = node_vector("battery_capacity_j")
        self.charge_cap_j = node_vector("charge_cap_j")
        self.discharge_cap_j = node_vector("discharge_cap_j")
        self.charge_efficiency = node_vector("charge_efficiency")
        self.discharge_efficiency = node_vector("discharge_efficiency")
        self.grid_cap_j = node_vector("grid_cap_j")
        self.connect_prob = node_vector("grid_connect_prob")
        # V * gamma_max is one float, so each row is the scalar chain
        # ``V * gamma_max + d_max_i`` of Eq. 31 bit for bit.
        self.z_shift = params.control_v * constants.gamma_max + self.discharge_cap_j
    # ------------------------------------------------------------------
    # Vectorized kernels

    def advance_q(
        self,
        link_pos: LinkIds,
        session_col: AnyArray,
        pkts: AnyArray,
        arrival_rows: NodeIds,
        arrival_cols: AnyArray,
        arrival_pkts: AnyArray,
    ) -> AnyArray:
        """Advance every data queue one slot (Eq. 15); return the transfer.

        ``Q_i^s(t+1) = max(Q_i^s(t) - sum_j l_ij^s(t), 0)
        + sum_j l_ji^s(t) + k_s(t) 1[i = s_s(t)]``, with destination
        cells pinned at 0.0 (delivered packets leave the network).

        Routed entry ``k`` moves ``pkts[k]`` packets of session column
        ``session_col[k]`` over link ``link_pos[k]``; admission entry
        ``k`` adds ``arrival_pkts[k]`` at ``(arrival_rows[k],
        arrival_cols[k])``.  ``PAPER`` semantics transfer the scheduled
        rate (null packets included); ``PACKET_ACCURATE`` scales each
        transmitter's outgoing rates for a session by
        ``min(1, Q / outgoing)`` on the pre-update backlog.  Cells sum
        routed service, then routed arrivals, then admissions, each in
        entry order.  Returns the effective ``(K,)`` transfer (packets).

        Only the cells the entries touch are visited: their flat ids
        ``row * S + col``, ascending (row-major order), index compact
        per-cell sums.  Each touched cell gets the float operations
        ``max(q - s, 0) + a`` of the dense update, and a destination
        cell among them is re-pinned to 0.0.  Every other cell is a
        fixed point of the dense update, because ``Q >= 0`` and ``Q``
        never holds ``-0.0`` (``max(q - 0.0, 0.0) + 0.0 == q``, bit for
        bit): a touched cell ends as ``x + a`` with ``a`` a sum from
        ``+0.0``, which is never ``-0.0``.  A negative admission, service
        or arrival sum raises before anything moves, naming the first
        offending cell in row-major order.
        """
        q = self.q
        width = q.shape[1]
        tx = self.link_tx[link_pos]
        out_cell = tx * width + session_col
        in_cell = self.link_rx[link_pos] * width + session_col
        new_cell = arrival_rows * width + arrival_cols
        cells = _distinct(np.concatenate((out_cell, in_cell, new_cell)))
        at_out = np.searchsorted(cells, out_cell)
        if self.queue_semantics is QueueSemantics.PAPER:
            transfer = pkts
        else:
            outgoing = np.zeros(cells.size)
            np.add.at(outgoing, at_out, pkts)
            total = outgoing[at_out]
            positive = total > 0
            scale = np.minimum(1.0, q[tx, session_col] / np.where(positive, total, 1.0))
            transfer = np.where(positive, pkts * scale, 0.0)
        if np.any(arrival_pkts < 0):
            k = int(np.argmax(arrival_pkts < 0))
            raise QueueError(
                f"negative admission {arrival_pkts[k]} for session "
                f"{self.sessions[arrival_cols[k]]} at node {arrival_rows[k]}"
            )
        service = np.zeros(cells.size)
        arrivals = np.zeros(cells.size)
        np.add.at(service, at_out, transfer)
        np.add.at(arrivals, np.searchsorted(cells, in_cell), transfer)
        np.add.at(arrivals, np.searchsorted(cells, new_cell), arrival_pkts)
        rows, cols = np.divmod(cells, width)
        valid = self.q_valid[rows, cols]
        # Only a negative transfer can make a per-cell sum negative.
        if np.any(transfer < 0):
            negative = ((service < 0.0) | (arrivals < 0.0)) & valid
            if np.any(negative):
                k = int(np.argmax(negative))
                where = f"Q[{int(rows[k])}][{self.sessions[cols[k]]}]"
                if service[k] < 0:
                    raise QueueError(f"negative service {service[k]} at {where}")
                raise QueueError(f"negative arrivals {arrivals[k]} at {where}")
        cell = q[rows, cols]
        np.subtract(cell, service, out=cell)
        np.maximum(cell, 0.0, out=cell)
        np.add(cell, arrivals, out=cell)
        cell[~valid] = 0.0  # destinations keep no queue (pinned at 0.0)
        q[rows, cols] = cell
        return transfer

    def advance_g(
        self,
        link_pos: LinkIds,
        pkts: AnyArray,
        service_pos: LinkIds,
        service_pkts: AnyArray,
    ) -> None:
        """Advance every virtual queue one slot (Eq. 28).

        ``G_ij(t+1) = max(G_ij(t) - service_ij, 0) + sum_s l_ij^s(t)``:
        the arrivals are the *scheduled* routed rates ``pkts`` summed
        per link position in entry order from 0.0 (the router commits
        at most a link's capacity, which bounds them per Eq. 29);
        ``service_pkts[k]`` is the realised service
        ``(1/delta) sum_m c_ij^m a_ij^m delta_t`` of link
        ``service_pos[k]`` (no repeats; every other link is served 0.0).

        Only the routed and served positions are visited.  Each gets the
        float operations ``max(g - s, 0) + a`` of the dense update; every
        other cell is a fixed point of it, because ``G >= 0`` and ``G``
        never holds ``-0.0`` (``max(g - 0.0, 0.0) + 0.0 == g``, bit for
        bit).  The support is merged with ``searchsorted`` and boolean
        masks, in O(|support| + |touched|), never re-sorted.  A negative
        arrival or service raises before anything moves, naming the
        lowest offending position.
        """
        touched = _distinct(np.concatenate((link_pos, service_pos)))
        arrivals = np.zeros(touched.size)
        np.add.at(arrivals, np.searchsorted(touched, link_pos), pkts)
        service = np.zeros(touched.size)
        service[np.searchsorted(touched, service_pos)] = service_pkts
        bad = (arrivals < 0.0) | (service < 0.0)
        if bad.any():
            k = int(np.argmax(bad))
            pos = int(touched[k])
            link = (int(self.link_tx[pos]), int(self.link_rx[pos]))
            if arrivals[k] < 0:
                raise QueueError(f"negative arrivals {arrivals[k]} at G{link}")
            raise QueueError(f"negative service {service[k]} at G{link}")
        cell = self.g[touched]
        np.subtract(cell, service, out=cell)
        np.maximum(cell, 0.0, out=cell)
        np.add(cell, arrivals, out=cell)
        self.g[touched] = cell
        self.h[touched] = self.beta * cell

        # The support without the touched cells, then the touched cells
        # that hold G != 0 (exactly, as flatnonzero tests) merged in.
        support = self.g_support
        at = np.searchsorted(support, touched)
        held = at < support.size
        held[held] = support[at[held]] == touched[held]
        keep = np.ones(support.size, dtype=bool)
        keep[at[held]] = False
        rest = support[keep]
        joined = touched[cell.astype(bool)]
        slot = np.searchsorted(rest, joined) + np.arange(joined.size)
        merged = np.empty(rest.size + joined.size, dtype=np.intp)
        merged[slot] = joined
        keep = np.ones(merged.size, dtype=bool)
        keep[slot] = False
        merged[keep] = rest
        self.g_support = merged

    def assign_g(self, values: AnyArray) -> None:
        """Overwrite every ``G_ij`` and rebuild :attr:`g_support`.

        The one write to ``G`` besides :meth:`advance_g` (test set-up,
        restoring a saved state).  ``values`` broadcasts to ``(L,)``.
        Adding ``0.0`` stores ``-0.0`` as ``+0.0`` and leaves every
        other value as it is, so ``G`` never holds ``-0.0``: an all-zero
        ``G`` sums to ``+0.0`` whether or not its zeros are visited.

        Raises:
            QueueError: on a negative value (a queue cannot be
                negative), naming the lowest offending position;
                nothing is written.
        """
        values = np.broadcast_to(np.asarray(values, dtype=np.float64), self.g.shape)
        negative = values < 0.0
        if negative.any():
            pos = int(np.argmax(negative))
            link = (int(self.link_tx[pos]), int(self.link_rx[pos]))
            raise QueueError(f"negative virtual backlog {values[pos]} at G{link}")
        np.add(values, 0.0, out=self.g)
        np.multiply(self.beta, self.g, out=self.h)
        self.g_support = np.flatnonzero(self.g)

    def apply_battery_actions(
        self,
        charge_j: NodeJoules,
        discharge_j: NodeJoules,
    ) -> None:
        """Advance every battery one slot (Eq. 4) with Eqs. 9-12 checks.

        ``charge_j``/``discharge_j`` are ``(N,)`` arrays of ``c_i(t)``
        and ``d_i(t)`` in joules.  Validation names the first offending
        node's values: no negative action, no simultaneous charge and
        discharge (Eq. 9, which implies Eqs. 7-8), charge within
        ``min(c_max, headroom)`` (Eq. 11) and drain within
        ``min(d_max, x)`` (Eq. 12).  The update is
        ``x += eta_c * c - d; x = min(max(x, 0), x_max)`` elementwise,
        the clamp absorbing round-off only (Eq. 10).
        """
        level = self.battery_level
        eta_c = self.charge_efficiency
        eps = FEASIBILITY_EPS
        if np.any(charge_j < -eps):
            node = int(np.argmax(charge_j < -eps))
            raise EnergyError(f"negative charge {charge_j[node]}")
        if np.any(discharge_j < -eps):
            node = int(np.argmax(discharge_j < -eps))
            raise EnergyError(f"negative discharge {discharge_j[node]}")
        both = (charge_j > eps) & (discharge_j > eps)
        if np.any(both):
            node = int(np.argmax(both))
            raise EnergyError(
                "constraint (9) violated: simultaneous charge "
                f"({charge_j[node]} J) and discharge ({discharge_j[node]} J)"
            )
        # One (N,) buffer carries each bound, then the update: a fresh
        # temporary per operation costs more than the arithmetic (fresh
        # pages and cache misses).
        work = np.subtract(self.capacity_j, level)
        np.divide(work, eta_c, out=work)
        np.minimum(self.charge_cap_j, work, out=work)
        over_charge = charge_j > np.add(work, eps, out=work)
        if np.any(over_charge):
            node = int(np.argmax(over_charge))
            raise EnergyError(
                f"constraint (11) violated: charge {charge_j[node]} J > "
                f"min(c_max, headroom) = {self.max_charge_j_array()[node]} J"
            )
        np.minimum(self.discharge_cap_j, level, out=work)
        over_discharge = discharge_j > np.add(work, eps, out=work)
        if np.any(over_discharge):
            node = int(np.argmax(over_discharge))
            max_discharge = np.minimum(self.discharge_cap_j[node], level[node])
            raise EnergyError(
                f"constraint (12) violated: discharge {discharge_j[node]} J > "
                f"min(d_max, level) = {max_discharge} J"
            )
        np.multiply(eta_c, charge_j, out=work)
        np.subtract(work, discharge_j, out=work)
        np.add(level, work, out=level)
        np.maximum(level, 0.0, out=level)
        np.minimum(level, self.capacity_j, out=level)

    def z_values_array(self) -> NodeJoules:
        """``(N,)`` shifted queue values ``z = x - shift`` (Eq. 31)."""
        return self.battery_level - self.z_shift

    def max_charge_j_array(self) -> NodeJoules:
        """``(N,)`` constraint-(11) input caps, one battery per row.

        Input energy ``c`` stores ``eta_c * c``, so the headroom admits
        ``(x_max - x) / eta_c`` of input: ``min(c_max, headroom)``.
        """
        headroom = (self.capacity_j - self.battery_level) / self.charge_efficiency
        return np.minimum(self.charge_cap_j, headroom)

    def max_deliverable_j_array(self) -> NodeJoules:
        """``(N,)`` deliverable discharge caps (constraint 12 + losses).

        The battery drains at most ``min(d_max, x)`` and the load
        receives ``eta_d`` of it.
        """
        return self.discharge_efficiency * np.minimum(
            self.discharge_cap_j, self.battery_level
        )
