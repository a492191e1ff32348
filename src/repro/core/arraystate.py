"""Struct-of-arrays storage for the hot per-slot simulator state.

The observe -> decide -> apply loop touches every data queue ``Q_i^s``
(Eq. 15), every virtual queue ``G_ij``/``H_ij`` (Eqs. 28/30), and every
shifted battery queue ``z_i`` (Eq. 31) once per slot.  Keeping those
quantities in per-key Python objects makes the loop interpreter-bound,
so this module packs them into dense numpy arrays over *frozen* indices:

* nodes: row ``i`` is node id ``i`` (node ids are dense ``0..N-1``),
* sessions: column ``c`` is ``sessions[c].session_id`` in
  ``model.sessions`` order,
* links: position ``p`` is ``model.topology.candidate_links[p]``.

``ArrayState`` owns the arrays and the vectorized update kernels; the
queueing banks, ``NetworkState`` and the contract checker all share the
same buffers.  Numerical policy: kernels apply elementwise IEEE-754
operations in a fixed order, and aggregates use :func:`seq_sum` (a
strict left-to-right accumulation) instead of numpy's pairwise
``sum``, so every result is reproducible bit for bit; the committed
trajectory fingerprints in ``tests/golden/trajectories.json`` pin it.

The read-only/mutable mapping adapters at the bottom let existing
dict-shaped consumers (relaxed-LP controller, drift diagnostics,
contract checker) read array views through the plain ``Mapping``
protocol without copying into dicts.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingBase
from collections.abc import MutableMapping as MutableMappingBase
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.axes import (
    AnyArray,
    LinkToNode,
    LinkPackets,
    LinkVec,
    NodeIds,
    NodeJoules,
    NodeSessionMat,
    NodeVec,
    QueueMask,
    QueuePackets,
)
from repro.constants import FEASIBILITY_EPS
from repro.exceptions import EnergyError
from repro.types import Link, NodeId, SessionId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see state.py)
    from repro.core.lyapunov import LyapunovConstants
    from repro.model import NetworkModel

QueueKey = Tuple[NodeId, SessionId]


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


class NodeArrayMapping(MappingBase):
    """Read-only ``{node_id: value}`` view over an ``(N,)`` array.

    Node ids are dense ``0..N-1``, so the array index *is* the key.
    Values come back as Python ``float``/``bool`` scalars to match the
    dicts this adapter replaces.
    """

    __slots__ = ("_values", "_convert")

    def __init__(self, values: NodeVec) -> None:
        self._values = values
        self._convert = bool if values.dtype == np.bool_ else float

    @property
    def values_array(self) -> NodeVec:
        """The underlying ``(N,)`` array (node id = index).

        The controller's batched S4 assembly reads this directly
        instead of materialising ``N`` scalars through ``__getitem__``.
        """
        return self._values

    def __getitem__(self, node: NodeId) -> Any:
        try:
            index = int(node)
        except (TypeError, ValueError):
            raise KeyError(node) from None
        if not 0 <= index < self._values.shape[0]:
            raise KeyError(node)
        return self._convert(self._values[index])

    def __iter__(self) -> Iterator[NodeId]:
        return iter(range(self._values.shape[0]))

    def __len__(self) -> int:
        return self._values.shape[0]


class LinkArrayMapping(MappingBase):
    """Read-only ``{link: value}`` view over an ``(L,)`` array.

    ``links`` is the frozen link index the array is laid out over; the
    scheduler and router read ``values_array`` directly by link
    position.
    """

    __slots__ = ("_values", "_links", "_pos")

    def __init__(
        self,
        values: LinkVec,
        links: Tuple[Link, ...],
        positions: Dict[Link, int],
    ) -> None:
        self._values = values
        self._links = links
        self._pos = positions

    @property
    def links(self) -> Tuple[Link, ...]:
        return self._links

    @property
    def values_array(self) -> LinkVec:
        return self._values

    def __getitem__(self, link: Link) -> float:
        try:
            return float(self._values[self._pos[link]])
        except (KeyError, TypeError):
            raise KeyError(link) from None

    def __iter__(self) -> Iterator[Link]:
        return iter(self._links)

    def __len__(self) -> int:
        return len(self._links)


class QueueArrayMapping(MutableMappingBase):
    """``{(node, session): backlog}`` view over an ``(N, S)`` array.

    Iterates node-major over *valid* (non-destination) cells, matching
    the key order of the dict snapshots it replaces.  Mutable so the
    contract tests can perturb captured pre-state; the key set itself
    is frozen (no insertion/deletion).
    """

    __slots__ = ("_values", "_keys", "_pos")

    def __init__(
        self,
        values: NodeSessionMat,
        keys: Tuple[QueueKey, ...],
        positions: Dict[QueueKey, Tuple[int, int]],
    ) -> None:
        self._values = values
        self._keys = keys
        self._pos = positions

    def __getitem__(self, key: QueueKey) -> float:
        try:
            row, col = self._pos[key]
        except (KeyError, TypeError):
            raise KeyError(key) from None
        return float(self._values[row, col])

    def __setitem__(self, key: QueueKey, value: float) -> None:
        try:
            row, col = self._pos[key]
        except (KeyError, TypeError):
            raise KeyError(key) from None
        self._values[row, col] = value

    def __delitem__(self, key: QueueKey) -> None:
        raise TypeError("QueueArrayMapping has a frozen key set")

    def __iter__(self) -> Iterator[QueueKey]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class ArrayState:
    """Dense per-slot state: ``Q``, ``G``, battery levels, caps, ``z`` shift.

    Attributes:
        sessions: session ids in column order.
        session_col: session id -> column.
        links: frozen link index (``topology.candidate_links``).
        link_pos: link -> position in ``links``.
        link_tx / link_rx: ``(L,)`` int arrays of link endpoints.
        q: ``(N, S)`` data backlogs in packets; destination cells are
            pinned at exactly ``0.0``.
        q_valid / q_invalid: boolean masks over ``q``.
        g: ``(L,)`` virtual backlogs ``G_ij`` in packets
            (``H = beta * G`` is derived, never stored).
        battery_level: ``(N,)`` battery levels ``x_i`` in joules —
            shared storage for both :class:`~repro.energy.battery.Battery`
            and :class:`~repro.queueing.energy_queue.ShiftedEnergyQueue`.
        z_shift: ``(N,)`` shifts ``V * gamma_max + d_max_i`` so that
            ``z = battery_level - z_shift`` (Eq. 31).
        capacity_j / charge_cap_j / discharge_cap_j: ``(N,)`` battery
            bounds ``x_max`` / ``c_max`` / ``d_max`` (Eqs. 10-13).
        charge_efficiency / discharge_efficiency: ``(N,)`` conversion
            losses ``eta_c`` / ``eta_d``.
        bs_rows / user_rows: row indices for base stations and users.
    """

    # Axis declarations feeding the R020-R023 analyzer: attribute
    # reads like ``arrays.q`` resolve to these named layouts in every
    # module that threads an ArrayState.
    link_tx: LinkToNode
    link_rx: LinkToNode
    q: QueuePackets
    q_valid: QueueMask
    q_invalid: QueueMask
    g: LinkPackets
    battery_level: NodeJoules
    z_shift: NodeJoules
    capacity_j: NodeJoules
    charge_cap_j: NodeJoules
    discharge_cap_j: NodeJoules
    charge_efficiency: NodeVec
    discharge_efficiency: NodeVec
    bs_rows: NodeIds
    user_rows: NodeIds

    def __init__(self, model: "NetworkModel", constants: "LyapunovConstants") -> None:
        """Freeze the node/session/link indices and allocate the arrays.

        Cold path: runs once per simulation, before the slot loop.
        """
        params = model.params
        num_nodes = model.num_nodes
        sessions = tuple(s.session_id for s in model.sessions)
        destinations = model.session_destinations()
        links = model.topology.candidate_links

        self.num_nodes = num_nodes
        self.sessions = sessions
        self.session_col: Dict[SessionId, int] = {
            sid: col for col, sid in enumerate(sessions)
        }
        self.destinations = destinations
        self.links = links
        # The frozen endpoint arrays come straight off the topology —
        # both builders precompute them, so no per-link Python loop runs
        # here; the ``link -> position`` dict is built lazily because
        # only the scalar router paths read it.
        self.link_tx, self.link_rx = model.topology.link_arrays()
        self._link_pos: Optional[Dict[Link, int]] = None

        self.q = np.zeros((num_nodes, len(sessions)))  # noqa: R041 - (N, S) data backlog is the paper's state itself, not an all-pairs matrix; S stays O(10) while N scales
        valid = np.ones((num_nodes, len(sessions)), dtype=bool)  # noqa: R041 - (N, S) mask over the data backlog, same shape argument as q above
        for sid, dest in destinations.items():
            if 0 <= dest < num_nodes:
                valid[dest, self.session_col[sid]] = False
        self.q_valid = valid
        self.q_invalid = ~valid

        self.g = np.zeros(len(links))

        self.battery_level = np.zeros(num_nodes)
        self.z_shift = np.zeros(num_nodes)
        self.capacity_j = np.zeros(num_nodes)
        self.charge_cap_j = np.zeros(num_nodes)
        self.discharge_cap_j = np.zeros(num_nodes)
        self.charge_efficiency = np.ones(num_nodes)
        self.discharge_efficiency = np.ones(num_nodes)
        for node in model.nodes:
            energy = node.energy
            row = node.node_id
            self.capacity_j[row] = energy.battery_capacity_j
            self.charge_cap_j[row] = energy.charge_cap_j
            self.discharge_cap_j[row] = energy.discharge_cap_j
            self.charge_efficiency[row] = energy.charge_efficiency
            self.discharge_efficiency[row] = energy.discharge_efficiency
            # Same expression (and evaluation order) as
            # ShiftedEnergyQueue.shift_j, so z values match bit for bit.
            self.z_shift[row] = (
                params.control_v * constants.gamma_max + energy.discharge_cap_j
            )

        self.bs_rows = np.fromiter(
            model.bs_ids, dtype=np.intp, count=len(model.bs_ids)
        )
        self.user_rows = np.fromiter(
            model.user_ids, dtype=np.intp, count=len(model.user_ids)
        )
        self._q_keys: Tuple[QueueKey, ...] = ()
        self._q_pos: Dict[QueueKey, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Index helpers

    @property
    def link_pos(self) -> Dict[Link, int]:
        """``link -> position`` over the frozen link index (lazy).

        Only the router's constraint-(18) pass and a handful of
        boundary conversions read this; the array kernels index by
        position directly.
        """
        cached = self._link_pos
        if cached is None:
            cached = {link: p for p, link in enumerate(self.links)}
            self._link_pos = cached
        return cached

    def queue_keys(self) -> Tuple[QueueKey, ...]:
        """Valid ``(node, session)`` keys, node-major (lazily built)."""
        if not self._q_keys and self.q_valid.any():
            keys = []
            pos: Dict[QueueKey, Tuple[int, int]] = {}
            for row in range(self.num_nodes):  # noqa: R040 - built once and cached (self._q_keys); only the dict-shaped selectors and snapshots read it, the array kernels index (N, S) directly
                for col, sid in enumerate(self.sessions):  # noqa: R040 - inner S-sized loop of the one-time key build above
                    if self.q_valid[row, col]:
                        keys.append((row, sid))
                        pos[(row, sid)] = (row, col)
            self._q_keys = tuple(keys)
            self._q_pos = pos
        return self._q_keys

    def queue_positions(self) -> Dict[QueueKey, Tuple[int, int]]:
        """``(node, session) -> (row, col)`` for valid cells."""
        self.queue_keys()
        return self._q_pos

    def q_mapping(self, copy: bool = True) -> QueueArrayMapping:
        """Mutable mapping view of ``q`` (a copy by default)."""
        values = self.q.copy() if copy else self.q
        return QueueArrayMapping(values, self.queue_keys(), self.queue_positions())

    # ------------------------------------------------------------------
    # Vectorized kernels

    def apply_battery_actions(
        self,
        charge_j: NodeJoules,
        discharge_j: NodeJoules,
    ) -> None:
        """Advance every battery one slot (Eq. 4) with Eqs. 9-13 checks.

        ``charge_j``/``discharge_j`` are ``(N,)`` arrays of ``c_i(t)``
        and ``d_i(t)`` in joules.  Validation replicates
        :class:`~repro.energy.battery.BatteryAction` and
        ``Battery.validate`` for the first offending node; the update
        applies the same scalar operation chain
        ``x += eta_c * c - d; x = min(max(x, 0), x_max)`` elementwise.
        """
        level = self.battery_level
        capacity = self.capacity_j
        charge_cap = self.charge_cap_j
        discharge_cap = self.discharge_cap_j
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
        headroom = (capacity - level) / eta_c
        max_charge = np.minimum(charge_cap, headroom)
        over_charge = charge_j > max_charge + eps
        if np.any(over_charge):
            node = int(np.argmax(over_charge))
            raise EnergyError(
                f"constraint (11) violated: charge {charge_j[node]} J > "
                f"min(c_max, headroom) = {max_charge[node]} J"
            )
        max_discharge = np.minimum(discharge_cap, level)
        over_discharge = discharge_j > max_discharge + eps
        if np.any(over_discharge):
            node = int(np.argmax(over_discharge))
            raise EnergyError(
                f"constraint (12) violated: discharge {discharge_j[node]} J > "
                f"min(d_max, level) = {max_discharge[node]} J"
            )
        self.battery_level += eta_c * charge_j - discharge_j
        np.maximum(self.battery_level, 0.0, out=self.battery_level)
        np.minimum(self.battery_level, capacity, out=self.battery_level)

    def z_values_array(self) -> NodeJoules:
        """``(N,)`` shifted queue values ``z = x - shift`` (Eq. 31)."""
        return self.battery_level - self.z_shift

    def max_charge_j_array(self) -> NodeJoules:
        """``(N,)`` constraint-(11) input caps, one battery per row.

        Elementwise the same float64 chain as
        :meth:`~repro.energy.battery.Battery.max_charge_j`, so the
        batched S4 inputs match the scalar reads bit for bit.
        """
        headroom = (self.capacity_j - self.battery_level) / self.charge_efficiency
        return np.minimum(self.charge_cap_j, headroom)

    def max_deliverable_j_array(self) -> NodeJoules:
        """``(N,)`` deliverable discharge caps (constraint 12 + losses).

        Mirrors :meth:`~repro.energy.battery.Battery.max_deliverable_j`
        elementwise.
        """
        return self.discharge_efficiency * np.minimum(
            self.discharge_cap_j, self.battery_level
        )
