"""Shared test helpers: exact fingerprints, oracles and array views.

``decision_fingerprint`` turns one :class:`~repro.control.decisions.SlotDecision`
into an exactly comparable tuple (the dense-vs-sparse and golden suites
compare them with ``==``).  ``trajectory_sha256`` folds a whole run —
every slot's decision, its S4 energy allocation (rendered by
``canonical_energy``) and its row of the metrics record (rendered by
``canonical_slot_metrics``: backlog totals, cost, penalty, flows) —
into one SHA-256 digest, so a committed hex string pins a trajectory
bit for bit.
``queue_step``/``virtual_step`` drive the Eq. 15 and Eq. 28 kernels of
:class:`~repro.core.arraystate.ArrayState` from dict-shaped inputs, and
``schedule_of`` builds an S1 decision from ``Transmission`` records.
``backlog_totals_oracle`` is the plain-Python backlog aggregation the
array kernel :func:`~repro.sim.metrics.backlog_totals` must reproduce
exactly.  ``one_battery`` builds a one-node
:class:`~repro.core.arraystate.ArrayState` around a single battery, and
``battery_law_oracle`` is the scalar Eq. 4 chain its kernel must
reproduce bit for bit.  ``link_position`` finds a ``(tx, rx)`` link's
position in the frozen link index (``link_tuples``, ``out_neighbors``
and ``in_neighbors`` read the index back as tuples), and ``link_view``
lays a
``{link: value}`` dict out as the ``(L,)`` array over that index that
the scheduler and router take; ``queue_dict`` reads the valid cells of
``Q`` back as a ``{(node, session): backlog}`` dict, and
``common_bands`` reads a link's usable bands off the band table.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import numbers
from collections.abc import Mapping
from types import SimpleNamespace

import numpy as np

from repro.config.parameters import EnergyParameters
from repro.control.decisions import ScheduleDecision
from repro.core.arraystate import ArrayState
from repro.model import NetworkModel
from repro.sim import SlotSimulator
from repro.sim.metrics import BACKLOG_COLUMNS, COLUMNS, FLOW_FIELDS
from repro.types import QueueSemantics


def decision_fingerprint(decision):
    """Everything a slot decided, as an exactly comparable tuple."""
    return (
        tuple(decision.schedule.transmissions),
        tuple(decision.schedule.link_service_pkts.items()),
        tuple(decision.schedule.dropped),
        tuple(decision.admission.sources.items()),
        tuple(decision.admission.admitted.items()),
        tuple(decision.routing.rates.items()),
        tuple(decision.curtailed),
    )


def link_position(index, tx, rx):
    """Position of link ``(tx, rx)`` in ``index``'s frozen link index.

    ``index`` is anything carrying the ``link_tx``/``link_rx`` endpoint
    arrays (a topology, an ``ArrayState``).  Raises ``KeyError`` for a
    pair that is not a candidate link.
    """
    hit = np.flatnonzero((index.link_tx == tx) & (index.link_rx == rx))
    if hit.size == 0:
        raise KeyError((tx, rx))
    return int(hit[0])


def link_tuples(topology):
    """The candidate links as ``(tx, rx)`` tuples of ints, by position."""
    return [tuple(link) for link in topology.candidate_links.tolist()]


def out_neighbors(topology, tx):
    """Receivers of ``tx``'s links, in link-index order."""
    return tuple(topology.link_rx[topology.link_tx == tx].tolist())


def in_neighbors(topology, rx):
    """Transmitters of ``rx``'s incoming links, ascending."""
    return tuple(topology.link_tx[topology.link_rx == rx].tolist())


def link_view(model, values):
    """``{link: value}`` as an ``(L,)`` array over ``model``'s link index.

    Links absent from ``values`` read 0.0.
    """
    topology = model.topology
    array = np.zeros(topology.link_tx.shape[0])
    for (tx, rx), value in values.items():
        array[link_position(topology, tx, rx)] = value
    return array


def common_bands(observation, model, tx, rx):
    """``M_i(t) ∩ M_j(t)`` in ascending band order, read off the band table.

    The slot's table under dynamic availability, else the static one.
    """
    table = observation.band_access
    if table is None:
        table = model.spectrum.band_access
    return np.flatnonzero(table[tx] & table[rx]).tolist()


def queue_dict(arrays):
    """The valid ``(node, session)`` cells of ``arrays.q``, node-major.

    Session ``sid`` is column ``sid``.
    """
    return {
        (row, sid): float(arrays.q[row, sid])
        for row in range(arrays.num_nodes)
        for sid in range(arrays.q.shape[1])
        if arrays.q_valid[row, sid]
    }


def queue_step(arrays, rates=None, admissions=()):
    """One Eq. 15 kernel step from dicts; returns the effective transfer.

    ``rates`` maps ``(tx, rx, session)`` to routed packets (in entry
    order); ``admissions`` lists ``(node, session, packets)`` arrivals.
    """
    rates = rates or {}
    return arrays.advance_q(
        np.array([link_position(arrays, *key[:2]) for key in rates], dtype=np.intp),
        np.array([key[2] for key in rates], dtype=np.intp),
        np.array(list(rates.values()), dtype=float),
        np.array([node for node, _, _ in admissions], dtype=np.intp),
        np.array([s for _, s, _ in admissions], dtype=np.intp),
        np.array([k for _, _, k in admissions], dtype=float),
    )


def virtual_step(arrays, arrivals=None, service=None):
    """One Eq. 28 kernel step from ``{link: packets}`` dicts.

    Links absent from ``service`` are served 0.0 packets.
    """
    arrivals = arrivals or {}
    service = service or {}
    arrays.advance_g(
        np.array([link_position(arrays, *link) for link in arrivals], dtype=np.intp),
        np.array(list(arrivals.values()), dtype=float),
        np.array([link_position(arrays, *link) for link in service], dtype=np.intp),
        np.array(list(service.values()), dtype=float),
    )


def schedule_of(transmissions):
    """A :class:`~repro.control.decisions.ScheduleDecision` of ``transmissions``.

    The entries index a link index of their own (links in order of
    first appearance), so hand-built schedules need not use candidate
    links.
    """
    links = tuple(dict.fromkeys(t.link for t in transmissions))
    position = {link: p for p, link in enumerate(links)}
    ends = np.array(links, dtype=np.intp).reshape(-1, 2)
    return ScheduleDecision(
        link_pos=np.array([position[t.link] for t in transmissions], dtype=np.intp),
        band=np.array([t.band for t in transmissions], dtype=np.intp),
        power_w=np.array([t.power_w for t in transmissions], dtype=float),
        link_tx=ends[:, 0],
        link_rx=ends[:, 1],
    )


def one_battery(
    capacity_j,
    charge_cap_j,
    discharge_cap_j,
    level_j=0.0,
    charge_efficiency=1.0,
    discharge_efficiency=1.0,
    control_v=0.0,
    gamma_max=0.0,
):
    """A one-node :class:`ArrayState` holding one battery at ``level_j``.

    The node's :class:`EnergyParameters` are validated as a scenario's
    are (Eq. 13 and the efficiencies); the model and constants are
    stubs carrying only what ``ArrayState`` reads.
    """
    energy = EnergyParameters(
        renewable_max_w=0.0,
        battery_capacity_j=capacity_j,
        charge_cap_j=charge_cap_j,
        discharge_cap_j=discharge_cap_j,
        grid_cap_j=0.0,
        grid_connect_prob=0.0,
        charge_efficiency=charge_efficiency,
        discharge_efficiency=discharge_efficiency,
    )
    no_links = np.zeros(0, dtype=np.intp)
    model = SimpleNamespace(
        params=SimpleNamespace(
            queue_semantics=QueueSemantics.PAPER,
            control_v=control_v,
            num_base_stations=1,
            bs_energy=energy,
            user_energy=energy,
        ),
        num_nodes=1,
        destination_rows=np.zeros(0, dtype=np.intp),
        topology=SimpleNamespace(link_tx=no_links, link_rx=no_links),
    )
    model.node_vector = functools.partial(NetworkModel.node_vector, model)
    arrays = ArrayState(model, SimpleNamespace(gamma_max=gamma_max, beta=1.0))
    arrays.battery_level[0] = level_j
    return arrays


def battery_step(arrays, charge_j=0.0, discharge_j=0.0):
    """Apply one action to a :func:`one_battery`; return the new level."""
    arrays.apply_battery_actions(np.array([charge_j]), np.array([discharge_j]))
    return float(arrays.battery_level[0])


def battery_law_oracle(level_j, charge_j, drain_j, charge_efficiency, capacity_j):
    """Eq. 4 for one battery: ``x + eta_c c - d``, clamped to ``[0, x_max]``."""
    level_j += charge_efficiency * charge_j - drain_j
    return min(max(level_j, 0.0), capacity_j)


def backlog_totals_oracle(data_backlogs, battery_levels, virtual_backlogs, bs_ids):
    """Aggregate dict-shaped backlogs with left-to-right Python sums.

    Returns the five totals in ``BACKLOG_COLUMNS`` order.
    """
    bs_set = set(bs_ids)
    return (
        sum(v for (node, _), v in data_backlogs.items() if node in bs_set),
        sum(v for (node, _), v in data_backlogs.items() if node not in bs_set),
        sum(v for node, v in battery_levels.items() if node in bs_set),
        sum(v for node, v in battery_levels.items() if node not in bs_set),
        sum(virtual_backlogs.values()),
    )


def canonical(value) -> str:
    """A type-stable text form: floats by ``float.hex``, order kept.

    numpy and Python scalars of equal value render identically, so the
    digest depends on the numbers and their order, not on which
    container type or scalar width carried them.
    """
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return float(value).hex()
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        inner = ",".join(
            f"{f.name}={canonical(getattr(value, f.name))}" for f in fields
        )
        return f"{type(value).__name__}({inner})"
    if isinstance(value, Mapping):
        return "{" + ",".join(
            f"{canonical(k)}:{canonical(v)}" for k, v in value.items()
        ) + "}"
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def canonical_energy(energy, bs_ids) -> str:
    """An S4 decision in the text of the per-node mapping it replaced.

    The pinned trajectories hash S4 output as
    ``EnergyManagementDecision(allocations={node: NodeEnergyAllocation(
    ...)}, ...)`` with users first and then base stations, each in
    ascending node order; this renders the ``(N,)`` vectors of the
    :class:`~repro.control.decisions.BatchAllocation` the same way, so
    the committed digests stay valid.
    """
    allocation = energy.allocation
    is_bs = np.zeros(len(allocation), dtype=bool)
    is_bs[list(bs_ids)] = True
    order = np.concatenate((np.flatnonzero(~is_bs), np.flatnonzero(is_bs)))
    names = [f.name for f in dataclasses.fields(allocation)]
    rows = ",".join(
        f"{canonical(node)}:NodeEnergyAllocation("
        + ",".join(
            f"{name}={canonical(getattr(allocation, name)[node])}"
            for name in names
        )
        + ")"
        for node in order
    )
    return (
        f"EnergyManagementDecision(allocations={{{rows}}},"
        f"bs_grid_draw_j={canonical(energy.bs_grid_draw_j)},"
        f"cost={canonical(energy.cost)})"
    )


#: The scalar fields of the per-slot metrics object the pinned
#: trajectories hash, in its declaration order, and those it held as ints.
_SLOT_FIELDS = (
    "slot",
    "grid_draw_j",
    "cost",
    "admitted_pkts",
    "penalty",
    "delivered_pkts",
    "scheduled_links",
    "curtailed_links",
    "deficit_j",
    "spill_j",
)
_INT_FIELDS = ("slot", "scheduled_links", "curtailed_links")


def canonical_slot_metrics(metrics, slot) -> str:
    """Row ``slot`` of a metrics record in the text of the objects it replaced.

    The pinned trajectories hash each slot's metrics as
    ``SlotMetrics(..., snapshot=BacklogSnapshot(...), bs_flows=
    EnergyFlows(...), user_flows=EnergyFlows(...))``, with the slot
    index and link counts as ints.  A slot that shed nothing hashed
    its ``deficit_j`` as the int 0 (an empty sum); the record holds it
    as 0.0, which this renders as ``0`` again, so the committed digests
    stay valid.
    """
    row = {name: metrics.series(name)[slot] for name in COLUMNS}

    def fields(names, prefix=""):
        parts = []
        for name in names:
            value = row[prefix + name]
            integral = name in _INT_FIELDS or (name == "deficit_j" and not value)
            parts.append(f"{name}={int(value) if integral else canonical(value)}")
        return ",".join(parts)

    return (
        f"SlotMetrics({fields(_SLOT_FIELDS)},"
        f"snapshot=BacklogSnapshot({fields(('slot', *BACKLOG_COLUMNS))}),"
        f"bs_flows=EnergyFlows({fields(FLOW_FIELDS, 'bs_')}),"
        f"user_flows=EnergyFlows({fields(FLOW_FIELDS, 'user_')}))"
    )


def trajectory_sha256(params, scheduler_kind) -> str:
    """SHA-256 over a full run's decisions and slot metrics.

    ``scheduler_kind`` None runs the relaxed-LP controller of the
    Theorem-5 bound instead of the integral one.
    """
    if scheduler_kind is None:
        sim = SlotSimulator.relaxed(params)
    else:
        sim = SlotSimulator.integral(params, scheduler_kind=scheduler_kind)
    bs_ids = sim.model.bs_ids
    digest = hashlib.sha256()
    for slot in range(params.num_slots):
        decision = sim.step(slot)
        digest.update(canonical(decision_fingerprint(decision)).encode())
        digest.update(canonical_energy(decision.energy, bs_ids).encode())
        digest.update(canonical_slot_metrics(sim.metrics, slot).encode())
    return digest.hexdigest()
