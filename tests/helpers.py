"""Shared test helpers: exact fingerprints, oracles and array views.

``decision_fingerprint`` turns one :class:`~repro.control.decisions.SlotDecision`
into an exactly comparable tuple (the dense-vs-sparse and golden suites
compare them with ``==``).  ``trajectory_sha256`` folds a whole run —
every slot's decision, its S4 energy allocation (rendered by
``canonical_energy``) and the slot metrics (``BacklogSnapshot``, cost,
penalty, flows) — into one SHA-256 digest, so a committed hex string
pins a trajectory bit for bit.
``queue_step``/``virtual_step`` drive the Eq. 15 and Eq. 28 kernels of
:class:`~repro.core.arraystate.ArrayState` from dict-shaped inputs, and
``schedule_of`` builds an S1 decision from ``Transmission`` records.
``make_snapshot_oracle`` is the plain-Python backlog aggregation the
array kernel :func:`~repro.queueing.backlog.make_snapshot_from_arrays`
must reproduce exactly.  ``dense_gain_oracle`` is the all-pairs
``(N, N)`` gain matrix of a placement, which every pair-gain view must
reproduce bit for bit.  ``link_view`` lays a ``{link: value}`` dict
out as the ``(L,)`` view over the frozen candidate-link index that the
scheduler and router take.
"""

from __future__ import annotations

import dataclasses
import hashlib
import numbers
from collections.abc import Mapping

import numpy as np

from repro.control.decisions import ScheduleDecision
from repro.core.arraystate import LinkArrayMapping
from repro.phy.propagation import gain_matrix
from repro.queueing import BacklogSnapshot
from repro.sim import SlotSimulator


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


def link_view(model, values):
    """``{link: value}`` as a view over ``model``'s candidate-link index.

    Links absent from ``values`` read 0.0.
    """
    links = model.topology.candidate_links
    positions = {link: p for p, link in enumerate(links)}
    array = np.zeros(len(links))
    for link, value in values.items():
        array[positions[link]] = value
    return LinkArrayMapping(array, links, positions)


def queue_step(arrays, rates=None, admissions=()):
    """One Eq. 15 kernel step from dicts; returns the effective transfer.

    ``rates`` maps ``(tx, rx, session)`` to routed packets (in entry
    order); ``admissions`` lists ``(node, session, packets)`` arrivals.
    """
    rates = rates or {}
    return arrays.advance_q(
        np.array([arrays.link_pos[key[:2]] for key in rates], dtype=np.intp),
        np.array([arrays.session_col[key[2]] for key in rates], dtype=np.intp),
        np.array(list(rates.values()), dtype=float),
        np.array([node for node, _, _ in admissions], dtype=np.intp),
        np.array([arrays.session_col[s] for _, s, _ in admissions], dtype=np.intp),
        np.array([k for _, _, k in admissions], dtype=float),
    )


def virtual_step(arrays, arrivals=None, service=None):
    """One Eq. 28 kernel step from ``{link: packets}`` dicts.

    Links absent from ``service`` are served 0.0 packets.
    """
    arrivals = arrivals or {}
    service_vector = np.zeros(len(arrays.links))
    for link, pkts in (service or {}).items():
        service_vector[arrays.link_pos[link]] = pkts
    arrays.advance_g(
        np.array([arrays.link_pos[link] for link in arrivals], dtype=np.intp),
        np.array(list(arrivals.values()), dtype=float),
        service_vector,
    )


def schedule_of(transmissions):
    """A :class:`~repro.control.decisions.ScheduleDecision` of ``transmissions``.

    The entries index a link tuple of their own (links in order of first
    appearance), so hand-built schedules need not use candidate links.
    """
    links = tuple(dict.fromkeys(t.link for t in transmissions))
    position = {link: p for p, link in enumerate(links)}
    return ScheduleDecision(
        link_pos=np.array([position[t.link] for t in transmissions], dtype=np.intp),
        band=np.array([t.band for t in transmissions], dtype=np.intp),
        power_w=np.array([t.power_w for t in transmissions], dtype=float),
        links=links,
    )


def make_snapshot_oracle(
    slot, data_backlogs, battery_levels, virtual_backlogs, bs_ids
):
    """Aggregate dict-shaped backlogs with left-to-right Python sums."""
    bs_set = set(bs_ids)
    return BacklogSnapshot(
        slot=slot,
        bs_data_packets=sum(
            v for (node, _), v in data_backlogs.items() if node in bs_set
        ),
        user_data_packets=sum(
            v for (node, _), v in data_backlogs.items() if node not in bs_set
        ),
        bs_energy_j=sum(v for node, v in battery_levels.items() if node in bs_set),
        user_energy_j=sum(
            v for node, v in battery_levels.items() if node not in bs_set
        ),
        virtual_packets=sum(virtual_backlogs.values()),
    )


def dense_gain_oracle(positions, constant, exponent):
    """All-pairs ``g_ij = C d(i, j)^-gamma`` of a ``Point`` placement."""
    coords = np.array([[p.x, p.y] for p in positions])
    diffs = coords[:, None, :] - coords[None, :, :]
    distances = np.sqrt((diffs**2).sum(axis=2))
    return gain_matrix(distances, constant, exponent)


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
        digest.update(canonical(sim.metrics.slots[-1]).encode())
    return digest.hexdigest()
