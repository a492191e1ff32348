"""Per-slot validation of the paper's invariants (Eqs. 9-31).

:class:`ContractChecker` is deliberately an *independent* re-derivation
of the laws the simulator implements: the data-queue law (Eq. 15), the
virtual-queue laws (Eqs. 28, 30), the shifted-energy-queue law
(Eq. 31) and the battery dynamics (Eqs. 4, 9-13) are recomputed here
from the slot's decision and the pre-apply state, then compared to
what the simulator actually produced.  A refactor that changes either
side surfaces as a :class:`ContractViolation` instead of a silently
wrong cost curve.

The checker is wired into four layers:

* the engine validates the full state transition after ``apply``;
* the controller validates the final (post-curtailment) decision and
  the demand-coverage balance (Eq. 2);
* each subproblem module (S1-S4) validates its own raw output —
  scheduling feasibility (Eqs. 20-22, 24), admission (Eq. 19),
  routing flow rules (Eqs. 16-17), energy allocation (Eqs. 3, 9-14).

At strictness ``off`` every entry point returns after a single
attribute test, so the hot loop pays no measurable overhead.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.axes import AnyArray, LinkPackets, NodeJoules, QueuePackets
from repro.constants import FEASIBILITY_EPS
from repro.core.arraystate import seq_sum
from repro.contracts.violations import ContractViolation
from repro.phy.sinr import co_band_gain_block, sinr_in_group
from repro.types import Link, NodeId, QueueSemantics, Transmission

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.control.decisions import (
        AdmissionDecision,
        EnergyManagementDecision,
        RoutingDecision,
        ScheduleDecision,
        SlotDecision,
        SlotObservation,
    )
    from repro.control.energy_manager import NodeEnergyBatch
    from repro.model import NetworkModel
    from repro.state import NetworkState

logger = logging.getLogger("repro.contracts")

#: Absolute tolerance for energy comparisons (joules).
ENERGY_ATOL = 1e-6
#: Absolute tolerance for queue-backlog comparisons (packets).
QUEUE_ATOL = 1e-6
#: Relative slack granted to SINR feasibility checks.
SINR_RTOL = 1e-7


#: Relative tolerance of :func:`_close`: sized for the loosest solver
#: in the pipeline, the relaxed LP bound, whose HiGHS solution meets
#: its equality rows only to the primal feasibility tolerance (1e-7);
#: genuine contract violations are orders of magnitude larger.
_REL_TOL = 1e-6
#: The six :class:`~repro.control.decisions.BatchAllocation` flows.
_FLOW_FIELDS = (
    "renewable_serve_j",
    "renewable_charge_j",
    "grid_serve_j",
    "grid_charge_j",
    "discharge_j",
    "spill_j",
)


def _close(a: float, b: float, abs_tol: float) -> bool:
    """Tolerant equality with a relative component for large values."""
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=abs_tol)


def _close_array(a: np.ndarray, b: np.ndarray, abs_tol: float) -> np.ndarray:
    """Elementwise :func:`_close` (same symmetric ``math.isclose`` rule)."""
    scale = _REL_TOL * np.maximum(np.abs(a), np.abs(b))
    return (a == b) | (np.abs(a - b) <= np.maximum(scale, abs_tol))


class Strictness(enum.Enum):
    """How the checker reacts to a violated contract."""

    OFF = "off"
    WARN = "warn"
    STRICT = "strict"


def coerce_strictness(
    value: Union["Strictness", str, None],
) -> "Strictness":
    """Accept a :class:`Strictness`, its string value, or ``None``."""
    if value is None:
        return Strictness.OFF
    if isinstance(value, Strictness):
        return value
    return Strictness(value)


@dataclass(frozen=True)
class PreApplySnapshot:
    """State captured immediately before ``NetworkState.apply``.

    Copies of the ``ArrayState`` buffers the transition reads, in
    their layouts: ``q`` is ``(N, S)``, ``g`` is ``(L,)`` by link
    position and ``battery_level`` is ``(N,)`` (see docs/contracts.md).
    """

    q: QueuePackets
    g: LinkPackets
    battery_level: NodeJoules


class ContractChecker:
    """Validates the paper's per-slot invariants at a strictness level.

    Args:
        strictness: ``off`` disables all checks, ``warn`` logs the
            first occurrence of each violated contract, ``strict``
            raises :class:`ContractViolation` immediately.
    """

    def __init__(
        self, strictness: Union[Strictness, str, None] = Strictness.STRICT
    ) -> None:
        self.strictness = coerce_strictness(strictness)
        #: Total violations observed (warn mode keeps counting even
        #: after the once-per-contract log line).
        self.violation_count = 0
        #: The violations observed in warn mode, in order.
        self.violations: List[ContractViolation] = []
        self._warned_equations: set = set()

    @property
    def enabled(self) -> bool:
        """False at strictness ``off`` — every check short-circuits."""
        return self.strictness is not Strictness.OFF

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _report(self, violation: ContractViolation) -> None:
        self.violation_count += 1
        if self.strictness is Strictness.STRICT:
            raise violation
        self.violations.append(violation)
        if violation.equation not in self._warned_equations:
            self._warned_equations.add(violation.equation)
            logger.warning("contract violated: %s", violation)

    def _violate(
        self,
        equation: str,
        detail: str,
        slot: Optional[int] = None,
        node: Optional[NodeId] = None,
        link: Optional[Link] = None,
    ) -> None:
        self._report(
            ContractViolation(equation, detail, slot=slot, node=node, link=link)
        )

    # ------------------------------------------------------------------
    # S1: scheduling feasibility (Eqs. 20-22, 24)
    # ------------------------------------------------------------------

    def check_schedule(
        self,
        model: "NetworkModel",
        observation: "SlotObservation",
        schedule: "ScheduleDecision",
        slot: Optional[int] = None,
    ) -> None:
        """Radio feasibility (Eqs. 20-22) and SINR (Eq. 24) of S1."""
        if not self.enabled:
            return
        # Built once: the property makes a tuple of records per access.
        transmissions = schedule.transmissions
        self._check_radio_feasibility(model, transmissions, slot)
        self._check_sinr_feasibility(model, observation, transmissions, slot)

    def _check_radio_feasibility(
        self,
        model: "NetworkModel",
        transmissions: Sequence[Transmission],
        slot: Optional[int],
    ) -> None:
        usage: Dict[NodeId, int] = {}
        band_usage: Dict[Tuple[NodeId, int], int] = {}
        for t in transmissions:
            if t.tx == t.rx:
                self._violate(
                    "Eq. 22",
                    f"self-loop transmission on band {t.band}",
                    slot=slot,
                    node=t.tx,
                )
            for node in (t.tx, t.rx):
                usage[node] = usage.get(node, 0) + 1
                band_usage[(node, t.band)] = band_usage.get((node, t.band), 0) + 1
        bs, user = model.params.bs_node, model.params.user_node
        radios_of = model.node_vector(bs.num_radios, user.num_radios, int)
        for node, count in usage.items():
            radios = int(radios_of[node])
            if count > radios:
                self._violate(
                    "Eq. 22",
                    f"node participates in {count} transmissions "
                    f"but has {radios} radio(s)",
                    slot=slot,
                    node=node,
                )
        for (node, band), count in band_usage.items():
            if count > 1:
                self._violate(
                    "Eqs. 20-21",
                    f"node active {count} times on band {band} "
                    "(one activity per node per band)",
                    slot=slot,
                    node=node,
                )

    def _check_sinr_feasibility(
        self,
        model: "NetworkModel",
        observation: "SlotObservation",
        transmissions: Sequence[Transmission],
        slot: Optional[int],
    ) -> None:
        gains = observation.pair_gains(model)
        threshold = model.params.sinr_threshold
        # One gain block per band over its transmissions (schedule
        # order), instead of O(k^2) scalar reads of the gain view.
        groups: Dict[int, List[Transmission]] = {}
        cols: List[int] = []
        for t in transmissions:
            group = groups.setdefault(t.band, [])
            cols.append(len(group))
            group.append(t)
        blocks = {
            band: co_band_gain_block(gains, group) for band, group in groups.items()
        }
        for t, col in zip(transmissions, cols):
            cap = model.max_power_w[t.tx]
            if t.power_w < -FEASIBILITY_EPS or t.power_w > cap * (1 + SINR_RTOL):
                self._violate(
                    "Eq. 24",
                    f"transmit power {t.power_w} W outside [0, {cap}] W",
                    slot=slot,
                    node=t.tx,
                    link=t.link,
                )
                continue
            noise = model.noise_power_w(observation.bands.bandwidth(t.band))
            value = sinr_in_group(blocks[t.band], groups[t.band], col, noise)
            if value < threshold * (1 - SINR_RTOL):
                self._violate(
                    "Eq. 24",
                    f"scheduled link decodes at SINR {value:.6g} "
                    f"< threshold {threshold:.6g} on band {t.band}",
                    slot=slot,
                    link=t.link,
                )

    # ------------------------------------------------------------------
    # S2: admission (Eq. 19)
    # ------------------------------------------------------------------

    def check_admission(
        self,
        model: "NetworkModel",
        admission: "AdmissionDecision",
        slot: Optional[int] = None,
    ) -> None:
        """Single-source admission within ``[0, K_max]`` (Eq. 19)."""
        if not self.enabled:
            return
        bs_set = set(model.bs_ids)
        k_max = {s.session_id: s.k_max for s in model.sessions}  # noqa: R040 - S-sized dict (S stays O(10)); contracts are a diagnostic layer, off by default
        for session, source in admission.sources.items():
            if source not in bs_set:
                self._violate(
                    "Eq. 19",
                    f"session {session} sourced at non-base-station",
                    slot=slot,
                    node=source,
                )
            admitted = float(admission.admitted.get(session, 0.0))
            cap = float(k_max.get(session, 0.0))
            if admitted < -QUEUE_ATOL or admitted > cap + QUEUE_ATOL:
                self._violate(
                    "Eq. 19",
                    f"session {session} admits {admitted} pkts "
                    f"outside [0, {cap}]",
                    slot=slot,
                    node=source,
                )
            split = admission.split.get(session)
            if split is not None:
                total = sum(k for _, k in split)
                if not _close(total, admitted, QUEUE_ATOL):
                    self._violate(
                        "Eq. 19",
                        f"session {session} split admission sums to "
                        f"{total} != admitted {admitted}",
                        slot=slot,
                    )

    # ------------------------------------------------------------------
    # S3: routing flow rules (Eqs. 16-17)
    # ------------------------------------------------------------------

    def check_routing(
        self,
        model: "NetworkModel",
        routing: "RoutingDecision",
        admission: "AdmissionDecision",
        slot: Optional[int] = None,
    ) -> None:
        """Non-negative rates and the flow rules (Eqs. 16-17)."""
        if not self.enabled:
            return
        # Entries in ascending link position (emission order on ties).
        order = np.argsort(routing.link_pos, kind="stable")
        pos, col = routing.link_pos[order], routing.session_col[order]
        rate = routing.pkts[order]
        tx, rx = routing.link_tx[pos], routing.link_rx[pos]
        session = np.asarray(routing.sessions)[col]
        links = (tx, rx)
        self._violate_rows(
            "Eq. 25",
            (rate < -QUEUE_ATOL) | ~np.isfinite(rate),
            None,
            lambda i: f"routing rate {rate[i]} pkts for session {session[i]} "
            "is negative or non-finite",
            slot,
            links,
        )
        self._violate_rows(
            "Eq. 17",
            tx == model.destination_rows[col],
            None,
            lambda i: f"destination of session {session[i]} re-emits packets",
            slot,
            links,
        )
        self._violate_rows(
            "Eq. 16",
            rx == admission.source_rows[col],
            None,
            lambda i: f"source of session {session[i]} receives packets",
            slot,
            links,
        )

    # ------------------------------------------------------------------
    # S4: energy allocation (Eqs. 3, 9-14)
    # ------------------------------------------------------------------

    def check_energy(
        self,
        batch: "NodeEnergyBatch",
        decision: "EnergyManagementDecision",
        slot: Optional[int] = None,
    ) -> None:
        """Per-node source balances and caps of the S4 output."""
        if not self.enabled:
            return
        alloc = decision.allocation
        if len(alloc) != len(batch):
            self._violate(
                "Eq. 2",
                f"S4 returned {len(alloc)} allocation rows for "
                f"{len(batch)} nodes",
                slot=slot,
            )
            return
        nodes = batch.nodes
        for name in _FLOW_FIELDS:
            value = getattr(alloc, name)
            for i in np.flatnonzero(value < -ENERGY_ATOL):
                self._violate(
                    "Eq. 14",
                    f"negative energy flow {name}={value[i]} J",
                    slot=slot,
                    node=int(nodes[i]),
                )
        # Eq. 3 (with the documented spill extension): the harvest
        # splits exactly into serve + charge + spill.
        used = alloc.renewable_serve_j + alloc.renewable_charge_j + alloc.spill_j
        renewable = batch.renewable_j
        self._violate_rows(
            "Eq. 3",
            ~_close_array(used, renewable, ENERGY_ATOL),
            nodes,
            lambda i: f"renewable split {used[i]} J != harvest {renewable[i]} J",
            slot,
        )
        # Eq. 14: grid draw within the (connectivity-gated) cap.
        draw, usable = alloc.grid_draw_j, batch.usable_grid_j
        self._violate_rows(
            "Eq. 14",
            draw > usable + ENERGY_ATOL,
            nodes,
            lambda i: f"grid draw {draw[i]} J exceeds usable cap {usable[i]} J",
            slot,
        )
        # Eqs. 11-12: charge/discharge within the effective caps.
        charge, discharge = alloc.charge_j, alloc.discharge_j
        self._violate_rows(
            "Eq. 11",
            charge > batch.charge_cap_j + ENERGY_ATOL,
            nodes,
            lambda i: f"charge {charge[i]} J exceeds effective cap "
            f"{batch.charge_cap_j[i]} J",
            slot,
        )
        self._violate_rows(
            "Eq. 12",
            discharge > batch.discharge_cap_j + ENERGY_ATOL,
            nodes,
            lambda i: f"discharge {discharge[i]} J exceeds effective cap "
            f"{batch.discharge_cap_j[i]} J",
            slot,
        )
        # Eq. 9: charge-xor-discharge complementarity.
        self._violate_rows(
            "Eq. 9",
            (charge > ENERGY_ATOL) & (discharge > ENERGY_ATOL),
            nodes,
            lambda i: f"simultaneous charge ({charge[i]} J) and "
            f"discharge ({discharge[i]} J)",
            slot,
        )
        # Eq. 2: demand exactly covered by the three sources.
        served, demand = alloc.demand_served_j, batch.demand_j
        self._violate_rows(
            "Eq. 2",
            ~_close_array(served, demand, ENERGY_ATOL),
            nodes,
            lambda i: f"served {served[i]} J != demand {demand[i]} J",
            slot,
        )
        bs_draw = seq_sum(draw[batch.is_base_station])
        if not _close(bs_draw, decision.bs_grid_draw_j, ENERGY_ATOL):
            self._violate(
                "Eq. 5",
                f"P(t) = {decision.bs_grid_draw_j} J != sum of "
                f"base-station draws {bs_draw} J",
                slot=slot,
            )

    def _violate_rows(
        self,
        equation: str,
        bad: np.ndarray,
        nodes: Optional[AnyArray],
        detail: Callable[[int], str],
        slot: Optional[int],
        links: Optional[Tuple[AnyArray, AnyArray]] = None,
    ) -> None:
        """Report ``equation`` at every row flagged in ``bad``, in row order.

        ``nodes[i]`` names row ``i``'s node and ``links`` — a
        ``(tx, rx)`` pair of row-aligned arrays — its link; either may
        be None.
        """
        for i in np.flatnonzero(bad):
            self._violate(
                equation,
                detail(i),
                slot=slot,
                node=None if nodes is None else int(nodes[i]),
                link=None if links is None else (int(links[0][i]), int(links[1][i])),
            )

    # ------------------------------------------------------------------
    # Controller: demand coverage after curtailment (Eq. 2)
    # ------------------------------------------------------------------

    def check_demand_coverage(
        self,
        demands_j: np.ndarray,
        deficit_j: np.ndarray,
        decision: "EnergyManagementDecision",
        slot: Optional[int] = None,
    ) -> None:
        """Every node's slot demand is served, less the recorded deficit.

        ``demands_j`` and ``deficit_j`` are ``(N,)`` vectors over node
        ids.  The controller's curtailment pass (documented extension
        of Eq. 2) may shed base demand that no supply can cover; the
        shed amount must be accounted in ``deficit_j``, never silently
        lost.
        """
        if not self.enabled:
            return
        served = decision.allocation.demand_served_j
        if served.size != demands_j.size:
            self._violate(
                "Eq. 2",
                f"S4 output covers {served.size} of {demands_j.size} nodes",
                slot=slot,
            )
            return
        expected = np.maximum(0.0, demands_j - deficit_j)
        self._violate_rows(
            "Eq. 2",
            ~_close_array(served, expected, ENERGY_ATOL),
            np.arange(served.size),
            lambda i: f"served {served[i]} J != demand {demands_j[i]} J "
            f"minus deficit {deficit_j[i]} J",
            slot,
        )

    # ------------------------------------------------------------------
    # Engine: the full state transition
    # ------------------------------------------------------------------

    def capture(self, state: "NetworkState") -> Optional[PreApplySnapshot]:
        """Snapshot the queue/battery state before ``apply``."""
        if not self.enabled:
            return None
        arrays = state.arrays
        return PreApplySnapshot(
            q=arrays.q.copy(),
            g=arrays.g.copy(),
            battery_level=arrays.battery_level.copy(),
        )

    def check_transition(
        self,
        model: "NetworkModel",
        state: "NetworkState",
        decision: "SlotDecision",
        pre: Optional[PreApplySnapshot],
        slot: int,
        enforce_complementarity: bool = True,
    ) -> None:
        """Validate the post-``apply`` state against the queue laws."""
        if not self.enabled or pre is None:
            return
        self._check_data_queue_law(model, state, decision, pre, slot)
        self._check_virtual_queue_law(state, decision, pre, slot)
        self._check_battery_transition(
            state, decision, pre, slot, enforce_complementarity
        )

    def _reference_transfer(
        self,
        model: "NetworkModel",
        pre: PreApplySnapshot,
        cell: AnyArray,
        rate: AnyArray,
    ) -> AnyArray:
        """Independent re-derivation of the configured queue semantics.

        ``cell`` is each routed entry's flat ``(tx, session)`` index
        into ``q``.  ``PAPER`` passes scheduled rates through (the
        null-packet idealisation of Eq. 15); ``PACKET_ACCURATE``
        rescales each transmitter's outgoing rates so they never exceed
        its pre-slot backlog.
        """
        if model.params.queue_semantics is QueueSemantics.PAPER:
            return rate
        outgoing = np.bincount(cell, weights=rate, minlength=pre.q.size)[cell]
        available = pre.q.ravel()[cell]
        share = np.minimum(1.0, available / np.where(outgoing > 0, outgoing, 1.0))
        return np.where(outgoing > 0, rate * share, 0.0)

    def _check_data_queue_law(
        self,
        model: "NetworkModel",
        state: "NetworkState",
        decision: "SlotDecision",
        pre: PreApplySnapshot,
        slot: int,
    ) -> None:
        """Eq. 15: ``Q(t+1) = max(Q(t) - service, 0) + arrivals``.

        Checked on the valid (non-destination) cells; offenders are
        reported node-major.
        """
        arrays = state.arrays
        num_nodes, num_sessions = pre.q.shape
        size = pre.q.size
        routing = decision.routing
        col = routing.session_col
        out_cell = routing.link_tx[routing.link_pos] * num_sessions + col
        in_cell = routing.link_rx[routing.link_pos] * num_sessions + col
        transfer = self._reference_transfer(model, pre, out_cell, routing.pkts)
        service = np.bincount(out_cell, weights=transfer, minlength=size)
        arrivals = np.bincount(in_cell, weights=transfer, minlength=size)
        # Admissions: the single (source, k_s) pair, or the relaxed LP's
        # per-source split.
        admission = decision.admission
        for session, source in admission.sources.items():
            single = ((source, admission.admitted[session]),)
            for node, admitted in admission.split.get(session, single):
                arrivals[node * num_sessions + arrays.session_col[session]] += admitted

        post = arrays.q.ravel()
        expected = np.maximum(pre.q.ravel() - service, 0.0) + arrivals
        valid = arrays.q_valid.ravel()
        node = np.repeat(np.arange(num_nodes), num_sessions)
        session = np.tile(np.asarray(arrays.sessions), num_nodes)
        self._violate_rows(
            "Eq. 15",
            valid & (post < -QUEUE_ATOL),
            node,
            lambda i: f"negative backlog {post[i]} pkts for session {session[i]}",
            slot,
        )
        self._violate_rows(
            "Eq. 15",
            valid & ~_close_array(post, expected, QUEUE_ATOL),
            node,
            lambda i: f"Q[{node[i]}][{session[i]}] = {post[i]} pkts, expected "
            f"{expected[i]} pkts from the queueing law",
            slot,
        )

    def _check_virtual_queue_law(
        self,
        state: "NetworkState",
        decision: "SlotDecision",
        pre: PreApplySnapshot,
        slot: int,
    ) -> None:
        """Eqs. 28/30: the ``G`` update and ``H = beta * G``, by link position.

        Also checks the support the sparse readers rely on:
        ``g_support`` must equal ``np.flatnonzero(G)``.
        """
        arrays = state.arrays
        num_links = pre.g.size
        routing, schedule = decision.routing, decision.schedule
        arrivals = np.bincount(routing.link_pos, weights=routing.pkts, minlength=num_links)
        service = np.bincount(
            schedule.service_pos, weights=schedule.service_pkts, minlength=num_links
        )
        post = arrays.g
        expected = np.maximum(pre.g - service, 0.0) + arrivals
        links = (arrays.link_tx, arrays.link_rx)
        self._violate_rows(
            "Eq. 28",
            post < -QUEUE_ATOL,
            None,
            lambda i: f"negative virtual backlog {post[i]} pkts",
            slot,
            links,
        )
        self._violate_rows(
            "Eq. 28",
            ~_close_array(post, expected, QUEUE_ATOL),
            None,
            lambda i: f"G = {post[i]} pkts, expected {expected[i]} pkts "
            "from the virtual-queue law",
            slot,
            links,
        )
        # H is read off the support, so check the support first.
        support, nonzero = arrays.g_support, np.flatnonzero(post)
        if not np.array_equal(support, nonzero):
            pos = int(np.setxor1d(support, nonzero)[0])
            where = (
                "in the support but zero"
                if np.isin(pos, support)
                else "nonzero but missing from the support"
            )
            self._violate(
                "Eq. 28",
                f"G support has {support.size} positions for {nonzero.size} "
                f"nonzero cells: position {pos} (G = {post[pos]} pkts) is {where}",
                slot=slot,
                link=(int(arrays.link_tx[pos]), int(arrays.link_rx[pos])),
            )
        beta = state.constants.beta
        h = state.h_backlogs()
        self._violate_rows(
            "Eq. 30",
            ~_close_array(h, beta * post, QUEUE_ATOL),
            None,
            lambda i: f"H = {h[i]} != beta * G = {beta * post[i]}",
            slot,
            links,
        )

    def _check_battery_transition(
        self,
        state: "NetworkState",
        decision: "SlotDecision",
        pre: PreApplySnapshot,
        slot: int,
        enforce_complementarity: bool,
    ) -> None:
        """Eqs. 4, 9-12, 31 over the ``(N,)`` battery arrays.

        Each equation reports every offending node in ascending order,
        so strict mode names the first one.
        """
        arrays = state.arrays
        level, capacity = arrays.battery_level, arrays.capacity_j
        eta_c = arrays.charge_efficiency
        nodes = np.arange(level.size)
        allocation = decision.energy.allocation
        charge = allocation.charge_j
        drained = allocation.discharge_j / arrays.discharge_efficiency
        if not enforce_complementarity:
            # The relaxed LP bound drops Eq. 9; the simulator nets the
            # two flows before they reach the battery.
            net = charge - drained
            charge, drained = np.maximum(net, 0.0), np.maximum(-net, 0.0)
        # Eq. 10: the level stays within [0, x_max].
        self._violate_rows(
            "Eq. 10",
            (level < -ENERGY_ATOL) | (level > capacity + ENERGY_ATOL),
            nodes,
            lambda i: f"battery level {level[i]} J outside [0, {capacity[i]}] J",
            slot,
        )
        if enforce_complementarity:
            self._violate_rows(
                "Eq. 9",
                (charge > ENERGY_ATOL) & (drained > ENERGY_ATOL),
                nodes,
                lambda i: f"simultaneous charge ({charge[i]} J) and battery "
                f"drain ({drained[i]} J)",
                slot,
            )
        # Eqs. 11/12 against the *pre-apply* level the caps were
        # computed from.
        before = pre.battery_level
        charge_cap = np.minimum(arrays.charge_cap_j, (capacity - before) / eta_c)
        self._violate_rows(
            "Eq. 11",
            charge > charge_cap + ENERGY_ATOL,
            nodes,
            lambda i: f"charge {charge[i]} J exceeds min(c_max, headroom) = "
            f"{charge_cap[i]} J",
            slot,
        )
        drain_cap = np.minimum(arrays.discharge_cap_j, before)
        self._violate_rows(
            "Eq. 12",
            drained > drain_cap + ENERGY_ATOL,
            nodes,
            lambda i: f"drain {drained[i]} J exceeds min(d_max, level) = "
            f"{drain_cap[i]} J",
            slot,
        )
        # Eq. 4 (with efficiencies): the level advanced by exactly the
        # applied action, up to the clamp absorbing round-off.
        expected = np.minimum(np.maximum(before + eta_c * charge - drained, 0.0), capacity)
        self._violate_rows(
            "Eq. 4",
            ~_close_array(level, expected, ENERGY_ATOL),
            nodes,
            lambda i: f"battery level {level[i]} J, expected {expected[i]} J "
            "from the energy-queue law",
            slot,
        )
        # Eq. 31: z = x - (V * gamma_max + d_max), re-derived here from
        # the control parameter and the discharge caps.
        shift = (
            state.model.params.control_v * state.constants.gamma_max
            + arrays.discharge_cap_j
        )
        z = arrays.z_values_array()
        self._violate_rows(
            "Eq. 31",
            ~_close_array(arrays.z_shift, shift, ENERGY_ATOL),
            nodes,
            lambda i: f"shifted queue z = {z[i]} J diverged from "
            f"x - (V * gamma_max + d_max) = {level[i] - shift[i]} J",
            slot,
        )
