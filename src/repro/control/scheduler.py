"""S1 — link scheduling (Section IV-C-1).

Minimises ``Psi-hat_1 = -(beta/delta) sum_ij H_ij sum_m c_ij^m a_ij^m dt``
subject to the single-radio constraint (22): each node participates in
at most one transmission per slot, as transmitter or receiver, on one
band.  Three algorithms are provided:

* ``SEQUENTIAL_FIX`` — the paper's LP-rounding heuristic (via the
  generic :func:`repro.solvers.sequential_fix`);
* ``MAX_WEIGHT_MATCHING`` — exact: under constraint (22) alone, S1 is a
  maximum-weight matching over nodes with per-edge best-band weights;
* ``GREEDY`` — sort link-bands by weight, take what fits.

The base weight of a link-band is ``beta * H_ij * service_pkts`` (the
Psi-hat_1 contribution).  When the controller passes per-node energy
prices (energy-aware backpressure, the default), the weight additionally
subtracts the marginal energy cost of the activation —
``price_tx * P_min * dt + price_rx * P_recv * dt`` — restoring the
drift coupling the paper's stage-wise decomposition drops; candidates
whose energy cost exceeds their backlog value are not scheduled at all.

After activation, per-band Foschini–Miljanic power control assigns the
minimal transmit powers meeting ``SINR >= Gamma`` (constraint 24);
links with no feasible power are dropped, realising the "otherwise"
branch of Eq. (1).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.axes import AnyArray, LinkBandMat, LinkIds, LinkToNode, LinkVec, NodeVec
from repro.contracts import ContractChecker
from repro.control.decisions import ScheduleDecision, SlotObservation
from repro.core.arraystate import LinkArrayMapping
from repro.core.lyapunov import LyapunovConstants
from repro.model import NetworkModel
from repro.phy.capacity import max_link_capacity_bps
from repro.phy.interference import big_m_coefficient, max_power_array
from repro.phy.power_control import (
    minimal_power_assignment,
    minimal_power_assignment_vec,
)
from repro.exceptions import SolverError
from repro.solvers.linprog import LinearProgram, Sense
from repro.solvers.sequential_fix import sequential_fix
from repro.types import Link, LinkBand, NodeId, SchedulerKind, Transmission

#: Ignore links whose virtual backlog is below this (the paper's SF
#: pre-step fixes ``a_ij^m = 0`` whenever ``H_ij = 0``).
_H_EPS = 1e-12


class _SchedulerStatic(NamedTuple):
    """Frozen per-topology tables for the vectorized S1 weights.

    Attributes:
        link_tx: ``(L,)`` transmitter index per candidate link.
        link_rx: ``(L,)`` receiver index per candidate link.
        band_member: ``(L, M)`` bool form of the static common-band
            sets ``M_i ∩ M_j``.
        max_power_tx: ``(L,)`` transmitter power cap per link (W).
        recv_power_rx: ``(L,)`` receiver listening power per link (W).
    """

    link_tx: LinkToNode
    link_rx: LinkToNode
    band_member: LinkBandMat
    max_power_tx: LinkVec
    recv_power_rx: LinkVec


class _RadioBudget:
    """Stateful conflict callback for multi-radio sequential fix.

    The SF loop invokes the callback exactly once per variable fixed
    to 1; this tracks per-node radio usage and per-(node, band)
    exclusivity, returning the variables that just became infeasible.
    """

    def __init__(self, keys, radios_of) -> None:
        self._keys = list(keys)
        self._radios_of = radios_of
        self._usage: Dict[NodeId, int] = {}
        self._band_used: set = set()

    def __call__(self, key: LinkBand) -> List[LinkBand]:
        tx, rx, band = key
        for node in (tx, rx):
            self._usage[node] = self._usage.get(node, 0) + 1
            self._band_used.add((node, band))

        exhausted = {
            node
            for node in (tx, rx)
            if self._usage[node] >= self._radios_of(node)
        }
        blocked: List[LinkBand] = []
        for other in self._keys:
            if other == key:
                continue
            otx, orx, oband = other
            if otx in exhausted or orx in exhausted:
                blocked.append(other)
            elif oband == band and (
                (otx, band) in self._band_used or (orx, band) in self._band_used
            ):
                # Constraints (20)/(21): one activity per node per band.
                blocked.append(other)
        return blocked


class LinkScheduler:
    """The S1 subproblem solver."""

    def __init__(
        self,
        model: NetworkModel,
        constants: LyapunovConstants,
        kind: SchedulerKind = SchedulerKind.SEQUENTIAL_FIX,
        checker: Optional[ContractChecker] = None,
    ) -> None:
        self._model = model
        self._constants = constants
        self._kind = kind
        self._checker = checker
        self._static_cache: Optional[Tuple[Tuple[Link, ...], _SchedulerStatic]] = None
        self._band_order_cache: Optional[
            Tuple[Tuple[Link, ...], Tuple[Tuple[int, ...], ...]]
        ] = None
        self._access_cache: Optional[np.ndarray] = None

    @property
    def kind(self) -> SchedulerKind:
        """The configured scheduling algorithm."""
        return self._kind

    def attach_contracts(self, checker: ContractChecker) -> None:
        """Validate every activation set against Eqs. 20-22 and 24."""
        self._checker = checker

    # ------------------------------------------------------------------
    # Candidate construction
    # ------------------------------------------------------------------

    def _service_pkts(self, band: int, observation: SlotObservation) -> float:
        """Packets/slot a successful transmission on ``band`` carries."""
        params = self._model.params
        bps = max_link_capacity_bps(
            observation.bands.bandwidth(band), params.sinr_threshold
        )
        return bps * params.slot_seconds / params.sessions.packet_size_bits

    def _gains(self, observation: SlotObservation):
        """The slot's pair gains (mobility-aware).

        Returns the slot's dense matrix under mobility, else the
        topology's gain lookup — the materialised matrix view or the
        position-computed view when the sparse topology skipped the
        O(N^2) matrices.  Scalar ``[tx, rx]`` indexing and the
        ``submatrix``/``column`` blocks are bit-identical either way.
        """
        if observation.gains is not None:
            return observation.gains
        return self._model.topology.gains_lookup()

    def _access_matrix(self) -> np.ndarray:
        """``(N, M)`` bool band-access table from the static sets.

        Cold path: built once per run — the access sets are drawn at
        model construction and never change.
        """
        cached = self._access_cache
        if cached is None:
            spectrum = self._model.spectrum
            cached = np.zeros(
                (self._model.num_nodes, spectrum.num_bands), dtype=bool
            )
            for node, bands in spectrum.access_sets().items():
                for band in bands:
                    cached[node, band] = True
            self._access_cache = cached
        return cached

    def _band_orders(
        self, links: Tuple[Link, ...]
    ) -> Tuple[Tuple[int, ...], ...]:
        """Per-link band ids in their common-band frozenset order.

        Only the candidate dict of the SF / matching selectors needs
        this insertion order; the GREEDY selector works off the
        ``(L, M)`` membership mask, so this O(L) Python table is built
        lazily and never touched by the large-scale GREEDY path.
        """
        cached = self._band_order_cache
        if cached is not None and cached[0] is links:
            return cached[1]
        spectrum = self._model.spectrum
        orders = tuple(
            tuple(spectrum.common_bands(tx, rx)) for tx, rx in links  # noqa: R040 - built once per topology (identity-cached), only for the SF/matching candidate dict; the GREEDY selector never calls this
        )
        self._band_order_cache = (links, orders)
        return orders

    def _scheduler_static(self, links: Tuple[Link, ...]) -> _SchedulerStatic:
        """Per-topology index tables for the vectorized candidate pass.

        Cold path: built once per candidate-link tuple (keyed by
        identity) — radios, power caps, and the static band sets never
        change mid-run.  All tables are per-node arrays fancy-indexed by
        the frozen link endpoints, so construction is O(N + L) numpy
        work with no per-link Python loop.
        """
        cached = self._static_cache
        if cached is not None and cached[0] is links:
            return cached[1]
        topology = self._model.topology
        if topology.candidate_links is links:
            link_tx, link_rx = topology.link_arrays()
        else:
            count = len(links)
            link_tx = np.fromiter(
                (tx for tx, _ in links), dtype=np.intp, count=count
            )
            link_rx = np.fromiter(
                (rx for _, rx in links), dtype=np.intp, count=count
            )
        access = self._access_matrix()
        band_member = access[link_tx] & access[link_rx]
        num_nodes = self._model.num_nodes
        max_power = max_power_array(self._model.max_power_w, num_nodes)
        recv_power = np.fromiter(
            (node.radio.recv_power_w for node in self._model.nodes),
            dtype=float,
            count=num_nodes,
        )
        static = _SchedulerStatic(
            link_tx=link_tx,
            link_rx=link_rx,
            band_member=band_member,
            max_power_tx=max_power[link_tx],
            recv_power_rx=recv_power[link_rx],
        )
        self._static_cache = (links, static)
        return static

    def _candidate_grid(
        self,
        observation: SlotObservation,
        h_backlogs: LinkArrayMapping,
        energy_prices: Optional[NodeVec],
        links: Tuple[Link, ...],
        allowed_mask: Optional[LinkVec] = None,
    ) -> Optional[
        Tuple[
            np.ndarray,
            Optional[Sequence[Tuple[int, ...]]],
            np.ndarray,
            np.ndarray,
        ]
    ]:
        """Net candidate weights as ``(active links, bands)`` arrays.

        Returns ``(active, orders, keep, weight)`` — the active link
        positions, their per-link band iteration orders (None in the
        static-band case, where only the candidate dict needs them and
        resolves them lazily via :meth:`_band_orders`), the survivor
        mask, and the weight matrix — or ``None`` when no link clears
        the backlog floor.

        ``allowed_mask`` is the static ``(L,)`` link filter of the
        one-hop architectures (None: every link).
        """
        beta = self._constants.beta
        params = self._model.params
        dt = params.slot_seconds
        static = self._scheduler_static(links)
        h_arr = h_backlogs.values_array
        floor = h_arr > _H_EPS
        if allowed_mask is not None:
            floor &= allowed_mask
        active = np.flatnonzero(floor)
        if active.size == 0:
            return None

        num_bands = static.band_member.shape[1]
        service = np.fromiter(
            (self._service_pkts(band, observation) for band in range(num_bands)),
            dtype=float,
            count=num_bands,
        )
        orders: Optional[Sequence[Tuple[int, ...]]]
        if observation.band_access is not None:
            member = np.zeros((active.size, num_bands), dtype=bool)
            dyn_orders: List[Tuple[int, ...]] = []
            for i, pos in enumerate(active):
                tx, rx = links[pos]
                order = tuple(
                    observation.band_access[tx] & observation.band_access[rx]
                )
                dyn_orders.append(order)
                for band in order:
                    member[i, band] = True
            orders = dyn_orders
        else:
            member = static.band_member[active]
            orders = None

        keep = member & (service[None, :] > 0.0)
        weight = (beta * h_arr[active])[:, None] * service[None, :]
        if energy_prices is not None:
            noise = np.fromiter(
                (
                    self._model.noise_power_w(observation.bands.bandwidth(band))
                    for band in range(num_bands)
                ),
                dtype=float,
                count=num_bands,
            )
            tx_idx = static.link_tx[active]
            rx_idx = static.link_rx[active]
            if observation.gains is not None:
                g_link = np.asarray(observation.gains)[tx_idx, rx_idx]
            else:
                # The frozen per-link gain array is bitwise equal to
                # ``gains[link_tx, link_rx]`` in every topology mode,
                # so no (N, N) matrix read is needed.
                g_link = self._model.topology.link_gain_array()[active]
            power = (params.sinr_threshold * noise)[None, :] / g_link[:, None]
            keep &= power <= static.max_power_tx[active][:, None]
            weight = weight - (energy_prices[tx_idx][:, None] * power) * dt
            weight = weight - (
                (energy_prices[rx_idx] * static.recv_power_rx[active]) * dt
            )[:, None]
        keep &= weight > 0.0
        return active, orders, keep, weight

    def _candidates(
        self,
        observation: SlotObservation,
        h_backlogs: LinkArrayMapping,
        energy_prices: Optional[NodeVec],
        links: Tuple[Link, ...],
        allowed_mask: Optional[LinkVec] = None,
    ) -> Dict[LinkBand, float]:
        """Net weight per candidate link-band (module docstring).

        Computes the net weights via :meth:`_candidate_grid`, then
        writes only the survivors to the candidate dict in (link index,
        common-band) insertion order — the order the insertion-order-
        sensitive selectors (the matching tie-break) are pinned to.
        """
        weights: Dict[LinkBand, float] = {}
        grid = self._candidate_grid(
            observation, h_backlogs, energy_prices, links, allowed_mask
        )
        if grid is None:
            return weights
        active, orders, keep, weight = grid
        static_orders = self._band_orders(links) if orders is None else None
        for i, pos in enumerate(active):
            tx, rx = links[pos]
            keep_row = keep[i]
            weight_row = weight[i]
            order = orders[i] if orders is not None else static_orders[pos]
            for band in order:
                if keep_row[band]:
                    weights[(tx, rx, band)] = weight_row[band]
        return weights

    # ------------------------------------------------------------------
    # Activation algorithms
    # ------------------------------------------------------------------

    def _radios(self, node: NodeId) -> int:
        """Radio budget of ``node`` (1 in the paper's model)."""
        return self._model.nodes[node].radio.num_radios

    def _conflicting(
        self, key: LinkBand, others: Iterable[LinkBand]
    ) -> List[LinkBand]:
        """Link-bands excluded once ``key`` is active (single radio).

        The budget-aware generalisation lives in :class:`_RadioBudget`;
        this is the fast path when every involved node has one radio.
        """
        tx, rx, _ = key
        busy = {tx, rx}
        return [
            other
            for other in others
            if other != key and (other[0] in busy or other[1] in busy)
        ]

    def _make_conflicts(self, keys: List[LinkBand]):
        """The conflict callback for the SF loop, radio-budget aware."""
        if all(
            self._radios(node) == 1
            for key in keys
            for node in (key[0], key[1])
        ):
            return lambda key: self._conflicting(key, keys)
        return _RadioBudget(keys, self._radios)

    def _radio_constraints(
        self, lp: LinearProgram, keys: List[LinkBand]
    ) -> None:
        """Constraints (20)-(22) generalised to radio budgets.

        Per node: total activity <= num_radios; per (node, band):
        activity <= 1 (constraints (20)/(21), which the budget row only
        implies in the single-radio case).
        """
        per_node: Dict[NodeId, List[LinkBand]] = {}
        per_node_band: Dict[Tuple[NodeId, int], List[LinkBand]] = {}
        for tx, rx, band in keys:
            key = (tx, rx, band)
            for node in (tx, rx):
                per_node.setdefault(node, []).append(key)
                per_node_band.setdefault((node, band), []).append(key)
        for node, involved in per_node.items():
            lp.add_constraint(
                {key: 1.0 for key in involved},
                Sense.LE,
                float(self._radios(node)),
                name=f"radios[{node}]",
            )
        for (node, band), involved in per_node_band.items():
            if self._radios(node) > 1 and len(involved) > 1:
                lp.add_constraint(
                    {key: 1.0 for key in involved},
                    Sense.LE,
                    1.0,
                    name=f"band_excl[{node},{band}]",
                )

    def _select_sequential_fix(
        self, weights: Dict[LinkBand, float]
    ) -> List[LinkBand]:
        keys = sorted(weights)

        def build_lp(fixed: Mapping[LinkBand, float]) -> LinearProgram:
            lp = LinearProgram()
            for key in keys:
                # Minimisation form of Psi-hat_1: negative weights.
                lp.add_variable(key, objective=-weights[key], lower=0.0, upper=1.0)
            for key, value in fixed.items():
                lp.fix_variable(key, float(value))
            self._radio_constraints(lp, keys)
            return lp

        fixed = sequential_fix(
            binary_keys=keys,
            build_lp=build_lp,
            conflicts=self._make_conflicts(keys),
        )
        return [key for key, value in fixed.items() if value == 1]

    def _select_sequential_fix_sinr(
        self,
        weights: Dict[LinkBand, float],
        observation: SlotObservation,
    ) -> List[LinkBand]:
        """SF with the big-M SINR constraints (24) in the relaxation.

        Adds a power variable per candidate link-band (linearising the
        ``P * a`` product with ``P <= P_max * a``) and the constraint

            g_ij P_ijm + M_ijm (1 - a_ijm)
                >= Gamma (eta W_m + sum_{(k,v) != (i,j)} g_kj P_kvm),

        so the LP already prices co-band interference when choosing
        which variable to fix — fewer selections die in power control.
        """
        keys = sorted(weights)
        gains = self._gains(observation)
        params = self._model.params
        by_band: Dict[int, List[LinkBand]] = {}
        for key in keys:
            by_band.setdefault(key[2], []).append(key)

        def build_lp(fixed: Mapping[LinkBand, float]) -> LinearProgram:
            lp = LinearProgram()
            for key in keys:
                lp.add_variable(key, objective=-weights[key], lower=0.0, upper=1.0)
            for key in keys:
                tx = key[0]
                lp.add_variable(
                    ("P", key), lower=0.0, upper=self._model.max_power_w[tx]
                )
            for key, value in fixed.items():
                lp.fix_variable(key, float(value))
                if value == 0:
                    lp.fix_variable(("P", key), 0.0)

            self._radio_constraints(lp, keys)

            for band, members in by_band.items():
                noise = self._model.noise_power_w(
                    observation.bands.bandwidth(band)
                )
                for key in members:
                    tx, rx, _ = key
                    # Linearise P * a: power flows only when scheduled.
                    lp.add_constraint(
                        {
                            ("P", key): 1.0,
                            key: -self._model.max_power_w[tx],
                        },
                        Sense.LE,
                        0.0,
                        name=f"pow_link[{key}]",
                    )
                    big_m = big_m_coefficient(
                        gains,
                        tx,
                        rx,
                        noise,
                        params.sinr_threshold,
                        self._model.max_power_w,
                    )
                    # g_ij P + M (1 - a) - Gamma sum g_kj P_other
                    #   >= Gamma eta W.
                    coeffs: Dict = {
                        ("P", key): gains[tx, rx],
                        key: -big_m,
                    }
                    for other in members:
                        # Links sharing a node with (tx, rx) are already
                        # excluded by the single-radio conflicts in the
                        # binary solution; pricing their (fractional)
                        # self-interference here would exceed the big-M
                        # envelope, which only covers k != i, j.
                        if other == key or other[0] in (tx, rx):
                            continue
                        coeffs[("P", other)] = (
                            -params.sinr_threshold * gains[other[0], rx]
                        )
                    lp.add_constraint(
                        coeffs,
                        Sense.GE,
                        params.sinr_threshold * noise - big_m,
                        name=f"sinr[{key}]",
                    )
            return lp

        fixed = sequential_fix(
            binary_keys=keys,
            build_lp=build_lp,
            conflicts=self._make_conflicts(keys),
            check_feasibility=True,
        )
        return [key for key, value in fixed.items() if value == 1]

    def _select_matching(self, weights: Dict[LinkBand, float]) -> List[LinkBand]:
        """Exact S1 optimum via maximum-weight matching.

        Constraint (22) makes every node a unit-capacity resource, so
        the activation problem is a matching on the undirected node
        graph; each undirected edge takes its best direction and band.
        Only exact for single-radio nodes — with budgets the problem is
        a degree-constrained subgraph, which this solver does not
        handle.
        """
        involved = {node for key in weights for node in (key[0], key[1])}
        if any(self._radios(node) > 1 for node in involved):
            raise SolverError(
                "MAX_WEIGHT_MATCHING is exact only for single-radio nodes; "
                "use SEQUENTIAL_FIX or GREEDY with num_radios > 1"
            )
        best: Dict[Tuple[NodeId, NodeId], Tuple[float, LinkBand]] = {}
        for (tx, rx, band), weight in weights.items():
            edge = (min(tx, rx), max(tx, rx))
            if edge not in best or weight > best[edge][0]:
                best[edge] = (weight, (tx, rx, band))

        graph = nx.Graph()
        for (u, v), (weight, _) in best.items():
            graph.add_edge(u, v, weight=weight)
        matching = nx.max_weight_matching(graph, maxcardinality=False)
        return [best[(min(u, v), max(u, v))][1] for u, v in matching]

    def _radios_list(self) -> List[int]:
        """Per-node radio budgets, cached (cold path: built once)."""
        cached = getattr(self, "_radios_cache", None)
        if cached is None:
            cached = [node.radio.num_radios for node in self._model.nodes]
            self._radios_cache = cached
        return cached

    def _select_greedy(
        self,
        link_pos: LinkIds,
        bands: AnyArray,
        weights: AnyArray,
        links: Tuple[Link, ...],
    ) -> Tuple[List[int], List[int]]:
        """GREEDY selection: take link-bands by weight while they fit.

        ``np.lexsort`` orders candidates by descending weight, ties
        broken by the ``(tx, rx, band)`` key (keys are unique, so the
        order is total); the conflict scan then keeps per-node radio
        usage and per-(node, band) exclusivity over plain Python ints.

        Returns the chosen candidates as parallel ``(link position,
        band)`` lists, in selection (descending-weight) order.
        """
        static = self._scheduler_static(links)
        tx_arr = static.link_tx[link_pos]
        rx_arr = static.link_rx[link_pos]
        order = np.lexsort((bands, rx_arr, tx_arr, -weights))
        tx_l = tx_arr[order].tolist()
        rx_l = rx_arr[order].tolist()
        band_l = bands[order].tolist()
        pos_l = link_pos[order].tolist()

        radios = self._radios_list()
        usage = [0] * self._model.num_nodes
        band_used: set = set()
        chosen_pos: List[int] = []
        chosen_band: List[int] = []
        for i in range(len(pos_l)):
            tx = tx_l[i]
            rx = rx_l[i]
            if usage[tx] >= radios[tx] or usage[rx] >= radios[rx]:
                continue
            band = band_l[i]
            if (tx, band) in band_used or (rx, band) in band_used:
                continue  # constraints (20)/(21)
            chosen_pos.append(pos_l[i])
            chosen_band.append(band)
            usage[tx] += 1
            usage[rx] += 1
            band_used.add((tx, band))
            band_used.add((rx, band))
        return chosen_pos, chosen_band

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def schedule(
        self,
        observation: SlotObservation,
        h_backlogs: LinkArrayMapping,
        allowed_mask: Optional[LinkVec] = None,
        energy_prices: Optional[NodeVec] = None,
    ) -> ScheduleDecision:
        """Solve S1 for one slot.

        Args:
            observation: the slot's realised random state.
            h_backlogs: current ``H_ij(t)``, a view over the frozen
                candidate-link index.
            allowed_mask: optional ``(L,)`` bool filter over the frozen
                link index; False links are never candidates (the
                one-hop baselines).
            energy_prices: optional ``(N,)`` per-node marginal energy
                prices for energy-aware weights; None recovers the
                paper's S1.

        Returns:
            The activation set with minimal feasible powers and the
            per-link realised service in packets.
        """
        links = self._model.topology.candidate_links
        if self._kind is SchedulerKind.GREEDY:
            grid = self._candidate_grid(
                observation, h_backlogs, energy_prices, links, allowed_mask
            )
            if grid is None:
                return ScheduleDecision()
            # The greedy selector lexsorts over unique (weight, tx, rx,
            # band) keys, so the survivors come straight off the keep
            # mask: no candidate dict, no insertion order to preserve.
            active, _, keep, weight = grid
            rows, bands = np.nonzero(keep)
            if rows.size == 0:
                return ScheduleDecision()
            chosen_pos, chosen_band = self._select_greedy(
                active[rows], bands, weight[rows, bands], links
            )
            decision = self._power_control_vectorized(
                chosen_pos, chosen_band, observation, h_backlogs, links
            )
        else:
            weights = self._candidates(
                observation, h_backlogs, energy_prices, links, allowed_mask
            )
            if not weights:
                return ScheduleDecision()
            if self._kind is SchedulerKind.SEQUENTIAL_FIX:
                selected = self._select_sequential_fix(weights)
            elif self._kind is SchedulerKind.SEQUENTIAL_FIX_SINR:
                selected = self._select_sequential_fix_sinr(weights, observation)
            else:
                selected = self._select_matching(weights)
            decision = self._power_control(selected, observation, h_backlogs)

        if self._checker is not None and self._checker.enabled:
            self._checker.check_schedule(
                self._model, observation, decision, observation.slot
            )
        return decision

    def _power_control_vectorized(
        self,
        chosen_pos: List[int],
        chosen_band: List[int],
        observation: SlotObservation,
        h_backlogs: LinkArrayMapping,
        links: Tuple[Link, ...],
    ) -> ScheduleDecision:
        """Per-band minimal powers for the GREEDY selection.

        Per band, one :func:`minimal_power_assignment_vec` call over the
        chosen links' gain blocks; priorities come straight off the
        ``H`` array.
        """
        decision = ScheduleDecision()
        static = self._scheduler_static(links)
        h_arr = h_backlogs.values_array
        by_band: Dict[int, List[int]] = {}
        for pos, band in zip(chosen_pos, chosen_band):
            by_band.setdefault(band, []).append(pos)

        # The dense matrix under mobility, else the topology's pair-gain
        # lookup; minimal_power_assignment_vec accepts both and produces
        # bit-identical solves.
        gains = self._gains(observation)
        for band, positions in sorted(by_band.items()):
            noise = self._model.noise_power_w(observation.bands.bandwidth(band))
            idx = np.asarray(positions, dtype=np.intp)
            kept, powers, dropped = minimal_power_assignment_vec(
                static.link_tx[idx],
                static.link_rx[idx],
                gains,
                noise,
                self._model.params.sinr_threshold,
                static.max_power_tx[idx],
                h_arr[idx],
            )
            service = self._service_pkts(band, observation)
            for j, power in zip(kept.tolist(), powers.tolist()):
                link = links[positions[j]]
                decision.transmissions.append(
                    Transmission(tx=link[0], rx=link[1], band=band, power_w=power)
                )
                decision.link_service_pkts[link] = (
                    decision.link_service_pkts.get(link, 0.0) + service
                )
            for j in dropped:
                link = links[positions[j]]
                decision.dropped.append((link[0], link[1], band))
        return decision

    def _power_control(
        self,
        selected: List[LinkBand],
        observation: SlotObservation,
        h_backlogs: LinkArrayMapping,
    ) -> ScheduleDecision:
        """Assign minimal powers per band and drop infeasible links."""
        decision = ScheduleDecision()
        by_band: Dict[int, List[Link]] = {}
        for tx, rx, band in selected:
            by_band.setdefault(band, []).append((tx, rx))

        for band, links in sorted(by_band.items()):
            noise = self._model.noise_power_w(observation.bands.bandwidth(band))
            result = minimal_power_assignment(
                links=links,
                gains=self._gains(observation),
                noise_power_w=noise,
                sinr_threshold=self._model.params.sinr_threshold,
                max_power_w=self._model.max_power_w,
                priority=h_backlogs,
            )
            service = self._service_pkts(band, observation)
            for link, power in result.powers.items():  # noqa: R006 - decision-sized LP output, not network-scaled state
                decision.transmissions.append(
                    Transmission(tx=link[0], rx=link[1], band=band, power_w=power)
                )
                decision.link_service_pkts[link] = (
                    decision.link_service_pkts.get(link, 0.0) + service
                )
            for link in result.dropped:
                decision.dropped.append((link[0], link[1], band))
        return decision
