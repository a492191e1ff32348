"""S1 — link scheduling (Section IV-C-1).

Minimises ``Psi-hat_1 = -(beta/delta) sum_ij H_ij sum_m c_ij^m a_ij^m dt``
subject to the single-radio constraint (22): each node participates in
at most one transmission per slot, as transmitter or receiver, on one
band.  Three algorithms are provided:

* ``SEQUENTIAL_FIX`` — the paper's LP-rounding heuristic (via the
  generic :func:`repro.solvers.sequential_fix`);
* ``MAX_WEIGHT_MATCHING`` — exact: under constraint (22) alone, S1 is a
  maximum-weight matching over nodes with per-edge best-band weights;
* ``GREEDY`` — sort link-bands by weight, take what fits; a link of two
  single-radio nodes can only ever take its best band, so only that is scanned.

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

from repro.axes import (
    AnyArray,
    BandVec,
    LinkBandMat,
    LinkIds,
    LinkToNode,
    LinkVec,
    NodeVec,
)
from repro.contracts import ContractChecker
from repro.control.decisions import ScheduleDecision, SlotObservation
from repro.core.arraystate import LinkArrayMapping
from repro.core.lyapunov import LyapunovConstants
from repro.model import NetworkModel
from repro.phy.capacity import max_link_capacity_bps
from repro.phy.interference import big_m_coefficient, max_power_array
from repro.phy.power_control import (
    # Not called here; benchmarks/suite/spans.py wraps it on this module.
    minimal_power_assignment,
    minimal_power_assignment_vec,
)
from repro.exceptions import SolverError
from repro.solvers.linprog import LinearProgram, Sense
from repro.solvers.sequential_fix import sequential_fix
from repro.types import Link, LinkBand, NodeId, SchedulerKind

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
        self._links = model.topology.candidate_links
        self._band_orders_cache: Optional[Tuple[Tuple[int, ...], ...]] = None
        # Per-node radio budgets (1 in the paper), built once: the int
        # list for the scans, the array for GREEDY's single-radio filter.
        self._radios = [node.radio.num_radios for node in model.nodes]
        self._radios_arr: NodeVec = np.asarray(self._radios, dtype=np.intp)
        # Per-topology tables: radios, power caps and the static band
        # sets never change mid-run, and every table is a per-node array
        # fancy-indexed by the frozen link endpoints (O(N + L) numpy).
        link_tx, link_rx = model.topology.link_arrays()
        recv_power = np.fromiter(
            (node.radio.recv_power_w for node in model.nodes),
            dtype=float,
            count=model.num_nodes,
        )
        self._static = _SchedulerStatic(
            link_tx=link_tx,
            link_rx=link_rx,
            band_member=model.link_band_member,
            max_power_tx=max_power_array(model.max_power_w, model.num_nodes)[link_tx],
            recv_power_rx=recv_power[link_rx],
        )

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

    def band_service_pkts(self, observation: SlotObservation) -> BandVec:
        """``(M,)`` packets a successful transmission on each band carries."""
        params = self._model.params
        num_bands = self._model.spectrum.num_bands
        bps = np.fromiter(
            (
                max_link_capacity_bps(
                    observation.bands.bandwidth(band), params.sinr_threshold
                )
                for band in range(num_bands)
            ),
            dtype=float,
            count=num_bands,
        )
        return bps * params.slot_seconds / params.sessions.packet_size_bits

    def _gains(self, observation: SlotObservation):
        """The slot's pair gains (mobility-aware).

        Returns the slot's position-computed view under mobility, else
        the topology's gain lookup — the materialised matrix view or the
        position-computed view when the sparse topology skipped the
        O(N^2) matrices.  Scalar ``[tx, rx]`` indexing and the
        ``pairs``/``submatrix``/``column`` reads are bit-identical
        either way.
        """
        if observation.gains is not None:
            return observation.gains
        return self._model.topology.gains_lookup()

    def _band_orders(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-link band ids in their common-band frozenset order.

        Only the candidate dict of the SF / matching selectors needs
        this insertion order; the GREEDY selector works off the
        ``(L, M)`` membership mask, so this O(L) Python table is built
        lazily and never touched by the large-scale GREEDY path.
        """
        orders = self._band_orders_cache
        if orders is None:
            spectrum = self._model.spectrum
            orders = tuple(
                tuple(spectrum.common_bands(tx, rx)) for tx, rx in self._links  # noqa: R040 - built once per run, only for the SF/matching candidate dict; the GREEDY selector never calls this
            )
            self._band_orders_cache = orders
        return orders

    def _candidate_grid(
        self,
        observation: SlotObservation,
        h_backlogs: LinkArrayMapping,
        energy_prices: Optional[NodeVec],
        allowed_mask: Optional[LinkVec] = None,
    ) -> Optional[
        Tuple[LinkIds, Optional[Sequence[Tuple[int, ...]]], LinkBandMat, LinkBandMat]
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
        static = self._static
        h_arr = h_backlogs.values_array
        floor = h_arr > _H_EPS
        if allowed_mask is not None:
            floor &= allowed_mask
        active = np.flatnonzero(floor)
        if active.size == 0:
            return None

        num_bands = static.band_member.shape[1]
        service = self.band_service_pkts(observation)
        orders: Optional[Sequence[Tuple[int, ...]]]
        if observation.band_access is not None:
            member = np.zeros((active.size, num_bands), dtype=bool)
            dyn_orders: List[Tuple[int, ...]] = []
            for i, pos in enumerate(active):
                tx, rx = self._links[pos]
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
                g_link = observation.gains.pairs(tx_idx, rx_idx)
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
            observation, h_backlogs, energy_prices, allowed_mask
        )
        if grid is None:
            return weights
        active, orders, keep, weight = grid
        static_orders = self._band_orders() if orders is None else None
        links = self._links
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
        radios = self._radios
        if all(radios[node] == 1 for key in keys for node in (key[0], key[1])):
            return lambda key: self._conflicting(key, keys)
        return _RadioBudget(keys, radios.__getitem__)

    def _radio_constraints(
        self, lp: LinearProgram, keys: List[LinkBand]
    ) -> None:
        """Constraints (20)-(22) generalised to radio budgets.

        Per node: total activity <= num_radios; per (node, band):
        activity <= 1 (constraints (20)/(21), which the budget row only
        implies in the single-radio case).
        """
        radios = self._radios
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
                float(radios[node]),
                name=f"radios[{node}]",
            )
        for (node, band), involved in per_node_band.items():
            if radios[node] > 1 and len(involved) > 1:
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
        key_tx = np.fromiter((key[0] for key in keys), np.intp, len(keys))
        key_rx = np.fromiter((key[1] for key in keys), np.intp, len(keys))
        by_band: Dict[int, List[int]] = {}
        for pos, key in enumerate(keys):
            by_band.setdefault(key[2], []).append(pos)

        # The SINR rows depend on the slot's gains only, not on the
        # fixings, so they are built once here rather than on every
        # sequential-fix rebuild: one co-band block per band
        # (block[k][l] = g(tx_k, rx_l)) and one big-M per link-band.
        sinr_rows: List[Tuple[LinkBand, Dict, float]] = []
        for band, positions in by_band.items():
            noise = self._model.noise_power_w(observation.bands.bandwidth(band))
            idx = np.asarray(positions, dtype=np.intp)
            block = gains.submatrix(key_tx[idx], key_rx[idx]).tolist()
            members = [keys[pos] for pos in positions]
            for col, key in enumerate(members):
                tx, rx, _ = key
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
                    ("P", key): block[col][col],
                    key: -big_m,
                }
                for row, other in enumerate(members):
                    # Links sharing a node with (tx, rx) are already
                    # excluded by the single-radio conflicts in the
                    # binary solution; pricing their (fractional)
                    # self-interference here would exceed the big-M
                    # envelope, which only covers k != i, j.
                    if other == key or other[0] in (tx, rx):
                        continue
                    coeffs[("P", other)] = -params.sinr_threshold * block[row][col]
                sinr_rows.append(
                    (key, coeffs, params.sinr_threshold * noise - big_m)
                )

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

            for key, coeffs, rhs in sinr_rows:
                # Linearise P * a: power flows only when scheduled.
                lp.add_constraint(
                    {
                        ("P", key): 1.0,
                        key: -self._model.max_power_w[key[0]],
                    },
                    Sense.LE,
                    0.0,
                    name=f"pow_link[{key}]",
                )
                lp.add_constraint(coeffs, Sense.GE, rhs, name=f"sinr[{key}]")
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
        if any(self._radios[node] > 1 for node in involved):
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

    def _select_greedy(
        self,
        active: LinkIds,
        keep: LinkBandMat,
        weight: LinkBandMat,
    ) -> Tuple[List[int], List[int]]:
        """GREEDY selection: take link-bands by weight while they fit.

        Order: descending weight, ties by ``(tx, rx, band)`` — an argsort
        of the int64 key ``(tx*N + rx)*M + band``, then a stable argsort
        on ``-weight``.  The conflict scan keeps per-node radio usage and
        per-(node, band) exclusivity over plain Python ints.  A link of two
        single-radio nodes offers only its best kept band (lowest on ties):
        taken or rejected, it leaves an endpoint full, so its later bands
        would fail too.  Multi-radio links keep every band (a band clash
        can reject band m while band m' still fits).

        Returns the chosen candidates as parallel ``(link position,
        band)`` lists, in selection (descending-weight) order.
        """
        static = self._static
        tx_act, rx_act = static.link_tx[active], static.link_rx[active]
        single = (self._radios_arr[tx_act] == 1) & (self._radios_arr[rx_act] == 1)
        best = np.where(keep, weight, -np.inf).argmax(axis=1)
        is_best = np.arange(keep.shape[1]) == best[:, None]
        rows, bands = np.nonzero(keep & (is_best | ~single[:, None]))
        tx_arr, rx_arr = tx_act[rows], rx_act[rows]
        key = (tx_arr * np.int64(self._model.num_nodes) + rx_arr) * keep.shape[1] + bands
        order = np.argsort(key)
        order = order[np.argsort(-weight[rows, bands][order], kind="stable")]
        tx_l = tx_arr[order].tolist()
        rx_l = rx_arr[order].tolist()
        band_l = bands[order].tolist()
        pos_l = active[rows[order]].tolist()

        radios = self._radios
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
        if self._kind is SchedulerKind.GREEDY:
            grid = self._candidate_grid(
                observation, h_backlogs, energy_prices, allowed_mask
            )
            if grid is None:
                return ScheduleDecision(links=self._links)
            # GREEDY's order is total, so it needs no candidate dict.
            active, _, keep, weight = grid
            chosen_pos, chosen_band = self._select_greedy(active, keep, weight)
        else:
            weights = self._candidates(
                observation, h_backlogs, energy_prices, allowed_mask
            )
            if not weights:
                return ScheduleDecision(links=self._links)
            if self._kind is SchedulerKind.SEQUENTIAL_FIX:
                selected = self._select_sequential_fix(weights)
            elif self._kind is SchedulerKind.SEQUENTIAL_FIX_SINR:
                selected = self._select_sequential_fix_sinr(weights, observation)
            else:
                selected = self._select_matching(weights)
            if not selected:
                return ScheduleDecision(links=self._links)
            keys = np.asarray(selected, dtype=np.intp)
            chosen_pos = self._model.topology.link_positions_of(
                keys[:, 0], keys[:, 1]
            ).tolist()
            chosen_band = keys[:, 2].tolist()
        if not chosen_pos:
            return ScheduleDecision(links=self._links)
        decision = self._power_control(
            chosen_pos, chosen_band, observation, h_backlogs
        )

        if self._checker is not None and self._checker.enabled:
            self._checker.check_schedule(
                self._model, observation, decision, observation.slot
            )
        return decision

    def _power_control(
        self,
        chosen_pos: List[int],
        chosen_band: List[int],
        observation: SlotObservation,
        h_backlogs: LinkArrayMapping,
    ) -> ScheduleDecision:
        """Per-band minimal powers for the selected link-bands.

        Per band, in ascending band order, one
        :func:`minimal_power_assignment_vec` call over the band's links
        in selection order; priorities come straight off the ``H``
        array.  Entries come out band by band, each band's survivors in
        selection order; drops follow the same band order.
        """
        static = self._static
        h_arr = h_backlogs.values_array
        by_band: Dict[int, List[int]] = {}
        for pos, band in zip(chosen_pos, chosen_band):
            by_band.setdefault(band, []).append(pos)

        # The slot's view under mobility, else the topology's pair-gain
        # lookup; both serve bit-identical submatrix blocks.
        gains = self._gains(observation)
        bands = sorted(by_band)
        kept_pos: List[LinkIds] = []
        kept_power: List[AnyArray] = []
        dropped: List[LinkBand] = []
        for band in bands:
            noise = self._model.noise_power_w(observation.bands.bandwidth(band))
            idx = np.asarray(by_band[band], dtype=np.intp)
            kept, powers, drops = minimal_power_assignment_vec(
                static.link_tx[idx],
                static.link_rx[idx],
                gains,
                noise,
                self._model.params.sinr_threshold,
                static.max_power_tx[idx],
                h_arr[idx],
            )
            kept_pos.append(idx[kept])
            kept_power.append(powers)
            gone = idx[drops]
            dropped.extend(
                zip(
                    static.link_tx[gone].tolist(),
                    static.link_rx[gone].tolist(),
                    [band] * gone.size,
                )
            )
        counts = [pos.size for pos in kept_pos]
        return ScheduleDecision.from_entries(
            link_pos=np.concatenate(kept_pos),
            band=np.repeat(np.asarray(bands, dtype=np.intp), counts),
            power_w=np.concatenate(kept_power),
            band_pkts=self.band_service_pkts(observation),
            dropped=tuple(dropped),
            links=self._links,
        )
