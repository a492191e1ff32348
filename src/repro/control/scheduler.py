"""S1 — link scheduling (Section IV-C-1).

Minimises ``Psi-hat_1 = -(beta/delta) sum_ij H_ij sum_m c_ij^m a_ij^m dt``
subject to the single-radio constraint (22): each node participates in
at most one transmission per slot, as transmitter or receiver, on one
band.  Three algorithms are provided:

* ``SEQUENTIAL_FIX`` — the paper's LP-rounding heuristic (via the
  generic :func:`repro.solvers.sequential_fix`);
* ``MAX_WEIGHT_MATCHING`` — exact: under constraint (22) alone, S1 is a
  maximum-weight matching over nodes with per-edge best-band weights;
* ``GREEDY`` — take link-bands by descending weight while they fit (in
  rounds of locally first candidates, not a scan); a link of two
  single-radio nodes can only ever take its best band, so only that is
  offered.

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

from typing import Dict, List, NamedTuple, Optional, Tuple

import networkx as nx
import numpy as np

from repro.axes import (
    AnyArray,
    BandLinkMat,
    LinkBandMat,
    LinkIds,
    LinkPackets,
    LinkToNode,
    LinkVec,
    NodeIds,
    NodeVec,
)
from repro.contracts import ContractChecker
from repro.control.decisions import ScheduleDecision, SlotObservation, appearance_groups
from repro.core.arraystate import seq_sum
from repro.core.lyapunov import LyapunovConstants
from repro.model import NetworkModel
from repro.phy.power_control import (
    # Not called here; benchmarks/suite/spans.py wraps it on this module.
    minimal_power_assignment,
    minimal_power_assignment_vec,
)
from repro.phy.propagation import PairGains
from repro.exceptions import SolverError
from repro.solvers.linprog import LinearProgram
from repro.solvers.sequential_fix import sequential_fix
from repro.types import LinkBand, NodeId, SchedulerKind
from repro.units import Linear, Watts

#: ``10**k`` for ``k = 0..18``: an int64 of ``k + 1`` digits lies in
#: ``[10**k, 10**(k+1))``.
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)

#: Ignore links whose virtual backlog is below this (the paper's SF
#: pre-step fixes ``a_ij^m = 0`` whenever ``H_ij = 0``).
_H_EPS = 1e-12


def big_m_coefficient(
    gains: PairGains,
    tx: NodeId,
    rx: NodeId,
    noise_power_w: Watts,
    sinr_threshold: Linear,
    max_power_w: NodeVec,
) -> Watts:
    """The constant ``M_ij^m`` of Eq. (24).

    The linearised SINR constraint is

        g_ij P_ij^m a_ij^m + M_ij^m (1 - a_ij^m)
            >= Gamma (eta_j W_m + sum_{k!=i} g_kj P_kv^m a_kv^m),

    and ``M_ij^m = Gamma (eta_j W_m + sum_{k!=i} g_kj P_max^k)`` is its
    worst-case right-hand side — every other node transmitting at its
    ``(N,)`` cap ``max_power_w`` — so that a de-scheduled link
    (``a_ij^m = 0``) imposes no restriction.  The interference sum runs
    as one vectorized pass over the gain column; :func:`seq_sum` keeps
    the accumulation order of a per-node loop, so the constant is
    bit-identical to it.
    """
    column = gains.column(rx)
    contributions = column * max_power_w
    mask = np.ones(column.shape[0], dtype=bool)
    mask[tx] = False
    mask[rx] = False
    worst_interference = seq_sum(contributions[mask])
    return sinr_threshold * (noise_power_w + worst_interference)


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


class _Candidates(NamedTuple):
    """S1 candidate link-bands as parallel ``(B,)`` arrays.

    Built from the :meth:`LinkScheduler._candidate_grid` survivors in
    grid order: link index, then ascending band.  The matching
    tie-break depends on this order, and the pinned trajectories were
    recorded in common-band frozenset order; the two agree whenever
    every band id is below 8 (small ints hash to themselves), and every
    pinned scenario and workload has M = 5.
    """

    pos: LinkIds
    tx: AnyArray
    rx: AnyArray
    band: AnyArray
    weight: AnyArray

    def take(self, order: AnyArray) -> "_Candidates":
        """The candidates reordered (or subset) by ``order``."""
        return _Candidates(*(field[order] for field in self))


class _RadioBudget:
    """Stateful conflict masks for the sequential fix.

    The SF loop calls it exactly once per candidate fixed to 1; it
    tracks per-node radio usage and per-(node, band) exclusivity and
    returns the ``(B,)`` mask of candidates that just became
    infeasible.  With one radio per node, the still-open candidates it
    blocks are exactly those sharing an endpoint.
    """

    def __init__(self, cand: _Candidates, radios: NodeVec, num_bands: int) -> None:
        self._cand = cand
        self._radios = radios
        self._usage = np.zeros(radios.shape[0], dtype=np.intp)
        self._band_used = np.zeros((radios.shape[0], num_bands), dtype=bool)

    def __call__(self, column: int) -> AnyArray:
        cand = self._cand
        tx, rx = int(cand.tx[column]), int(cand.rx[column])
        band = int(cand.band[column])
        self._usage[[tx, rx]] += 1
        self._band_used[[tx, rx], band] = True
        blocked = (cand.band == band) & (
            self._band_used[cand.tx, band] | self._band_used[cand.rx, band]
        )  # constraints (20)/(21): one activity per node per band
        for node in (tx, rx):
            if self._usage[node] >= self._radios[node]:
                blocked |= (cand.tx == node) | (cand.rx == node)
        blocked[column] = False
        return blocked


def _repr_rank(cand: _Candidates) -> AnyArray:
    """Rank of each candidate's ``repr((tx, rx, band))`` in string order.

    The SF tie-break among equal LP values (the pinned trajectories
    were recorded with it), computed once per slot without strings.
    The ``repr`` order compares the three fields' decimal strings in
    turn, a prefix first.  For a non-negative ``a`` of ``n`` digits
    that is the order of ``(a * 10**(D - n), n)``, ``D`` the field's
    widest: the first key pads the digits with zeros on the right, and
    the second puts a prefix before its extensions (``1 < 10 < 100``).
    """
    keys = []
    for field in (cand.tx, cand.rx, cand.band):
        digits = np.searchsorted(_POWERS_OF_TEN[1:], field, side="right") + 1
        width = int(digits.max(initial=1))
        keys += [field * _POWERS_OF_TEN[width - digits], digits]
    rank = np.empty(cand.tx.shape[0], dtype=np.intp)
    rank[np.lexsort(keys[::-1])] = np.arange(rank.shape[0])
    return rank


def _greedy_rounds(
    tx: NodeIds,
    rx: NodeIds,
    band: AnyArray,
    weight: AnyArray,
    key: AnyArray,
    radios: NodeVec,
    num_bands: int,
) -> Tuple[AnyArray, int]:
    """The candidates a greedy conflict scan takes, in its order.

    The scan visits the candidates by descending ``weight``, ties by
    ascending int64 ``key`` (unique per candidate, so the order is
    total), and takes one when both endpoints have a radio left
    (``radios >= 1`` per node) and neither already uses its band
    (constraints (20)-(22)).  This makes the same picks in rounds over
    the live (undecided) candidates: each round finds every node's
    first live incident candidate, takes each candidate that is first
    at both endpoints, then drops the live candidates that the new
    picks leave without a radio or a band.

    Exact: the scan's verdict on a candidate depends only on the picks
    among its earlier neighbours (candidates sharing an endpoint).  A
    candidate first at both endpoints has none left live, and no later
    neighbour can have been taken before it (that one was not first at
    the shared node), so its endpoints hold exactly the state the scan
    would meet; it is live, so it fits and the scan takes it.  A
    dropped candidate fails against a subset of the scan's earlier
    picks, so it fails in the scan too.  Two picks of one round share
    no node.  The first live candidate overall is first at both of its
    endpoints, so every round takes one; rounds <= picks, and a path
    whose weights fall along it needs one round per pick.

    Returns ``(picks, rounds)``: the picks' indices, ordered by
    (descending weight, key), and the number of rounds taken.
    """
    num_nodes = radios.shape[0]
    free = radios.copy()
    # open_cell[node, band]: the node has a radio left and is not on the band.
    open_cell = np.ones((num_nodes, num_bands), dtype=bool)
    open_flat = open_cell.reshape(-1)
    top = np.empty(num_nodes)
    low = np.empty(num_nodes, dtype=np.int64)
    # The live candidates' columns, compacted after every round.
    live = np.arange(tx.shape[0])
    live_w, live_key = weight, key
    tx_cell = tx * num_bands + band
    rx_cell = rx * num_bands + band
    rounds: List[AnyArray] = []
    while live.size:
        # Each node's first live candidate: the top weight at the node,
        # then the lowest key among the candidates holding it.
        top.fill(-np.inf)
        np.maximum.at(top, tx, live_w)
        np.maximum.at(top, rx, live_w)
        top_tx = live_w == top[tx]
        top_rx = live_w == top[rx]
        low.fill(np.iinfo(np.int64).max)
        at = top_tx.nonzero()[0]
        np.minimum.at(low, tx[at], live_key[at])
        at = top_rx.nonzero()[0]
        np.minimum.at(low, rx[at], live_key[at])
        first = top_tx & top_rx & (live_key == low[tx]) & (live_key == low[rx])
        take = first.nonzero()[0]
        rounds.append(live[take])
        open_flat[tx_cell[take]] = False
        open_flat[rx_cell[take]] = False
        for ends in (tx[take], rx[take]):  # disjoint node sets
            free[ends] -= 1
            open_cell[ends[free[ends] == 0]] = False
        # A pick closes its own cells, so it leaves the live set too.
        fits = (open_flat[tx_cell] & open_flat[rx_cell]).nonzero()[0]
        live, tx, rx, tx_cell, rx_cell, live_w, live_key = (
            column[fits] for column in (live, tx, rx, tx_cell, rx_cell, live_w, live_key)
        )
    picks = np.concatenate(rounds) if rounds else live
    return picks[np.lexsort((key[picks], -weight[picks]))], len(rounds)


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
        # Per-node radio budgets (1 in the paper), built once.
        bs, user = model.params.bs_node, model.params.user_node
        self._radios_arr: NodeVec = model.node_vector(
            bs.num_radios, user.num_radios, np.intp
        )
        # Per-topology tables: radios, power caps and the static band
        # sets never change mid-run, and every table is a per-node array
        # fancy-indexed by the frozen link endpoints (O(N + L) numpy).
        link_tx, link_rx = model.topology.link_tx, model.topology.link_rx
        recv_power = model.node_vector(bs.recv_power_w, user.recv_power_w)
        self._static = _SchedulerStatic(
            link_tx=link_tx,
            link_rx=link_rx,
            band_member=model.link_band_member,
            max_power_tx=model.max_power_w[link_tx],
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

    def _candidate_grid(
        self,
        observation: SlotObservation,
        h_arr: LinkPackets,
        support: LinkIds,
        energy_prices: Optional[NodeVec],
        allowed_mask: Optional[LinkVec] = None,
    ) -> Optional[Tuple[LinkIds, BandLinkMat, BandLinkMat]]:
        """Net candidate weights as band-major ``(bands, active links)``
        arrays.

        Returns ``(active, keep, weight)`` — the active link positions,
        the survivor mask and the weight matrix, one contiguous row per
        band — or ``None`` when no link clears the backlog floor.  Only
        the ascending positions ``support`` where ``H != 0`` are tested
        against the floor; every other link reads ``H == 0``.  Band
        membership is the slot's ``M_i(t) ∩ M_j(t)`` mask
        (:meth:`SlotObservation.link_band_member`).

        ``allowed_mask`` is the static ``(L,)`` link filter of the
        one-hop architectures (None: every link).
        """
        beta = self._constants.beta
        params = self._model.params
        dt = params.slot_seconds
        static = self._static
        active = support[h_arr[support] > _H_EPS]
        if allowed_mask is not None:
            active = active[allowed_mask[active]]
        if active.size == 0:
            return None

        service = observation.band_service_pkts(self._model)
        keep = observation.link_band_member(self._model, active).T.copy()
        keep &= (service > 0.0)[:, None]
        weight = service[:, None] * (beta * h_arr[active])
        if energy_prices is not None:
            noise = observation.band_noise_w(self._model)
            tx_idx = static.link_tx[active]
            rx_idx = static.link_rx[active]
            if observation.gains is not None:
                g_link = observation.gains.pairs(tx_idx, rx_idx)
            else:
                # The frozen per-link gain array is bitwise equal to
                # ``pair_gains.pairs(link_tx, link_rx)``, so no pair
                # view read is needed.
                g_link = self._model.topology.link_gains[active]
            power = (params.sinr_threshold * noise)[:, None] / g_link
            keep &= power <= static.max_power_tx[active]
            # w - (price_tx * P) * dt - (price_rx * P_recv) * dt, in place.
            np.multiply(energy_prices[tx_idx], power, out=power)
            power *= dt
            weight -= power
            weight -= (energy_prices[rx_idx] * static.recv_power_rx[active]) * dt
        keep &= weight > 0.0
        return active, keep, weight

    def _candidates(
        self, active: LinkIds, keep: BandLinkMat, weight: BandLinkMat
    ) -> _Candidates:
        """The grid survivors as candidate arrays, in (link, band) order."""
        rows, bands = np.nonzero(keep.T)
        pos = active[rows]
        return _Candidates(
            pos=pos,
            tx=self._static.link_tx[pos],
            rx=self._static.link_rx[pos],
            band=bands,
            weight=weight[bands, rows],
        )

    # ------------------------------------------------------------------
    # Activation algorithms
    # ------------------------------------------------------------------

    def _radio_rows(self, cand: _Candidates) -> Tuple[AnyArray, AnyArray, AnyArray]:
        """Constraints (20)-(22) generalised to radio budgets, as COO.

        Returns ``(rows, cols, rhs)`` of unit coefficients.  Per node,
        in order of the node's first appearance among the candidates
        (transmitter before receiver): total activity <= num_radios.
        Then per (node, band), in the same order: activity <= 1, for
        multi-radio nodes with more than one candidate on the band
        (constraints (20)/(21), which the budget row only implies in
        the single-radio case).
        """
        radios = self._radios_arr
        num_bands = self._static.band_member.shape[1]
        ends = np.stack((cand.tx, cand.rx), axis=1).ravel()
        cols = np.repeat(np.arange(cand.tx.shape[0]), 2)
        node_row, nodes, _ = appearance_groups(ends)
        pair_group, pairs, counts = appearance_groups(
            ends * num_bands + np.repeat(cand.band, 2)
        )
        exclusive = (radios[pairs // num_bands] > 1) & (counts > 1)
        pair_row = nodes.shape[0] + np.cumsum(exclusive) - 1
        in_pair = exclusive[pair_group]
        rows = np.concatenate((node_row, pair_row[pair_group][in_pair]))
        rhs = np.concatenate(
            (radios[nodes].astype(np.float64), np.ones(int(exclusive.sum())))
        )
        return rows, np.concatenate((cols, cols[in_pair])), rhs

    def _sinr_rows(
        self, cand: _Candidates, observation: SlotObservation, first_row: int
    ) -> Tuple[AnyArray, AnyArray, AnyArray, AnyArray]:
        """The big-M SINR constraints (24) and their power links, as COO.

        Column ``B + k`` is candidate ``k``'s power.  Per band, in order
        of the band's first appearance, per candidate in order: the row
        ``P - P_max a <= 0`` (power flows only when scheduled), then

            g_ij P_ijm + M_ijm (1 - a_ijm)
                >= Gamma (eta W_m + sum_{(k,v) != (i,j)} g_kj P_kvm),

        negated into ``<=`` form.  The rows depend on the slot's gains
        only, not on the fixings.  Returns ``(rows, cols, vals, rhs)``.
        """
        threshold = self._model.params.sinr_threshold
        gains = observation.pair_gains(self._model)
        tx, rx, band = cand.tx, cand.rx, cand.band
        num = tx.shape[0]
        noise = observation.band_noise_w(self._model)[band]
        big_m = np.fromiter(
            (
                big_m_coefficient(gains, t, r, n, threshold, self._model.max_power_w)
                for t, r, n in zip(tx.tolist(), rx.tolist(), noise.tolist())
            ),
            dtype=float,
            count=num,
        )
        # Rows grouped by band (first appearance), candidate order within.
        band_group, _, _ = appearance_groups(band)
        slot_of = np.empty(num, dtype=np.intp)
        slot_of[np.argsort(band_group, kind="stable")] = np.arange(num)
        pow_row = first_row + 2 * slot_of
        sinr_row = pow_row + 1
        block = gains.submatrix(tx, rx)  # [k, l] = g(tx_k, rx_l)
        # Only co-band candidates interfere.  Those sharing a node with
        # (tx, rx) are already excluded by the radio conflicts in the
        # binary solution; pricing their (fractional) self-interference
        # here would exceed the big-M envelope, which only covers
        # k != i, j.
        others, own = np.nonzero(
            (band[:, None] == band[None, :])
            & (tx[:, None] != tx[None, :])
            & (tx[:, None] != rx[None, :])
        )
        cols = np.arange(num)
        rhs = np.zeros(2 * num)
        rhs[sinr_row - first_row] = -(threshold * noise - big_m)
        # The ``>=`` row's coefficients enter negated into ``<=`` form.
        return (
            np.concatenate((pow_row, pow_row, sinr_row, sinr_row, sinr_row[own])),
            np.concatenate((num + cols, cols, num + cols, cols, num + others)),
            np.concatenate(
                (
                    np.ones(num),
                    -self._static.max_power_tx[cand.pos],
                    -np.diagonal(block),
                    big_m,
                    threshold * block[others, own],
                )
            ),
            rhs,
        )

    def _select_sequential_fix(
        self,
        cand: _Candidates,
        observation: SlotObservation,
        sinr: bool,
    ) -> Tuple[List[int], List[int]]:
        """SF over the candidates sorted by ``(tx, rx, band)``.

        The slot's relaxation is built once; the SF loop fixes columns
        by bound changes.  With ``sinr`` the LP also carries a power
        column per candidate (linearising ``P * a`` by
        ``P <= P_max a``) and the big-M SINR rows, so it already prices
        co-band interference when choosing which variable to fix —
        fewer selections die in power control; fixes are then checked
        for joint feasibility first.

        Returns the selection as ``(link position, band)`` lists in the
        order the SF fixed it to 1.
        """
        cand = cand.take(np.lexsort((cand.band, cand.rx, cand.tx)))
        num = cand.tx.shape[0]
        rows, cols, rhs = self._radio_rows(cand)
        vals = np.ones(rows.shape[0])
        # Minimisation form of Psi-hat_1: negative weights.
        cost = -cand.weight
        bounds = np.tile([0.0, 1.0], (num, 1))
        zero_with = None
        if sinr:
            s_rows, s_cols, s_vals, s_rhs = self._sinr_rows(
                cand, observation, rhs.shape[0]
            )
            rows = np.concatenate((rows, s_rows))
            cols = np.concatenate((cols, s_cols))
            vals = np.concatenate((vals, s_vals))
            rhs = np.concatenate((rhs, s_rhs))
            cost = np.concatenate((cost, np.zeros(num)))
            power_bounds = np.zeros((num, 2))
            power_bounds[:, 1] = self._static.max_power_tx[cand.pos]
            bounds = np.concatenate((bounds, power_bounds))
            zero_with = num + np.arange(num)
        lp = LinearProgram(cost, bounds, (rows, cols, vals), rhs)
        chosen = sequential_fix(
            lp,
            _repr_rank(cand),
            _RadioBudget(cand, self._radios_arr, self._static.band_member.shape[1]),
            check_feasibility=sinr,
            zero_with=zero_with,
        )
        return cand.pos[chosen].tolist(), cand.band[chosen].tolist()

    def _select_matching(self, cand: _Candidates) -> Tuple[List[int], List[int]]:
        """Exact S1 optimum via maximum-weight matching.

        Constraint (22) makes every node a unit-capacity resource, so
        the activation problem is a matching on the undirected node
        graph; each undirected edge takes its best direction and band
        (the earliest candidate on ties), and edges enter the graph in
        order of their first candidate.  Only exact for single-radio
        nodes — with budgets the problem is a degree-constrained
        subgraph, which this solver does not handle.
        """
        radios = self._radios_arr
        if (radios[cand.tx] > 1).any() or (radios[cand.rx] > 1).any():
            raise SolverError(
                "MAX_WEIGHT_MATCHING is exact only for single-radio nodes; "
                "use SEQUENTIAL_FIX or GREEDY with num_radios > 1"
            )
        low = np.minimum(cand.tx, cand.rx)
        high = np.maximum(cand.tx, cand.rx)
        edge = low * np.int64(self._model.num_nodes) + high
        index = np.arange(edge.shape[0])
        order = np.lexsort((index, -cand.weight, edge))
        heads = np.ones(order.shape[0], dtype=bool)
        heads[1:] = edge[order][1:] != edge[order][:-1]
        starts = np.flatnonzero(heads)
        best = order[starts]  # one candidate per edge, by edge id
        # Each edge's first candidate: the smallest index in its run.
        first = np.minimum.reduceat(order, starts) if starts.size else starts
        best = best[np.argsort(first)]

        graph = nx.Graph()
        graph.add_weighted_edges_from(
            zip(low[best].tolist(), high[best].tolist(), cand.weight[best])
        )
        winner = dict(zip(zip(low[best].tolist(), high[best].tolist()), best.tolist()))
        matching = nx.max_weight_matching(graph, maxcardinality=False)
        chosen = [winner[(min(u, v), max(u, v))] for u, v in matching]
        return cand.pos[chosen].tolist(), cand.band[chosen].tolist()

    def _select_greedy(
        self,
        active: LinkIds,
        keep: BandLinkMat,
        weight: BandLinkMat,
    ) -> Tuple[List[int], List[int]]:
        """GREEDY selection: take link-bands by weight while they fit.

        The picks of a scan in descending weight, ties by ``(tx, rx,
        band)`` (the int64 key ``(tx*N + rx)*M + band``), that takes a
        candidate when both endpoints have a radio left and neither
        already uses its band; :func:`_greedy_rounds` makes them without
        the scan.  A link of two single-radio nodes offers only its best
        kept band (lowest on ties): taken or rejected, it leaves an
        endpoint full, so its later bands would fail too.  Multi-radio
        links keep every band (a band clash can reject band m while
        band m' still fits).

        Returns the chosen candidates as parallel ``(link position,
        band)`` lists, in selection (descending-weight) order.
        """
        static = self._static
        num_bands = keep.shape[0]
        tx_act, rx_act = static.link_tx[active], static.link_rx[active]
        radios = self._radios_arr
        multi = (radios[tx_act] != 1) | (radios[rx_act] != 1)
        # The band rows with unkept cells at -inf, and each link's best
        # kept weight (max is exact in any order).
        kept = np.where(keep, weight, -np.inf)
        best = kept.max(axis=0)
        # Every kept band of a multi-radio link; the first band at its
        # best weight (the lowest on ties) of a single-radio link.
        seen = np.zeros(active.shape[0], dtype=bool)
        by_band: List[AnyArray] = []
        for band, column in enumerate(kept):
            at_best = column == best
            by_band.append(((multi | (at_best & ~seen)) & keep[band]).nonzero()[0])
            seen |= at_best
        rows = np.concatenate(by_band)
        bands = np.repeat(np.arange(num_bands), [r.size for r in by_band])
        tx, rx = tx_act[rows], rx_act[rows]
        key = (tx * np.int64(self._model.num_nodes) + rx) * num_bands + bands
        picks, _ = _greedy_rounds(
            tx,
            rx,
            bands,
            np.concatenate([column[r] for column, r in zip(kept, by_band)]),
            key,
            radios,
            num_bands,
        )
        return active[rows[picks]].tolist(), bands[picks].tolist()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def _empty(self) -> ScheduleDecision:
        """A schedule with no entries over the frozen link index."""
        return ScheduleDecision(
            link_tx=self._static.link_tx, link_rx=self._static.link_rx
        )

    def schedule(
        self,
        observation: SlotObservation,
        h_backlogs: LinkPackets,
        support: LinkIds,
        allowed_mask: Optional[LinkVec] = None,
        energy_prices: Optional[NodeVec] = None,
    ) -> ScheduleDecision:
        """Solve S1 for one slot.

        Args:
            observation: the slot's realised random state.
            h_backlogs: ``(L,)`` current ``H_ij(t)`` by link position.
            support: ascending link positions holding every nonzero of
                ``h_backlogs`` (``state.arrays.g_support``).
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
        grid = self._candidate_grid(
            observation, h_backlogs, support, energy_prices, allowed_mask
        )
        if grid is None:
            return self._empty()
        if self._kind is SchedulerKind.GREEDY:
            chosen_pos, chosen_band = self._select_greedy(*grid)
        else:
            cand = self._candidates(*grid)
            if cand.pos.size == 0:
                return self._empty()
            if self._kind is SchedulerKind.MAX_WEIGHT_MATCHING:
                chosen_pos, chosen_band = self._select_matching(cand)
            else:
                chosen_pos, chosen_band = self._select_sequential_fix(
                    cand,
                    observation,
                    sinr=self._kind is SchedulerKind.SEQUENTIAL_FIX_SINR,
                )
        if not chosen_pos:
            return self._empty()
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
        h_arr: LinkPackets,
    ) -> ScheduleDecision:
        """Per-band minimal powers for the selected link-bands.

        Per band, in ascending band order, one
        :func:`minimal_power_assignment_vec` call over the band's links
        in selection order; priorities come straight off the ``H``
        array.  Entries come out band by band, each band's survivors in
        selection order; drops follow the same band order.
        """
        static = self._static
        by_band: Dict[int, List[int]] = {}
        for pos, band in zip(chosen_pos, chosen_band):
            by_band.setdefault(band, []).append(pos)

        gains = observation.pair_gains(self._model)
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
            band_pkts=observation.band_service_pkts(self._model),
            dropped=tuple(dropped),
            link_tx=static.link_tx,
            link_rx=static.link_rx,
        )
