"""S3 — routing (Section IV-C-3).

Minimises ``sum_{s,i,j} (-Q_i^s + Q_j^s + beta H_ij) l_ij^s`` under the
flow constraints (16)-(18) and the link-capacity constraint (25).  The
paper's per-link greedy rule is optimal for the ILP: each link gives its
whole capacity to the session with the most negative coefficient (or
carries nothing if every coefficient is non-negative), and each
destination's required ``v_s(t)`` packets are forced onto its
smallest-coefficient incoming link (constraint 18).

Only the backpressure support is scored.  A coefficient can be negative
only where ``Q_i^s > beta H_ij``, because ``Q >= 0`` and ``H >= 0``; the
router gathers the outgoing links of the nodes that hold data (the
topology's ``out_start`` ranges), keeps those whose transmitter's
largest backlog exceeds ``beta H_ij`` (``beta H`` evaluated at the
gathered positions only) and builds the coefficients, masks and
Eq.-(25) capacities on those rows alone.  The filter is exact in
floating point (see :meth:`BackpressureRouter._route_remaining_links`),
so a slot costs work on the out-links of the backlogged nodes, not on
the whole link index.

Capacity modes (see DESIGN.md, "substitutions"):

* ``POTENTIAL_CAPACITY`` (default) — a link may be assigned up to the
  service it *would* receive if scheduled on its best common band this
  slot.  The assignment parks packets in the link-layer virtual queue
  ``G_ij``; backpressure through ``H_ij`` then attracts the scheduler.
  This is what makes the S1 <-> S3 feedback loop bootstrap: with the
  literal mode, an upstream link with ``H_ij = 0`` is never scheduled
  (its S1 weight is ``H_ij * c = 0``) and therefore never earns
  capacity to route over, so multi-hop flows starve.  The virtual-queue
  arrival bound (Eq. 29) still holds because assignments stay below
  ``c_max_ij dt/delta``.
* ``SCHEDULED_CAPACITY`` — the paper's literal Eq. (25) cap using the
  realised ``a_ij^m``; provided for the fidelity ablation.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

import numpy as np

from repro.axes import (
    AnyArray,
    BandVec,
    LinkBandMat,
    LinkIds,
    LinkPackets,
    LinkSessionMat,
    LinkVec,
)
from repro.contracts import ContractChecker
from repro.control.decisions import (
    AdmissionDecision,
    RoutingDecision,
    ScheduleDecision,
    SlotObservation,
)
from repro.core.arraystate import ArrayState
from repro.core.lyapunov import LyapunovConstants
from repro.model import NetworkModel
from repro.phy.capacity import max_link_capacity_bps


def _reduce_columns(ufunc: np.ufunc, matrix: AnyArray) -> AnyArray:
    """``ufunc.reduce(matrix, axis=1)`` as one elementwise pass per column.

    numpy (2.4) reduces a narrow inner axis (``S`` sessions, ``M``
    bands) far slower than it runs a pass over a strided column; the
    routed reductions (max, min, or, integer add) are exact, so the
    column order does not change a bit.
    """
    if matrix.shape[1] == 1:
        return matrix[:, 0].copy()
    acc = ufunc(matrix[:, 0], matrix[:, 1])
    for col in range(2, matrix.shape[1]):
        ufunc(acc, matrix[:, col], out=acc)
    return acc


class RouterMode(enum.Enum):
    """Which capacity bound Eq. (25) applies per link (module docs)."""

    POTENTIAL_CAPACITY = "potential_capacity"
    SCHEDULED_CAPACITY = "scheduled_capacity"


class BackpressureRouter:
    """The S3 subproblem solver."""

    def __init__(
        self,
        model: NetworkModel,
        constants: LyapunovConstants,
        rng: np.random.Generator,
        mode: RouterMode = RouterMode.POTENTIAL_CAPACITY,
        checker: Optional[ContractChecker] = None,
    ) -> None:
        self._model = model
        self._constants = constants
        self._rng = rng
        self._mode = mode
        self._checker = checker

    @property
    def mode(self) -> RouterMode:
        """The configured capacity mode."""
        return self._mode

    def attach_contracts(self, checker: ContractChecker) -> None:
        """Validate every routing decision against Eqs. 16-17 and 25."""
        self._checker = checker

    def route(
        self,
        observation: SlotObservation,
        schedule: ScheduleDecision,
        admission: AdmissionDecision,
        h_backlogs: LinkPackets,
        arrays: ArrayState,
        allowed_mask: Optional[LinkVec] = None,
    ) -> RoutingDecision:
        """Solve S3 for one slot.

        Args:
            observation: realised random state (potential capacities).
            schedule: the S1 decision (scheduled capacities).
            admission: the S2 decision (per-session sources).
            h_backlogs: ``(L,)`` current ``H_ij(t)`` by link position.
            arrays: the state's ``ArrayState``; ``Q_i^s(t)`` is read
                from its ``(N, S)`` backlog matrix.
            allowed_mask: optional ``(L,)`` link filter over the frozen
                link index (one-hop baselines).

        Returns:
            Per-link per-session rates ``l_ij^s(t)`` in packets: the
            constraint-(18) entries in session order, then the other
            routed links in link-index order.
        """
        # Constraint-(18) entries as (link position, session column,
        # packets), in session order.
        forced_pos: List[int] = []
        forced_col: List[int] = []
        forced_pkts: List[float] = []
        topo = self._model.topology
        beta = self._constants.beta
        q = arrays.q

        # Constraint (18): force v_s(t) onto the destination's
        # smallest-coefficient incoming candidate link.  One pass over
        # the S sessions, each scanning only its destination's in-links
        # (ascending position, so ascending transmitter: the order the
        # first minimum and the tie list follow).  Each coefficient
        # ``-Q_i^s + Q_j^s + beta H_ij`` is evaluated in the association
        # order of the matrix expression of the second pass; ``Q_j^s``
        # reads the destination's pinned 0.0.
        for session in self._model.sessions:  # noqa: R040 - S-sized pass over the destination in-links (constraint 18); the bulk of S3 is the vectorized second pass
            dest = session.destination
            demand = session.demand(observation.slot)
            if demand <= 0:
                continue
            col = session.session_id  # its Q column
            # Constraint (16): the source has no incoming traffic —
            # irrelevant here since dest != source for a live session.
            pos = topo.in_links[topo.in_start[dest] : topo.in_start[dest + 1]]
            if allowed_mask is not None:
                pos = pos[allowed_mask[pos]]
            if pos.size == 0:
                continue
            beta_h = beta * h_backlogs[pos]
            coefficients = (-q[topo.link_tx[pos], col] + q[dest, col]) + beta_h
            tied = pos[coefficients == coefficients.min()]
            chosen = tied[0] if tied.size == 1 else tied[self._rng.integers(tied.size)]
            forced_pos.append(int(chosen))
            forced_col.append(col)
            forced_pkts.append(float(demand))

        # All other links: whole capacity to the most negative session.
        rest_pos, rest_col, rest_pkts = self._route_remaining_links(
            h_backlogs,
            arrays,
            observation,
            schedule,
            admission,
            forced_pos,
            allowed_mask,
        )
        decision = RoutingDecision(
            link_pos=np.concatenate((np.array(forced_pos, dtype=np.intp), rest_pos)),
            session_col=np.concatenate((np.array(forced_col, dtype=np.intp), rest_col)),
            pkts=np.concatenate((forced_pkts, rest_pkts)),
            link_tx=arrays.link_tx,
            link_rx=arrays.link_rx,
        )
        if self._checker is not None and self._checker.enabled:
            self._checker.check_routing(
                self._model, decision, admission, observation.slot
            )
        return decision

    def _route_remaining_links(
        self,
        h_backlogs: LinkPackets,
        arrays: ArrayState,
        observation: SlotObservation,
        schedule: ScheduleDecision,
        admission: AdmissionDecision,
        committed: List[int],
        allowed_mask: Optional[LinkVec],
    ) -> Tuple[LinkIds, AnyArray, AnyArray]:
        """Second pass: each remaining link's whole capacity to the best session.

        Only the backpressure support ``cand`` is scored (see
        :meth:`_backpressure_links`).  Eligibility, per-link capacity,
        the per-link minimum and the tie sets come out of array
        expressions over the ``cand`` rows; only
        links with a tied best session are visited in Python, in frozen
        link-index order (``cand`` is ascending), which fixes the
        sequence of tie-break RNG draws.  ``committed`` holds the link
        positions the constraint-(18) pass already used.

        Returns:
            ``(link_pos, session_col, pkts)`` of the routed links, in
            link-index order.
        """
        params = self._model.params
        q = arrays.q
        cand, beta_h = self._backpressure_links(q, h_backlogs)
        tx, rx = arrays.link_tx[cand], arrays.link_rx[cand]

        # Per-link Eq.-(25) capacity of the candidate rows.
        if self._mode is RouterMode.POTENTIAL_CAPACITY:
            caps_bps: BandVec = np.fromiter(
                (
                    max_link_capacity_bps(
                        observation.bands.bandwidth(m), params.sinr_threshold
                    )
                    for m in range(self._model.spectrum.num_bands)
                ),
                dtype=np.float64,
                count=self._model.spectrum.num_bands,
            )
            member: LinkBandMat = observation.link_band_member(self._model, cand)
            # The best member band's rate, 0.0 with none: capacities are
            # >= 0, so starting the running max at 0.0 changes nothing.
            best_bps: LinkVec = np.zeros(cand.size)
            for band in range(member.shape[1]):
                np.maximum(best_bps, caps_bps[band], out=best_bps, where=member[:, band])
            capacity: LinkVec = (
                best_bps * params.slot_seconds / params.sessions.packet_size_bits
            )
        else:
            capacity = schedule.service_at(cand)

        active: LinkVec = (capacity > 0.0) & ~np.isin(cand, committed)
        if allowed_mask is not None:
            active &= allowed_mask[cand]

        # Coefficients ``-Q_i^s + Q_j^s + beta H_ij`` of the candidate
        # rows; destination columns of Q are pinned at 0.0.  (16):
        # sources receive nothing; eligible coefficients are strictly
        # negative; (17): neither endpoint is the session destination.
        coeff: LinkSessionMat = (-q[tx] + q[rx]) + beta_h[:, None]
        dests = self._model.destination_rows[None, :]
        mask: LinkSessionMat = (
            (tx[:, None] != dests)
            & (rx[:, None] != dests)
            & (coeff < 0.0)
            & (admission.source_rows[None, :] != rx[:, None])
            & active[:, None]
        )
        rows: LinkIds = np.flatnonzero(_reduce_columns(np.logical_or, mask))
        best_value: LinkVec = _reduce_columns(np.minimum, np.where(mask, coeff, np.inf))
        ties: LinkSessionMat = mask & (coeff == best_value[:, None])
        routed_ties = ties[rows]
        cols = routed_ties.argmax(axis=1)
        tied = _reduce_columns(np.add, routed_ties.astype(np.intp))
        for k in np.flatnonzero(tied > 1):
            cols[k] = self._rng.choice(np.flatnonzero(routed_ties[k]))
        return cand[rows], cols, capacity[rows]

    def _backpressure_links(
        self, q: AnyArray, h_backlogs: LinkPackets
    ) -> Tuple[LinkIds, LinkVec]:
        """The links that can carry a negative coefficient, with ``beta H``.

        Returns the ascending positions ``cand`` whose transmitter holds
        more than ``beta H_ij`` of some session, and ``beta H`` at them.
        Every other link has no negative coefficient, even after
        rounding.  With ``a = Q_i^s``, ``b = Q_j^s >= 0`` and
        ``c = beta H_ij >= 0``, rounding is monotone, so
        ``fl(-a + b) >= -a`` and, if ``a <= c``,
        ``fl(fl(-a + b) + c) >= fl(-a + c) >= 0``.

        Since ``beta H_ij >= 0``, only a transmitter with a positive
        backlog can pass: the candidates are drawn from the out-ranges
        ``out_start[i]:out_start[i + 1]`` of those nodes (ascending,
        because the link index is transmitter-major), and ``beta H``
        is evaluated at those positions only.

        Each node's largest backlog is a running ``np.maximum`` over
        the ``S`` column views of ``Q`` (:func:`_reduce_columns`): the
        same value as ``q.max(axis=1)``, since a max is exact in any
        order.
        """
        out_start = self._model.topology.out_start
        qmax = _reduce_columns(np.maximum, q)
        senders = np.flatnonzero(qmax > 0.0)
        first = out_start[senders]
        counts = out_start[senders + 1] - first
        # The senders' out-ranges, concatenated: entry k of sender i's
        # run is position ``first_i + k``.
        gathered = np.arange(int(counts.sum())) + np.repeat(
            first - (np.cumsum(counts) - counts), counts
        )
        beta_h: LinkVec = self._constants.beta * h_backlogs[gathered]
        passed = np.repeat(qmax[senders], counts) > beta_h
        return gathered[passed], beta_h[passed]
