"""S3 — routing (Section IV-C-3).

Minimises ``sum_{s,i,j} (-Q_i^s + Q_j^s + beta H_ij) l_ij^s`` under the
flow constraints (16)-(18) and the link-capacity constraint (25).  The
paper's per-link greedy rule is optimal for the ILP: each link gives its
whole capacity to the session with the most negative coefficient (or
carries nothing if every coefficient is non-negative), and each
destination's required ``v_s(t)`` packets are forced onto its
smallest-coefficient incoming link (constraint 18).

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
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.axes import (
    AnyArray,
    BandVec,
    LinkBandMat,
    LinkIds,
    LinkSessionMat,
    LinkVec,
    SessionToNode,
)
from repro.contracts import ContractChecker
from repro.control.decisions import (
    AdmissionDecision,
    RoutingDecision,
    ScheduleDecision,
    SlotObservation,
)
from repro.core.arraystate import ArrayState, LinkArrayMapping
from repro.core.lyapunov import LyapunovConstants
from repro.model import NetworkModel
from repro.phy.capacity import max_link_capacity_bps


@dataclass(frozen=True)
class _RouterStatic:
    """Frozen per-run routing tables over the link index.

    Attributes:
        eligible: ``(L, S)`` constraint-(17) mask — True where neither
            endpoint of link ``p`` is session ``c``'s destination.
    """

    eligible: LinkSessionMat


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
        # (17): destinations emit nothing; destination in-links are
        # handled by the constraint-(18) pass.  Roles never change
        # mid-run, so the table is built once.
        sessions = model.sessions
        dests: SessionToNode = np.fromiter(
            (s.destination for s in sessions), dtype=np.intp, count=len(sessions)
        )
        link_tx, link_rx = model.topology.link_arrays()
        self._static = _RouterStatic(
            eligible=(link_tx[:, None] != dests[None, :])
            & (link_rx[:, None] != dests[None, :]),
        )

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
        h_backlogs: LinkArrayMapping,
        arrays: ArrayState,
        allowed_mask: Optional[LinkVec] = None,
    ) -> RoutingDecision:
        """Solve S3 for one slot.

        Args:
            observation: realised random state (potential capacities).
            schedule: the S1 decision (scheduled capacities).
            admission: the S2 decision (per-session sources).
            h_backlogs: current ``H_ij(t)``, a view over the frozen link
                index of ``arrays``.
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
        link_pos = arrays.link_pos

        # Coefficient matrix ``(-Q_i^s + Q_j^s + beta H_ij)`` over
        # (link, session); destination columns of Q are pinned at 0.0,
        # so ``Q_j^s`` reads 0 where ``j`` is the session destination.
        beta_h = self._constants.beta * h_backlogs.values_array
        q = arrays.q
        coeff: LinkSessionMat = (
            (-q[arrays.link_tx] + q[arrays.link_rx]) + beta_h[:, None]
        )

        # Constraint (18): force v_s(t) onto the destination's
        # smallest-coefficient incoming candidate link.  One pass over
        # the S sessions, each scanning only its destination's in-links.
        for session in self._model.sessions:  # noqa: R040 - S-sized pass over the destination in-links (constraint 18); the (L, S) bulk of S3 is the vectorized second pass
            dest = session.destination
            demand = session.demand(observation.slot)
            if demand <= 0:
                continue
            col = arrays.session_col[session.session_id]
            # Constraint (16): the source has no incoming traffic —
            # irrelevant here since dest != source for a live session.
            coefficients = {
                (i, dest): coeff[link_pos[(i, dest)], col]
                for i in topo.in_neighbors.get(dest, ())
                if i != dest
                and (allowed_mask is None or allowed_mask[link_pos[(i, dest)]])
            }
            if not coefficients:
                continue
            best_value = min(coefficients.values())
            tied = [l for l, v in coefficients.items() if v == best_value]
            chosen = tied[0] if len(tied) == 1 else tied[self._rng.integers(len(tied))]
            forced_pos.append(link_pos[chosen])
            forced_col.append(col)
            forced_pkts.append(float(demand))

        # All other links: whole capacity to the most negative session.
        rest_pos, rest_col, rest_pkts = self._route_remaining_links(
            coeff,
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
            links=arrays.links,
            sessions=arrays.sessions,
        )
        if self._checker is not None and self._checker.enabled:
            self._checker.check_routing(
                self._model, decision, admission, observation.slot
            )
        return decision

    def _route_remaining_links(
        self,
        coeff: LinkSessionMat,
        arrays: ArrayState,
        observation: SlotObservation,
        schedule: ScheduleDecision,
        admission: AdmissionDecision,
        committed: List[int],
        allowed_mask: Optional[LinkVec],
    ) -> Tuple[LinkIds, AnyArray, AnyArray]:
        """Second pass: each remaining link's whole capacity to the best session.

        Eligibility, per-link capacity, the per-link minimum and the tie
        sets all come out of ``(L, S)`` / ``(L, M)`` array expressions;
        only links with a tied best session are visited in Python, in
        frozen link-index order, which fixes the sequence of tie-break
        RNG draws.  ``committed`` holds the link positions the
        constraint-(18) pass already used.

        Returns:
            ``(link_pos, session_col, pkts)`` of the routed links, in
            link-index order.
        """
        params = self._model.params
        static = self._static

        # Per-link Eq.-(25) capacity, as one (L,) expression.
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
            member: LinkBandMat = observation.link_band_member(self._model)
            best_bps: LinkVec = np.max(
                np.where(member, caps_bps[None, :], -np.inf),
                axis=1,
                initial=-np.inf,
            )
            best_bps[~member.any(axis=1)] = 0.0
            capacity: LinkVec = (
                best_bps * params.slot_seconds / params.sessions.packet_size_bits
            )
        else:
            capacity = schedule.service_vector(len(arrays.links))

        active: LinkVec = capacity > 0.0
        active[committed] = False
        if allowed_mask is not None:
            active &= allowed_mask

        # (16): sources receive nothing; eligible coefficients are
        # strictly negative; (17) via the static mask.
        mask: LinkSessionMat = (
            static.eligible
            & (coeff < 0.0)
            & (admission.source_rows[None, :] != arrays.link_rx[:, None])
            & active[:, None]
        )
        routed: LinkIds = np.flatnonzero(mask.any(axis=1))
        best_value: LinkVec = np.min(np.where(mask, coeff, np.inf), axis=1)
        ties: LinkSessionMat = mask & (coeff == best_value[:, None])
        routed_ties = ties[routed]
        cols = routed_ties.argmax(axis=1)
        for k in np.flatnonzero(routed_ties.sum(axis=1) > 1):
            cols[k] = self._rng.choice(np.flatnonzero(routed_ties[k]))
        return routed, cols, capacity[routed]
