"""Shard-aware S1–S4 controller: local passes, global merge points.

The drift-plus-penalty decomposition is per-link (S1 weights), per-node
(curtailment, S4), and per-(link, session) (S3 coefficients), so each
shard can compute its own slice of the decision inputs independently.
What *cannot* be sharded without changing results is coordination:

* **S1 selection + power control** — the greedy selector resolves radio
  and band conflicts network-wide, and the per-band Foschini–Miljanic
  solve couples every co-band link through interference, so both run on
  the merged candidate list.  The merge is order-independent: candidate
  keys ``(weight, tx, rx, band)`` are unique and the selector lexsorts
  them, so concatenating per-shard slices in any order yields the exact
  monolithic decision.
* **Curtailment, S2, the S3 commit loops, and S4** — each consumes RNG
  draws and/or fleet-level prices in a fixed global order; they stay
  global so the draw sequence is bit-identical to the monolithic
  controller on *every* scenario, not just contained-traffic ones.

The shard-local work is therefore the candidate-weight scan (S1) and
the routing-coefficient fill (S3) — the two passes whose cost grows
with the link count — while the merge points are exactly the boundary
exchanges described in ``docs/architecture.md``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.contracts import ContractChecker
from repro.control.controller import DriftPlusPenaltyController
from repro.control.decisions import ScheduleDecision, SlotObservation
from repro.control.router import RouterMode
from repro.core.arraystate import ArrayState, LinkArrayMapping
from repro.core.lyapunov import LyapunovConstants
from repro.model import NetworkModel
from repro.sharding.partition import ShardPlan
from repro.state import NetworkState
from repro.types import EnergySolverKind, SchedulerKind

__all__ = ["ShardedController"]


class ShardedController(DriftPlusPenaltyController):
    """The drift-plus-penalty controller over a :class:`ShardPlan`.

    Only the S1 and S3 phase computations change (shard-local slices,
    merged globally); sequencing, curtailment, S2, S4, RNG consumption,
    and contract checks are inherited unchanged.
    """

    def __init__(
        self,
        plan: ShardPlan,
        model: NetworkModel,
        constants: LyapunovConstants,
        rng: np.random.Generator,
        energy_solver: EnergySolverKind = EnergySolverKind.PRICE_DECOMPOSITION,
        router_mode: RouterMode = RouterMode.POTENTIAL_CAPACITY,
        checker: Optional[ContractChecker] = None,
    ) -> None:
        # Only the GREEDY selector has the order-independent lexsort
        # merge the sharded S1 relies on; the sequential-fix and
        # matching selectors are insertion-order-sensitive.
        super().__init__(
            model,
            constants,
            rng,
            scheduler_kind=SchedulerKind.GREEDY,
            energy_solver=energy_solver,
            router_mode=router_mode,
            checker=checker,
        )
        self._plan = plan

    @property
    def plan(self) -> ShardPlan:
        """The shard plan this controller computes over."""
        return self._plan

    def _schedule_phase(
        self,
        observation: SlotObservation,
        state: NetworkState,
        h_backlogs: LinkArrayMapping,
        arrays: ArrayState,
    ) -> ScheduleDecision:
        """S1: per-shard candidate scans, one global conflict merge."""
        energy_prices = self._energy_prices(observation.slot)
        slices = [
            self.scheduler.candidate_slice(
                observation,
                h_backlogs,
                energy_prices,
                self._allowed_mask,
                within=shard.owned_link_pos,
            )
            for shard in self._plan.shards
        ]
        link_pos = np.concatenate([s[0] for s in slices])
        bands = np.concatenate([s[1] for s in slices])
        weights = np.concatenate([s[2] for s in slices])
        return self.scheduler.schedule_from_candidates(
            link_pos,
            bands,
            weights,
            observation,
            h_backlogs,
            self._model.topology.candidate_links,
        )

    def _routing_phase(
        self,
        observation: SlotObservation,
        schedule: ScheduleDecision,
        admission,
        state: NetworkState,
        h_backlogs: LinkArrayMapping,
        arrays: ArrayState,
    ):
        """S3: per-shard coefficient fill, global selection/commit.

        Each shard writes its owned rows of the ``(L, S)`` coefficient
        matrix ``-Q_i^s + Q_j^s + beta H_ij``; a boundary link's row
        reads the receiver's backlog from the neighbouring shard's node
        rows — the read half of the halo.  Every entry is an elementwise
        function of its own row, so the sliced fill equals the global
        expression bit for bit; the router's tie-break/RNG machinery
        then runs globally over the completed matrix.
        """
        beta_h = self._constants.beta * h_backlogs.values_array
        q = arrays.q
        coeff = np.empty((len(arrays.links), len(arrays.sessions)))  # noqa: R041 - same (L, S) matrix the monolithic router broadcasts (router.py route); L is the pruned candidate-link set, sub-quadratic under the sparse topology
        for shard in self._plan.shards:
            pos = shard.owned_link_pos
            coeff[pos] = (-q[arrays.link_tx[pos]] + q[arrays.link_rx[pos]]) + (
                beta_h[pos][:, None]
            )
        return self.router.route(
            observation,
            schedule,
            admission,
            h_backlogs,
            arrays,
            allowed_mask=self._allowed_mask,
            coeff=coeff,
        )
