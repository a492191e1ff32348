"""S2 — resource allocation (Section IV-C-2).

Minimises ``Psi-hat_2 = sum_s sum_b (Q_b^s - lambda V) k_s 1[b = s_s]``
subject to the single-source constraint (19).  The paper's rule: pick
the base station with the smallest backlog ``Q_b^s`` as the session's
source (ties broken uniformly at random), then admit

    k_s(t) = K_max  if  Q_{s_s}^s(t) - lambda V < 0,   else 0.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.contracts import ContractChecker
from repro.control.decisions import AdmissionDecision
from repro.core.arraystate import ArrayState
from repro.model import NetworkModel
from repro.types import NodeId, SessionId


class ResourceAllocator:
    """The S2 subproblem solver."""

    def __init__(
        self,
        model: NetworkModel,
        rng: np.random.Generator,
        checker: Optional[ContractChecker] = None,
    ) -> None:
        self._model = model
        self._rng = rng
        self._threshold = model.params.admission_lambda * model.params.control_v
        self._checker = checker

    @property
    def admission_threshold(self) -> float:
        """The backlog threshold ``lambda * V``."""
        return self._threshold

    def attach_contracts(self, checker: ContractChecker) -> None:
        """Validate every admission decision against Eq. 19."""
        self._checker = checker

    def allocate(
        self, arrays: ArrayState, slot: Optional[int] = None
    ) -> AdmissionDecision:
        """Solve S2 for one slot.

        Args:
            arrays: the state's ``ArrayState``; each session reads its
                ``Q_b^s(t)`` column over the base-station rows.
            slot: slot index, carried into contract diagnostics.

        Returns:
            Per-session source base stations and admitted packet counts.
        """
        sources: Dict[SessionId, NodeId] = {}
        admitted: Dict[SessionId, int] = {}
        # Base stations hold rows 0..B-1, so a row is its node id.
        bs_q = arrays.q[: self._model.params.num_base_stations]
        source_rows = np.empty(len(arrays.sessions), dtype=np.intp)
        for session in self._model.sessions:  # noqa: R040 - S2 is inherently per-session: each iteration is a scalar token-bucket decision with rng draws, not an axis-wide kernel
            col = arrays.session_col[session.session_id]
            backlogs = bs_q[:, col]
            smallest = backlogs.min()
            tied = np.flatnonzero(backlogs == smallest)
            pick = tied[0] if tied.size == 1 else self._rng.choice(tied)
            source_rows[col] = pick
            sources[session.session_id] = int(pick)
            if smallest - self._threshold < 0:
                admitted[session.session_id] = session.k_max
            else:
                admitted[session.session_id] = 0
        decision = AdmissionDecision(
            sources=sources, admitted=admitted, source_rows=source_rows
        )
        if self._checker is not None and self._checker.enabled:
            self._checker.check_admission(self._model, decision, slot)
        return decision
