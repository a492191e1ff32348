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
``O(log n)`` probes; the over-cap drops then cost one solve each.

A pair of links ``(i, j)`` with ``Gamma^2 F_ij F_ji >= 1`` already
proves a set infeasible: its 2x2 principal submatrix has spectral radius
``sqrt(Gamma^2 F_ij F_ji) >= 1``, so by the same monotonicity every
priority suffix holding both links is infeasible.  With ``k*`` one past
the largest ``min(rank_i, rank_j)`` over such pairs, the search skips the
suffixes ``order[k:]``, ``k < k*``, without solving them: it probes
``order[k*:]`` first (the full set when no pair conflicts) and bisects
over ``(k*, n]`` only when that probe fails.  Each probe it solves reads
the same bytes as before, and the bisection already rests on verdicts
that are monotone along the order, so the answer is the same.  On the
``loaded-u1k`` benchmark workload (U=1000, seed 2014, 60 slots) 211 of
the 294 calls have an infeasible full set and 207 of those hold a
conflicting pair; the episode's solves fell from 1,866 to 569, the
largest probe from 354 links to 79, and the summed cubed probe sizes
from 2.0e9 to 1.8e7 (``mobile-u1k``, 100 slots: 338 of 343, and 2,951
to 1,293 solves).

Every probe builds the system of the one-solve-per-drop scan
(``eye[:m, :m] - coupling[np.ix_(sel, sel)]``, ``sel`` in input order;
the scan is the oracle in ``tests/test_phy.py``) byte for byte, by two
``take`` gathers and an in-place subtraction, so kept set, powers
and drop order are bit-identical to it.  The traced ``s1.power.solves`` /
``s1.power.flops`` counters of ``benchmarks/suite/spans.py`` are derived
from the set sizes as if every drop cost a solve (``n, n-1, ...,
kept``); they count the work of that scan, not of this search.

Every S1 selector (GREEDY, SEQUENTIAL_FIX, SEQUENTIAL_FIX_SINR and
MAX_WEIGHT_MATCHING) calls :func:`minimal_power_assignment_vec` once per
band on link-indexed arrays.  :func:`minimal_power_assignment` is a
dict-input adapter over it for callers outside the slot loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.axes import LinkToNode, LinkVec
from repro.phy.propagation import PairGains
from repro.types import Link, NodeId
from repro.units import Linear, Watts


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


def _subset_system(
    coupling: np.ndarray, eye: np.ndarray, sel: np.ndarray
) -> np.ndarray:
    """``eye[:m, :m] - coupling[np.ix_(sel, sel)]``, byte for byte.

    Two ``take`` gathers, then the same elementwise subtraction in
    place, without the open-mesh fancy index.
    """
    system = coupling.take(sel, 0).take(sel, 1)
    np.subtract(eye[: sel.size, : sel.size], system, out=system)
    return system


def _solve_subset(
    coupling: np.ndarray, noise: LinkVec, eye: np.ndarray, sel: np.ndarray
) -> Optional[LinkVec]:
    """Minimal powers of the subset ``sel`` (input order), or None when
    its target SINRs are jointly unachievable."""
    system = _subset_system(coupling, eye, sel)
    try:
        powers = np.linalg.solve(system, noise[sel])
    except np.linalg.LinAlgError:
        return None
    if np.any(powers <= 0) or not np.all(np.isfinite(powers)):
        return None  # spectral radius >= 1
    return powers


#: A pair of links conflicts when ``Gamma^2 F_ij F_ji >= 1 + PAIR_MARGIN``.
#: Their 2x2 principal submatrix of ``Gamma * F`` then has spectral
#: radius ``sqrt(Gamma^2 F_ij F_ji) > 1`` with room to spare for the one
#: rounding of the product, so no set holding both links has a positive
#: solution.  The margin keeps a product of exactly 1 (a singular pair,
#: whose solve verdict rounding decides) out of the certificate.
PAIR_MARGIN = 1e-6


def _conflict_bound(coupling: np.ndarray, order: np.ndarray) -> int:
    """``k*``: the priority suffixes ``order[k:]`` with ``k < k*`` are
    certified infeasible by a conflicting pair; 0 when no pair conflicts.

    ``k* = 1 + max min(rank_i, rank_j)`` over the pairs ``(i, j)`` with
    ``coupling[i, j] * coupling[j, i] >= 1 + PAIR_MARGIN``.  A product
    of two factors below 1 rounds to at most 1, so only the entries
    ``>= 1`` are paired up: an ``O(n^2)`` comparison, then products over
    a few hundred entries instead of all ``n^2``.
    """
    n = order.size
    row, col = np.divmod(np.flatnonzero(coupling >= 1.0), n)
    hit = coupling[row, col] * coupling[col, row] >= 1.0 + PAIR_MARGIN
    if not hit.any():
        return 0
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    return int(np.minimum(rank[row[hit]], rank[col[hit]]).max()) + 1


def minimal_power_assignment_vec(
    link_tx: LinkToNode,
    link_rx: LinkToNode,
    gains: PairGains,
    noise_power_w: Watts,
    sinr_threshold: Linear,
    caps: LinkVec,
    priorities: LinkVec,
) -> Tuple[np.ndarray, LinkVec, List[int]]:
    """Minimal feasible powers for one co-band set, dropping links as needed.

    Phase 1 bisects the joint-infeasibility prefix of the priority
    order, past the suffixes a conflicting pair already rules out
    (:func:`_conflict_bound`); phase 2 drops over-cap links one at a
    time (worst offender = first index of the lexicographic maximum of
    ``(power / cap, -priority)``).  See the module docstring for why
    this reproduces the one-solve-per-drop scan bit for bit.

    Args:
        link_tx / link_rx: ``(n,)`` endpoint indices of the co-band set.
        gains: the pair-gain view; both
            :class:`~repro.phy.propagation.DensePairGains` and
            :class:`~repro.phy.propagation.ComputedPairGains` return the
            identical float64 ``submatrix``, so both yield bit-identical
            solves.
        caps: ``(n,)`` per-link transmit power caps (W).
        priorities: ``(n,)`` finite keep-priorities (higher survives
            longer).

    Returns:
        ``(kept, powers, dropped)``: positions into the input arrays of
        surviving links (input order), their minimal powers, and the
        dropped positions in drop order.
    """
    n = int(link_tx.shape[0])
    block = gains.submatrix(link_tx, link_rx)  # [k, l] = g(tx_k, rx_l)
    direct = block.diagonal().copy()
    coupling = block.T.copy()
    np.fill_diagonal(coupling, 0.0)
    # Row-local ratios ``Gamma * cross / direct``, in place: a subset's
    # system is a pure fancy-index of these full-set values, the same
    # float64 chain either way.
    np.multiply(coupling, sinr_threshold, out=coupling)
    np.divide(coupling, direct[:, None], out=coupling)
    noise = sinr_threshold * noise_power_w / direct
    eye = np.eye(n)

    order = np.argsort(priorities, kind="stable")
    # The first probe keeps the shortest suffix no conflicting pair rules
    # out: the full set when no pair conflicts.
    hi = _conflict_bound(coupling, order)
    powers = _solve_subset(coupling, noise, eye, np.sort(order[hi:]))
    if powers is None:
        lo, hi = hi, n  # dropping lo links is infeasible; hi = n empties the set
        while hi - lo > 1:
            mid = (lo + hi) // 2
            trial = _solve_subset(coupling, noise, eye, np.sort(order[mid:]))
            if trial is None:
                lo = mid
            else:
                hi, powers = mid, trial
    dropped: List[int] = order[:hi].tolist()
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
    gains: PairGains,
    noise_power_w: Watts,
    sinr_threshold: Linear,
    max_power_w: Dict[NodeId, Watts],
    priority: Mapping[Link, float] | None = None,
) -> PowerControlResult:
    """Dict-input adapter over :func:`minimal_power_assignment_vec`.

    Args:
        links: co-band links to power-control.
        gains: the pair-gain view.
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
