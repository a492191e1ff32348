"""Topology: propagation gains, candidate links, and the spatial index.

The per-slot optimization works over a pruned set of *candidate*
directed links rather than all ``N(N-1)`` pairs: a link is a candidate
when its SINR at maximum transmit power and zero interference clears the
decoding threshold, and (optionally) when the receiver is among the
transmitter's ``neighbor_limit`` nearest feasible neighbours.  Pruning
never removes a link the physical model could actually use, because a
link that fails the zero-interference check can never be scheduled.

The grid builder buckets nodes into a
:class:`~repro.network.geometry.UniformGridIndex` whose cell edge is
the propagation-feasible radius, so each transmitter only examines the
3x3 block of buckets around it — O(N * density * r^2) instead of
O(N^2).  The radius is conservative (derived from inverting the
path-loss law, then inflated by a relative slack) and every surviving
pair re-runs the *exact* feasibility comparison on gains computed with
the same elementwise float64 chain as an all-pairs gain matrix, so the
link set, link order and per-link gains are bit-identical to the
all-pairs construction (kept as the test oracle in
``tests/topology_reference.py``).

A link *is* its position in the frozen link index; there is no
``(tx, rx)`` key space beside it.  The index is stored as endpoint
arrays — ``link_tx``/``link_rx``, the two rows of one ``(2, L)``
buffer, transmitter-major — with the transmitter offsets ``out_start``
(node ``i``'s outgoing links are the contiguous positions
``out_start[i]:out_start[i + 1]``, which S3 gathers for the nodes that
hold data) and the by-receiver permutation ``in_links``/``in_start``
for the readers that walk a node's incoming links (the router's
constraint-18 pass).

Arbitrary ``g(tx, rx)`` reads go through :attr:`Topology.pair_gains`.
Up to :data:`DENSE_MATERIALIZE_MAX` nodes that view is backed by a
cached ``(N, N)`` gain matrix: power control reads many small blocks,
and fancy-indexing a matrix is cheaper than recomputing ``pow`` for
each block.  Above the cutoff the view computes gains from node
positions.  Both views return identical floats, and the node count
alone picks between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.axes import AnyArray, LinkIds, LinkToNode, LinkVec
from repro.config.parameters import ScenarioParameters
from repro.exceptions import TopologyError
from repro.network.geometry import UniformGridIndex
from repro.phy.propagation import (
    MIN_DISTANCE_M,
    ComputedPairGains,
    DensePairGains,
    PairGains,
    gain_matrix,
)

#: Node count up to which :attr:`Topology.pair_gains` caches the
#: ``(N, N)`` gain matrix; above it the matrix would dominate memory
#: (8 GB at N=32k) while every hot path reads per-link gains.
DENSE_MATERIALIZE_MAX: int = 2048

#: Relative inflation of the inverted propagation radius.  The exact
#: feasibility comparison decides candidacy either way; the slack only
#: guarantees the bucket prefilter never *excludes* a pair that the
#: comparison would accept (the ``pow`` round-off is ~1e-16 relative,
#: seven orders below this margin).
_RADIUS_SLACK: float = 1e-9


@dataclass(frozen=True)
class Topology:
    """Immutable topology snapshot for one scenario.

    A link is its position ``p`` in the frozen link index: links are
    ordered by transmitter, and within a transmitter by distance, ties
    by receiver id.  Every per-link array is laid out over that index.

    Nodes are rows: node ``i`` is row ``i`` of :attr:`positions`, with
    the base stations on rows ``0..B-1``.

    Attributes:
        candidate_links: ``(L, 2)`` ``(tx, rx)`` rows — the transposed
            view of one ``(2, L)`` buffer whose rows *are*
            ``link_tx`` and ``link_rx`` (one store, no copy).
        link_tx / link_rx: ``(L,)`` endpoint indices per link.
        link_gains: ``(L,)`` propagation gain per candidate link —
            bitwise equal to ``pair_gains.pairs(link_tx, link_rx)``.
        out_start: ``(N + 1,)`` transmitter offsets: node ``i``'s
            outgoing links are the positions
            ``out_start[i]:out_start[i + 1]``, in link-index order.
        in_links: ``(L,)`` link positions grouped by receiver, each
            group in ascending position (so ascending transmitter).
        in_start: ``(N + 1,)`` offsets: node ``j``'s incoming links
            are ``in_links[in_start[j]:in_start[j + 1]]``.
        positions: ``(N, 2)`` node coordinates (m) from
            :func:`~repro.network.geometry.node_positions`.
        pair_gains: pair-gain view for arbitrary ``g(tx, rx)`` reads —
            the cached gain matrix up to :data:`DENSE_MATERIALIZE_MAX`
            nodes, position-computed above it (module docstring).
        grid: the uniform-grid spatial index the builder used.
    """

    candidate_links: AnyArray = field(repr=False)
    link_tx: LinkToNode = field(repr=False)
    link_rx: LinkToNode = field(repr=False)
    link_gains: LinkVec = field(repr=False)
    out_start: AnyArray = field(repr=False)
    in_links: LinkIds = field(repr=False)
    in_start: AnyArray = field(repr=False)
    positions: np.ndarray = field(repr=False)
    pair_gains: PairGains = field(repr=False)
    grid: UniformGridIndex = field(repr=False)

    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return int(self.positions.shape[0])


def max_feasible_range_m(
    params: ScenarioParameters, max_power_w: float
) -> float:
    """Largest distance at which a link can pass candidate pruning.

    Inverts the clamped path-loss law against the zero-interference
    feasibility test on the most permissive band (the fixed cellular
    band): ``C * d^-gamma * P_max >= Gamma * eta * W`` gives
    ``d* = (C * P_max / (Gamma * eta * W))^(1/gamma)``.  Returns 0 when
    even the clamped near-field gain cannot clear the threshold (no
    pair is ever feasible), and inflates the radius by a relative slack
    so the bucket prefilter stays conservative against ``pow``
    round-off — candidacy itself is always decided by the exact
    comparison on the computed gain.
    """
    noise = params.noise_density_w_per_hz * params.spectrum.cellular_bandwidth_hz
    threshold = params.sinr_threshold * noise
    peak_gain = params.propagation_constant * MIN_DISTANCE_M**-params.path_loss_exponent
    if peak_gain * max_power_w < threshold:
        return 0.0
    radius = (
        params.propagation_constant * max_power_w / threshold
    ) ** (1.0 / params.path_loss_exponent)
    return max(radius * (1.0 + _RADIUS_SLACK), MIN_DISTANCE_M)


def _raise_isolated(isolated: List[int]) -> None:
    raise TopologyError(
        f"nodes {isolated} have no feasible links; increase transmit "
        "power, shrink the area, or raise neighbor_limit"
    )


def _pair_gains(params: ScenarioParameters, positions: np.ndarray) -> PairGains:
    """The pair-gain view: a cached gain matrix up to the cutoff.

    ``dx^2 + dy^2`` is formed in place in two ``(N, N)`` buffers — bit
    for bit the sum ``(diffs**2).sum(axis=2)`` forms over an
    ``(N, N, 2)`` difference array — and the gain matrix is built from
    the first after the second is freed, so no distance matrix is kept.
    """
    constant, exponent = params.propagation_constant, params.path_loss_exponent
    if positions.shape[0] > DENSE_MATERIALIZE_MAX:
        return ComputedPairGains(positions, constant, exponent)
    gap_x, gap_y = (c[:, None] - c[None, :] for c in positions.T)  # noqa: R041 - small-N gain cache, gated by DENSE_MATERIALIZE_MAX; power control's block reads would otherwise recompute pow per block
    gap_x *= gap_x
    gap_y *= gap_y
    gap_x += gap_y
    del gap_y
    return DensePairGains(
        gain_matrix(np.sqrt(gap_x, out=gap_x), constant, exponent)
    )


def build_topology(params: ScenarioParameters, positions: np.ndarray) -> Topology:
    """Construct the topology for a scenario (sub-quadratic grid builder).

    Per occupied bucket, candidate receivers come from the 3x3 bucket
    block (the cell edge is the *largest* feasible radius over node
    kinds, so the block always covers every feasible receiver), and the
    exact feasibility comparison runs on gains computed with the same
    elementwise chain as the all-pairs matrix.  One ``lexsort`` orders
    the block's feasible pairs by transmitter, then distance, then
    receiver — each transmitter's receivers by distance, ties by id,
    the all-pairs oracle's stable ``list.sort`` order — and users keep
    the first ``neighbor_limit`` of them.  Every pair is then scattered
    to its transmitter-major position, so no step loops over nodes.

    Args:
        params: validated scenario parameters.
        positions: ``(N, 2)`` node coordinates from
            :func:`~repro.network.geometry.node_positions`.

    Returns:
        The pruned :class:`Topology`.

    Raises:
        TopologyError: if any node ends up with no candidate links at
            all (an isolated node can never be served).
    """
    num_nodes = positions.shape[0]
    noise = params.noise_density_w_per_hz * params.spectrum.cellular_bandwidth_hz
    threshold = params.sinr_threshold * noise
    # Base stations hold the low ids, users the rest.
    is_user = np.arange(num_nodes) >= params.num_base_stations
    p_max = np.where(
        is_user, params.user_node.max_tx_power_w, params.bs_node.max_tx_power_w
    )
    radius = max(
        max_feasible_range_m(params, params.user_node.max_tx_power_w),
        max_feasible_range_m(params, params.bs_node.max_tx_power_w),
    )
    grid = UniformGridIndex(positions, cell_size_m=max(radius, MIN_DISTANCE_M))

    limit = params.neighbor_limit
    # Per occupied bucket: the kept (tx, rx, gain, rank-within-tx).
    blocks: List[Tuple[AnyArray, AnyArray, AnyArray, AnyArray]] = []
    for row, col, members in grid.nonempty_cells():
        candidates = grid.block_members(row, col, reach=1)
        # Same elementwise float64 chain as an all-pairs block:
        # subtract, square, add the two axes, sqrt, then the clamped
        # path-loss law — every value is bitwise equal to the
        # corresponding gain-matrix entry.  ``dx*dx + dy*dy`` is formed
        # in place: a 2-term ``(diffs**2).sum(axis=2)`` is exactly that
        # sum, without numpy's slow reduction over a 2-wide inner axis.
        tx_xy, rx_xy = positions[members], positions[candidates]
        dist = tx_xy[:, 0, None] - rx_xy[None, :, 0]
        dist *= dist
        gap_y = tx_xy[:, 1, None] - rx_xy[None, :, 1]
        gap_y *= gap_y
        dist += gap_y
        np.sqrt(dist, out=dist)
        gains_block = gain_matrix(
            dist, params.propagation_constant, params.path_loss_exponent
        )
        feasible = (gains_block * p_max[members][:, None] >= threshold) & (
            candidates[None, :] != members[:, None]
        )
        i, k = np.nonzero(feasible)
        tx, rx = members[i], candidates[k]
        order = np.lexsort((rx, dist[i, k], tx))
        tx, rx, gain = tx[order], rx[order], gains_block[i, k][order]
        # Rank of each pair within its transmitter's sorted run.
        first = np.ones(tx.size, dtype=bool)
        first[1:] = tx[1:] != tx[:-1]
        rank = np.arange(tx.size) - np.flatnonzero(first)[np.cumsum(first) - 1]
        if limit is not None:
            keep = ~is_user[tx] | (rank < limit)
            tx, rx, gain, rank = tx[keep], rx[keep], gain[keep], rank[keep]
        blocks.append((tx, rx, gain, rank))

    tx, rx, gain, rank = (np.concatenate(parts) for parts in zip(*blocks))
    out_counts = np.bincount(tx, minlength=num_nodes)
    in_counts = np.bincount(rx, minlength=num_nodes)
    isolated_mask = (out_counts == 0) & (in_counts == 0)
    if isolated_mask.any():
        _raise_isolated(np.flatnonzero(isolated_mask).tolist())

    # Transmitter-major link index: a transmitter's run starts after
    # every lower transmitter's links and keeps its sorted order.
    out_start = np.zeros(num_nodes + 1, dtype=np.intp)
    np.cumsum(out_counts, out=out_start[1:])
    pos = out_start[tx] + rank
    ends = np.empty((2, tx.size), dtype=np.intp)
    ends[0, pos] = tx
    ends[1, pos] = rx
    link_gains = np.empty(tx.size)
    link_gains[pos] = gain
    # Incoming links grouped by receiver; the stable sort keeps each
    # group in ascending position, i.e. ascending transmitter.
    in_start = np.zeros(num_nodes + 1, dtype=np.intp)
    np.cumsum(in_counts, out=in_start[1:])

    return Topology(
        candidate_links=ends.T,
        link_tx=ends[0],
        link_rx=ends[1],
        link_gains=link_gains,
        out_start=out_start,
        in_links=np.argsort(ends[1], kind="stable"),
        in_start=in_start,
        positions=positions,
        pair_gains=_pair_gains(params, positions),
        grid=grid,
    )
