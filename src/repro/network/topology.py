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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config.parameters import ScenarioParameters
from repro.exceptions import TopologyError
from repro.network.geometry import UniformGridIndex
from repro.network.node import Node
from repro.phy.propagation import (
    MIN_DISTANCE_M,
    ComputedPairGains,
    DensePairGains,
    PairGains,
    gain_matrix,
)
from repro.types import Link, NodeId, NodeKind

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

    Attributes:
        nodes: all nodes ordered by id.
        candidate_links: pruned directed links usable by the scheduler.
        out_neighbors: candidate receivers per transmitter.
        in_neighbors: candidate transmitters per receiver.
        link_tx / link_rx: ``(L,)`` endpoint indices over the frozen
            link index (``candidate_links`` positions).
        link_gains: ``(L,)`` propagation gain per candidate link —
            bitwise equal to ``pair_gains.pairs(link_tx, link_rx)``.
        positions: ``(N, 2)`` node coordinates (m).
        pair_gains: pair-gain view for arbitrary ``g(tx, rx)`` reads —
            the cached gain matrix up to :data:`DENSE_MATERIALIZE_MAX`
            nodes, position-computed above it (module docstring).
        grid: the uniform-grid spatial index the builder used.
    """

    nodes: Tuple[Node, ...]
    candidate_links: Tuple[Link, ...]
    out_neighbors: Dict[NodeId, Tuple[NodeId, ...]] = field(repr=False)
    in_neighbors: Dict[NodeId, Tuple[NodeId, ...]] = field(repr=False)
    link_tx: np.ndarray = field(repr=False)
    link_rx: np.ndarray = field(repr=False)
    link_gains: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)
    pair_gains: PairGains = field(repr=False)
    grid: UniformGridIndex = field(repr=False)

    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return len(self.nodes)

    def node(self, node_id: NodeId) -> Node:
        """Node by id, with range checking."""
        if not 0 <= node_id < len(self.nodes):
            raise TopologyError(f"unknown node id {node_id}")
        return self.nodes[node_id]

    def link_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(link_tx, link_rx)`` over the frozen link index."""
        return self.link_tx, self.link_rx

    def link_gain_array(self) -> np.ndarray:
        """``(L,)`` per-link gains over the frozen link index."""
        return self.link_gains

    def has_link(self, tx: NodeId, rx: NodeId) -> bool:
        """True if ``(tx, rx)`` is a candidate link."""
        return rx in self.out_neighbors.get(tx, ())


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


def _positions_array(nodes: Sequence[Node]) -> np.ndarray:
    return np.array([[n.position.x, n.position.y] for n in nodes])


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


def build_topology(params: ScenarioParameters, nodes: Sequence[Node]) -> Topology:
    """Construct the topology for a scenario (sub-quadratic grid builder).

    Per occupied bucket, candidate receivers come from the 3x3 bucket
    block (the cell edge is the *largest* feasible radius over node
    kinds, so the block always covers every feasible receiver), and the
    exact feasibility comparison runs on gains computed with the same
    elementwise chain as the all-pairs matrix.  Within each transmitter,
    candidates are enumerated in ascending receiver order and stably
    argsorted by distance — the all-pairs oracle's ``list.sort`` order —
    then capped by ``neighbor_limit`` for users.

    Args:
        params: validated scenario parameters.
        nodes: nodes from :func:`repro.network.node.build_nodes`.

    Returns:
        The pruned :class:`Topology`.

    Raises:
        TopologyError: if any node ends up with no candidate links at
            all (an isolated node can never be served).
    """
    num_nodes = len(nodes)
    positions = _positions_array(nodes)
    noise = params.noise_density_w_per_hz * params.spectrum.cellular_bandwidth_hz
    threshold = params.sinr_threshold * noise
    p_max = np.fromiter(
        (params.node_params(n).max_tx_power_w for n in range(num_nodes)),
        dtype=float,
        count=num_nodes,
    )
    is_user = np.fromiter(
        (params.node_kind(n) is NodeKind.MOBILE_USER for n in range(num_nodes)),
        dtype=bool,
        count=num_nodes,
    )
    radius = max(
        max_feasible_range_m(params, params.user_node.max_tx_power_w),
        max_feasible_range_m(params, params.bs_node.max_tx_power_w),
    )
    grid = UniformGridIndex(positions, cell_size_m=max(radius, MIN_DISTANCE_M))

    limit = params.neighbor_limit
    rx_by_tx: List[Optional[np.ndarray]] = [None] * num_nodes
    gain_by_tx: List[Optional[np.ndarray]] = [None] * num_nodes
    empty_idx = np.zeros(0, dtype=np.intp)
    empty_val = np.zeros(0)
    for row, col, members in grid.nonempty_cells():
        candidates = grid.block_members(row, col, reach=1)
        # Same elementwise float64 chain as an all-pairs block:
        # subtract, square, sum the two axes, sqrt, then the clamped
        # path-loss law — every value is bitwise equal to the
        # corresponding gain-matrix entry.
        diffs = positions[members][:, None, :] - positions[candidates][None, :, :]
        dist = np.sqrt((diffs**2).sum(axis=2))
        gains_block = gain_matrix(
            dist, params.propagation_constant, params.path_loss_exponent
        )
        feasible = (gains_block * p_max[members][:, None] >= threshold) & (
            candidates[None, :] != members[:, None]
        )
        for i, tx in enumerate(members.tolist()):
            mask = feasible[i]
            rx_sel = candidates[mask]
            if rx_sel.size == 0:
                rx_by_tx[tx] = empty_idx
                gain_by_tx[tx] = empty_val
                continue
            # Candidates are ascending in rx; the stable argsort by
            # distance reproduces the all-pairs oracle's stable
            # ``list.sort(key=distance)`` permutation exactly.
            order = np.argsort(dist[i][mask], kind="stable")
            rx_sel = rx_sel[order]
            gain_sel = gains_block[i][mask][order]
            if limit is not None and is_user[tx]:
                rx_sel = rx_sel[:limit]
                gain_sel = gain_sel[:limit]
            rx_by_tx[tx] = rx_sel
            gain_by_tx[tx] = gain_sel

    out_counts = np.fromiter(
        (0 if r is None else r.shape[0] for r in rx_by_tx),
        dtype=np.intp,
        count=num_nodes,
    )
    link_tx = np.repeat(np.arange(num_nodes, dtype=np.intp), out_counts)
    link_rx = (
        np.concatenate([r for r in rx_by_tx if r is not None and r.size])
        if link_tx.size
        else empty_idx
    )
    link_gains = (
        np.concatenate([g for g in gain_by_tx if g is not None and g.size])
        if link_tx.size
        else empty_val
    )

    in_counts = np.bincount(link_rx, minlength=num_nodes)
    isolated_mask = (out_counts == 0) & (in_counts == 0)
    if isolated_mask.any():
        _raise_isolated(np.flatnonzero(isolated_mask).tolist())

    # Candidate-link tuples in transmitter-major order (the frozen link
    # index); in-neighbor lists grouped by receiver with the stable
    # sort preserving the same ascending-transmitter order the
    # all-pairs oracle's append loop produces.
    tx_list = link_tx.tolist()
    rx_list = link_rx.tolist()
    links = list(zip(tx_list, rx_list))
    out_neighbors = {
        n: (
            tuple(rx_by_tx[n].tolist())
            if rx_by_tx[n] is not None
            else ()
        )
        for n in range(num_nodes)
    }
    by_rx = np.argsort(link_rx, kind="stable")
    in_tx_sorted = link_tx[by_rx].tolist()
    in_starts = np.zeros(num_nodes + 1, dtype=np.intp)
    np.cumsum(in_counts, out=in_starts[1:])
    in_neighbors = {
        n: tuple(in_tx_sorted[in_starts[n] : in_starts[n + 1]])
        for n in range(num_nodes)
    }

    return Topology(
        nodes=tuple(nodes),
        candidate_links=tuple(links),
        out_neighbors=out_neighbors,
        in_neighbors=in_neighbors,
        positions=positions,
        link_tx=link_tx,
        link_rx=link_rx,
        link_gains=link_gains,
        pair_gains=_pair_gains(params, positions),
        grid=grid,
    )

