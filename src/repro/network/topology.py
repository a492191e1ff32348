"""Topology: propagation gains, candidate links, and the spatial index.

The per-slot optimization works over a pruned set of *candidate*
directed links rather than all ``N(N-1)`` pairs: a link is a candidate
when its SINR at maximum transmit power and zero interference clears the
decoding threshold, and (optionally) when the receiver is among the
transmitter's ``neighbor_limit`` nearest feasible neighbours.  Pruning
never removes a link the physical model could actually use, because a
link that fails the zero-interference check can never be scheduled.

Two builders produce the same candidate set:

* the **dense** builder materialises the ``(N, N)`` distance/gain
  matrices and scans all pairs — the bit-exact reference;
* the **grid** builder buckets nodes into a
  :class:`~repro.network.geometry.UniformGridIndex` whose cell edge is
  the propagation-feasible radius, so each transmitter only examines
  the 3x3 block of buckets around it — O(N * density * r^2) instead of
  O(N^2).  The radius is conservative (derived from inverting the
  path-loss law, then inflated by a relative slack) and every surviving
  pair re-runs the *exact* dense feasibility comparison on gains
  computed with the identical elementwise float64 chain, so the link
  set, link order, and per-link gains are bit-identical to the dense
  reference.

``ScenarioParameters.topology_mode`` selects the builder: ``"dense"``,
``"sparse"`` (grid builder, no O(N^2) matrices), or ``"auto"`` (the
default: grid builder everywhere, with the dense matrices additionally
materialised below :data:`DENSE_MATERIALIZE_MAX` nodes for small-N
consumers such as the SINR contract checker and mobility tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
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

#: The "auto" topology mode materialises the dense distance/gain
#: matrices only below this node count; above it they would dominate
#: memory (8 GB at N=32k) while every hot path reads per-link gains.
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
        distances: ``(N, N)`` Euclidean distance matrix (m), or None
            when the topology skips the dense matrices (sparse mode, or
            auto mode above the materialisation cutoff).
        gains: ``(N, N)`` power propagation gains ``g_ij``, or None
            (same condition as ``distances``).
        candidate_links: pruned directed links usable by the scheduler.
        out_neighbors: candidate receivers per transmitter.
        in_neighbors: candidate transmitters per receiver.
        link_tx / link_rx: ``(L,)`` endpoint indices over the frozen
            link index (``candidate_links`` positions).
        link_gains: ``(L,)`` propagation gain per candidate link —
            bitwise equal to ``gains[link_tx, link_rx]`` when the dense
            matrix exists.
        positions: ``(N, 2)`` node coordinates (m).
        pair_gains: uniform pair-gain view (dense-matrix-backed or
            position-computed) for arbitrary ``g(tx, rx)`` queries.
        grid: the uniform-grid spatial index the sparse builder used
            (None for the dense reference builder).
        mode: the builder that produced this topology.
    """

    nodes: Tuple[Node, ...]
    distances: Optional[np.ndarray]
    gains: Optional[np.ndarray]
    candidate_links: Tuple[Link, ...]
    out_neighbors: Dict[NodeId, Tuple[NodeId, ...]] = field(repr=False)
    in_neighbors: Dict[NodeId, Tuple[NodeId, ...]] = field(repr=False)
    link_tx: np.ndarray = field(repr=False)
    link_rx: np.ndarray = field(repr=False)
    link_gains: np.ndarray = field(repr=False)
    positions: Optional[np.ndarray] = field(default=None, repr=False)
    pair_gains: Optional[PairGains] = field(default=None, repr=False)
    grid: Optional[UniformGridIndex] = field(default=None, repr=False)
    mode: str = "dense"

    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return len(self.nodes)

    def node(self, node_id: NodeId) -> Node:
        """Node by id, with range checking."""
        if not 0 <= node_id < len(self.nodes):
            raise TopologyError(f"unknown node id {node_id}")
        return self.nodes[node_id]

    def gain(self, tx: NodeId, rx: NodeId) -> float:
        """Propagation gain ``g_ij`` between two nodes."""
        if self.gains is not None:
            return float(self.gains[tx, rx])
        return self.gains_lookup()[tx, rx]

    def gains_lookup(self) -> PairGains:
        """Scalar-indexable gains: the matrix view or the computed view.

        Consumers that only read ``g[tx, rx]`` pairs (power control,
        SINR checks, the relaxed bound) use this so they work
        identically whether the dense matrix was materialised or not.
        """
        view = self.__dict__.get("_pair_view")
        if view is None:
            view = (
                self.pair_gains
                if self.pair_gains is not None
                else DensePairGains(self.gains)
            )
            object.__setattr__(self, "_pair_view", view)
        return view

    def link_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(link_tx, link_rx)`` over the frozen link index."""
        return self.link_tx, self.link_rx

    def link_gain_array(self) -> np.ndarray:
        """``(L,)`` per-link gains over the frozen link index."""
        return self.link_gains

    def has_link(self, tx: NodeId, rx: NodeId) -> bool:
        """True if ``(tx, rx)`` is a candidate link."""
        return rx in self.out_neighbors.get(tx, ())

    def as_graph(self) -> nx.DiGraph:
        """The candidate-link set as a networkx digraph."""
        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.num_nodes))
        graph.add_edges_from(self.candidate_links)
        return graph

    def is_connected_to_some_bs(self, node_id: NodeId, bs_ids: Sequence[NodeId]) -> bool:
        """True if ``node_id`` is reachable from any base station."""
        graph = self.as_graph()
        return any(nx.has_path(graph, bs, node_id) for bs in bs_ids)


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


def _max_range_feasible(
    params: ScenarioParameters, gains: np.ndarray, tx: NodeId, rx: NodeId
) -> bool:
    """Zero-interference feasibility of link (tx, rx) at max power.

    Uses the smallest possible bandwidth (the cellular band) for the
    noise term, which is the most permissive case: if the link fails
    here it fails on every band in every slot.
    """
    p_max = params.node_params(tx).max_tx_power_w
    noise = params.noise_density_w_per_hz * params.spectrum.cellular_bandwidth_hz
    return gains[tx, rx] * p_max >= params.sinr_threshold * noise


def _raise_isolated(isolated: List[int]) -> None:
    raise TopologyError(
        f"nodes {isolated} have no feasible links; increase transmit "
        "power, shrink the area, or raise neighbor_limit"
    )


def _positions_array(nodes: Sequence[Node]) -> np.ndarray:
    return np.array([[n.position.x, n.position.y] for n in nodes])


def _build_topology_dense(
    params: ScenarioParameters, nodes: Sequence[Node]
) -> Topology:
    """The all-pairs reference builder (bit-exact baseline).

    O(N^2) in time and memory; kept verbatim as the dense reference the
    equivalence suite and the scale benchmark compare the grid builder
    against.
    """
    num_nodes = len(nodes)
    positions = _positions_array(nodes)
    diffs = positions[:, None, :] - positions[None, :, :]  # noqa: R041 - the dense reference builder is all-pairs by definition; production scenarios use the grid builder (topology_mode auto/sparse)
    distances = np.sqrt((diffs**2).sum(axis=2))

    gains = gain_matrix(
        distances, params.propagation_constant, params.path_loss_exponent
    )

    links: List[Link] = []
    out_neighbors: Dict[NodeId, List[NodeId]] = {n: [] for n in range(num_nodes)}
    in_neighbors: Dict[NodeId, List[NodeId]] = {n: [] for n in range(num_nodes)}

    for tx in range(num_nodes):
        feasible = [
            rx
            for rx in range(num_nodes)
            if rx != tx and _max_range_feasible(params, gains, tx, rx)
        ]
        feasible.sort(key=lambda rx: distances[tx, rx])
        # Base stations keep links to every feasible receiver so the
        # one-hop architectures can always serve their users directly;
        # the neighbour cap only prunes user-originated links.
        is_user = params.node_kind(tx) is NodeKind.MOBILE_USER
        if params.neighbor_limit is not None and is_user:
            feasible = feasible[: params.neighbor_limit]
        for rx in feasible:
            links.append((tx, rx))
            out_neighbors[tx].append(rx)
            in_neighbors[rx].append(tx)

    isolated = [
        n
        for n in range(num_nodes)
        if not out_neighbors[n] and not in_neighbors[n]
    ]
    if isolated:
        _raise_isolated(isolated)

    count = len(links)
    link_tx = np.fromiter((tx for tx, _ in links), dtype=np.intp, count=count)
    link_rx = np.fromiter((rx for _, rx in links), dtype=np.intp, count=count)
    return Topology(
        nodes=tuple(nodes),
        distances=distances,
        gains=gains,
        candidate_links=tuple(links),
        out_neighbors={n: tuple(v) for n, v in out_neighbors.items()},
        in_neighbors={n: tuple(v) for n, v in in_neighbors.items()},
        positions=positions,
        link_tx=link_tx,
        link_rx=link_rx,
        link_gains=gains[link_tx, link_rx],
        pair_gains=DensePairGains(gains),
        grid=None,
        mode="dense",
    )


def _build_topology_grid(
    params: ScenarioParameters, nodes: Sequence[Node], materialize_dense: bool
) -> Topology:
    """Sub-quadratic grid builder; bit-identical output to the dense one.

    Per occupied bucket, candidate receivers come from the 3x3 bucket
    block (the cell edge is the *largest* feasible radius over node
    kinds, so the block always covers every feasible receiver), and the
    exact dense feasibility comparison runs on gains computed with the
    identical elementwise chain.  Within each transmitter, candidates
    are enumerated in ascending receiver order and stably argsorted by
    distance — replicating the dense builder's ``list.sort`` order —
    then capped by ``neighbor_limit`` for users.
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
        # Same elementwise float64 chain as the dense builder's
        # all-pairs block: subtract, square, sum the two axes, sqrt,
        # then the clamped path-loss law — every value is bitwise equal
        # to the corresponding dense matrix entry.
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
            # distance reproduces the dense builder's stable
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
    # sort preserving the same ascending-transmitter order the dense
    # builder's append loop produces.
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

    distances = None
    gains = None
    pair_view: PairGains = ComputedPairGains(
        positions, params.propagation_constant, params.path_loss_exponent
    )
    if materialize_dense:
        # dx^2 + dy^2 in place: the sum ``(diffs**2).sum(axis=2)`` forms
        # over an (N, N, 2) difference array, bit for bit, with two
        # (N, N) buffers instead of two (N, N, 2) temporaries; the second
        # is freed before the gain matrix is built.
        gap_x, gap_y = (c[:, None] - c[None, :] for c in positions.T)  # noqa: R041 - small-N back-compat materialisation, gated by DENSE_MATERIALIZE_MAX
        gap_x *= gap_x
        gap_y *= gap_y
        gap_x += gap_y
        del gap_y
        distances = np.sqrt(gap_x, out=gap_x)
        gains = gain_matrix(
            distances, params.propagation_constant, params.path_loss_exponent
        )
        pair_view = DensePairGains(gains)

    return Topology(
        nodes=tuple(nodes),
        distances=distances,
        gains=gains,
        candidate_links=tuple(links),
        out_neighbors=out_neighbors,
        in_neighbors=in_neighbors,
        positions=positions,
        link_tx=link_tx,
        link_rx=link_rx,
        link_gains=link_gains,
        pair_gains=pair_view,
        grid=grid,
        mode="sparse" if not materialize_dense else "auto",
    )


def build_topology(params: ScenarioParameters, nodes: Sequence[Node]) -> Topology:
    """Construct the topology for a scenario.

    Dispatches on ``params.topology_mode`` (module docstring); every
    mode produces the identical candidate-link set.

    Args:
        params: validated scenario parameters.
        nodes: nodes from :func:`repro.network.node.build_nodes`.

    Returns:
        The pruned :class:`Topology`.

    Raises:
        TopologyError: if any node ends up with no candidate links at
            all (an isolated node can never be served).
    """
    mode = params.topology_mode
    if mode == "dense":
        return _build_topology_dense(params, nodes)
    if mode == "sparse":
        return _build_topology_grid(params, nodes, materialize_dense=False)
    return _build_topology_grid(
        params, nodes, materialize_dense=len(nodes) <= DENSE_MATERIALIZE_MAX
    )
