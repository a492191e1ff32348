"""The all-pairs topology builder, used only as a test oracle.

The library builds candidate links with the grid builder of
:mod:`repro.network.topology`, which examines only the 3x3 bucket
block around each transmitter.  This module keeps the original
all-pairs construction: it materialises the ``(N, N)`` distance and
gain matrices, tests every ordered pair for zero-interference
feasibility at maximum power, sorts each transmitter's receivers by
distance and caps users at ``neighbor_limit``.  The grid builder must
return the same candidate links in the same order, the same neighbour
lists — each transmitter's run of ``link_tx`` and each receiver's
``in_links`` slice — and bitwise-equal per-link gains;
:func:`assert_link_index_matches` checks the index and
``tests/test_topology_oracle.py`` runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.config.parameters import ScenarioParameters
from repro.network.topology import _raise_isolated
from repro.phy.propagation import gain_matrix
from repro.types import Link, NodeId


@dataclass(frozen=True)
class ReferenceTopology:
    """What the all-pairs builder produces, matrices included."""

    distances: np.ndarray
    gains: np.ndarray
    candidate_links: Tuple[Link, ...]
    out_neighbors: Dict[NodeId, Tuple[NodeId, ...]]
    in_neighbors: Dict[NodeId, Tuple[NodeId, ...]]
    link_tx: np.ndarray
    link_rx: np.ndarray
    link_gains: np.ndarray


def _max_range_feasible(
    params: ScenarioParameters, gains: np.ndarray, tx: NodeId, rx: NodeId
) -> bool:
    """Zero-interference feasibility of link (tx, rx) at max power.

    Uses the smallest possible bandwidth (the cellular band) for the
    noise term, which is the most permissive case: if the link fails
    here it fails on every band in every slot.
    """
    is_bs = tx < params.num_base_stations  # base stations hold the low ids
    p_max = (params.bs_node if is_bs else params.user_node).max_tx_power_w
    noise = params.noise_density_w_per_hz * params.spectrum.cellular_bandwidth_hz
    return gains[tx, rx] * p_max >= params.sinr_threshold * noise


def all_pairs_gains(
    positions: np.ndarray, constant: float, exponent: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``(N, N)`` distances and gains ``g_ij = C d(i, j)^-gamma`` of ``positions``."""
    diffs = positions[:, None, :] - positions[None, :, :]  # noqa: R041 - the reference builder is all-pairs by definition; the library uses the grid builder
    distances = np.sqrt((diffs**2).sum(axis=2))
    return distances, gain_matrix(distances, constant, exponent)


def build_topology_dense(
    params: ScenarioParameters, positions: np.ndarray
) -> ReferenceTopology:
    """The all-pairs reference builder (bit-exact baseline) over the
    ``(N, 2)`` node ``positions``.

    O(N^2) in time and memory; the grid builder must match it exactly.
    """
    num_nodes = positions.shape[0]
    distances, gains = all_pairs_gains(
        positions,
        params.propagation_constant,
        params.path_loss_exponent,
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
        is_user = tx >= params.num_base_stations
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
    return ReferenceTopology(
        distances=distances,
        gains=gains,
        candidate_links=tuple(links),
        out_neighbors={n: tuple(v) for n, v in out_neighbors.items()},
        in_neighbors={n: tuple(v) for n, v in in_neighbors.items()},
        link_tx=link_tx,
        link_rx=link_rx,
        link_gains=gains[link_tx, link_rx],
    )


def assert_link_index_matches(topo, oracle: ReferenceTopology) -> None:
    """``topo``'s link index is the oracle's, read through its arrays.

    The links and their order, each transmitter's contiguous
    ``link_tx`` run against its out-neighbours, each receiver's
    ``in_links`` slice against its in-neighbours, and the one
    ``(2, L)`` buffer behind ``candidate_links``/``link_tx``/``link_rx``.
    """
    assert [tuple(link) for link in topo.candidate_links.tolist()] == list(
        oracle.candidate_links
    )
    assert topo.candidate_links.shape == (len(oracle.candidate_links), 2)
    assert topo.candidate_links.base is topo.link_tx.base is topo.link_rx.base
    assert topo.in_start[0] == 0 and topo.in_start[-1] == topo.link_tx.size
    for node in range(topo.num_nodes):
        run = np.flatnonzero(topo.link_tx == node)
        assert run.size == 0 or run[-1] - run[0] == run.size - 1
        assert tuple(topo.link_rx[run].tolist()) == oracle.out_neighbors[node]
        incoming = topo.in_links[topo.in_start[node] : topo.in_start[node + 1]]
        assert (topo.link_rx[incoming] == node).all()
        assert tuple(topo.link_tx[incoming].tolist()) == oracle.in_neighbors[node]
