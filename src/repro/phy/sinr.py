"""SINR computation under the physical interference model.

``SINR_ij^m(t) = g_ij P_ij^m / (eta_j W_m(t) + sum_k g_kj P_kv^m)``
where the sum runs over all *other* transmitters active on band ``m``
in the same slot (Section II-B of the paper).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from repro.phy.propagation import PairGains
from repro.types import NodeId, Transmission
from repro.units import Linear, Watts

#: What the scalar helpers index with ``gains[tx, rx]``: a gain block
#: (e.g. :func:`co_band_gain_block`) or a pair-gain view.
GainsLike = Union[np.ndarray, PairGains]


def total_interference(
    gains: GainsLike,
    receiver: NodeId,
    interferers: Iterable[Tuple[NodeId, Watts]],
) -> Watts:
    """Aggregate interference power at ``receiver``.

    Args:
        gains: ``(N, N)`` gain matrix or pair-gain view.
        receiver: the receiving node.
        interferers: ``(tx_node, tx_power_w)`` pairs of concurrent
            transmissions on the same band, excluding the intended one.

    Returns:
        Total received interference power (W).
    """
    return float(
        sum(gains[tx, receiver] * power for tx, power in interferers)
    )


def sinr(
    gains: GainsLike,
    tx: NodeId,
    rx: NodeId,
    tx_power_w: Watts,
    noise_power_w: Watts,
    interference_w: Watts = 0.0,
) -> Linear:
    """SINR of one link given noise and aggregate interference.

    Args:
        gains: ``(N, N)`` gain matrix or pair-gain view.
        tx: transmitter id.
        rx: receiver id.
        tx_power_w: transmit power (W).
        noise_power_w: ``eta_j * W_m(t)`` thermal-noise power (W).
        interference_w: aggregate interference power (W).

    Returns:
        The (dimensionless) signal-to-interference-plus-noise ratio.
    """
    if noise_power_w <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power_w}")
    if tx_power_w < 0:
        raise ValueError(f"transmit power must be non-negative, got {tx_power_w}")
    return gains[tx, rx] * tx_power_w / (noise_power_w + interference_w)


def co_band_gain_block(
    gains: PairGains, group: Sequence[Transmission]
) -> np.ndarray:
    """``block[k, l] = g(group[k].tx, group[l].rx)`` in one gain read.

    ``group`` is one band's transmissions; the block holds every gain
    their SINRs need, so a pair-gain view is queried once per band
    rather than once per (interferer, receiver) pair.
    """
    count = len(group)
    tx = np.fromiter((t.tx for t in group), dtype=np.intp, count=count)
    rx = np.fromiter((t.rx for t in group), dtype=np.intp, count=count)
    return gains.submatrix(tx, rx)


def sinr_in_group(
    block: np.ndarray,
    group: Sequence[Transmission],
    col: int,
    noise_power_w: Watts,
) -> Linear:
    """SINR of ``group[col]`` among its co-band ``group``.

    ``block`` is :func:`co_band_gain_block` of ``group``.  Members with
    the target's link are not interferers; the rest are summed left to
    right in group order, so the value is the same float as
    :func:`sinr` over scalar ``gains[tx, rx]`` reads.
    """
    target = group[col]
    interferers = [
        (row, t.power_w) for row, t in enumerate(group) if t.link != target.link
    ]
    return sinr(
        block,
        col,
        col,
        target.power_w,
        noise_power_w,
        total_interference(block, col, interferers),
    )
