"""Physical-model feasibility helpers and the big-M constant of Eq. (24).

These are the ingredients of the paper's linearised SINR constraint:

    g_ij P_ij^m a_ij^m + M_ij^m (1 - a_ij^m)
        >= Gamma (eta_j W_m + sum_{k!=i} g_kj P_kv^m a_kv^m),

with ``M_ij^m = Gamma (eta_j W_m + sum_{k!=i} g_kj P_max^k)`` chosen so
the constraint is vacuous when the link is not scheduled.
"""

from __future__ import annotations

from typing import Dict, Union

import numpy as np

from repro.phy.propagation import ComputedPairGains, DensePairGains
from repro.types import NodeId
from repro.units import Linear, Watts

GainsLike = Union[np.ndarray, DensePairGains, ComputedPairGains]


def _seq_sum(values: np.ndarray) -> float:
    """Strict left-to-right sum, matching Python's builtin ``sum``.

    Local copy of :func:`repro.core.arraystate.seq_sum` — ``phy`` is a
    leaf package imported during ``core``'s own initialisation, so it
    cannot import from ``core`` without a cycle.
    """
    flat = np.ravel(values)
    if flat.size == 0:
        return 0.0
    return float(np.add.accumulate(flat)[-1])


def zero_interference_feasible(
    gain: Linear,
    max_power_w: Watts,
    noise_power_w: Watts,
    sinr_threshold: Linear,
) -> bool:
    """True if a link clears ``Gamma`` at max power with no interference.

    This is the necessary condition for a link ever being schedulable;
    the topology builder uses it for candidate-link pruning.
    """
    if noise_power_w <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power_w}")
    return gain * max_power_w >= sinr_threshold * noise_power_w


def max_power_array(
    max_power_w: Union[Dict[NodeId, Watts], np.ndarray], num_nodes: int
) -> np.ndarray:
    """``(N,)`` per-node power caps from a dict or a ready array.

    Cold path: callers cache the result per model — the caps never
    change mid-run.
    """
    if isinstance(max_power_w, np.ndarray):
        return max_power_w
    return np.fromiter(
        (max_power_w[k] for k in range(num_nodes)), dtype=float, count=num_nodes
    )


def big_m_coefficient(
    gains: GainsLike,
    tx: NodeId,
    rx: NodeId,
    noise_power_w: Watts,
    sinr_threshold: Linear,
    max_power_w: Union[Dict[NodeId, Watts], np.ndarray],
) -> Watts:
    """The constant ``M_ij^m`` of Eq. (24).

    Set to the worst-case right-hand side — every other node
    transmitting at its maximum power — so that a de-scheduled link
    (``a_ij^m = 0``) imposes no restriction.  The interference sum runs
    as one vectorized pass over the gain column; :func:`seq_sum` keeps
    the accumulation order of the historical per-node loop, so the
    constant is bit-identical.  ``gains`` may be the dense matrix or a
    pair-gain view (whose ``column`` returns the identical floats).
    """
    if isinstance(gains, np.ndarray):
        column = np.asarray(gains)[:, rx]
    else:
        column = gains.column(rx)
    num_nodes = column.shape[0]
    power = max_power_array(max_power_w, num_nodes)
    contributions = column * power
    mask = np.ones(num_nodes, dtype=bool)
    mask[tx] = False
    mask[rx] = False
    worst_interference = _seq_sum(contributions[mask])
    return sinr_threshold * (noise_power_w + worst_interference)

