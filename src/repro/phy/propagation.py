"""Power propagation gain model: ``g_ij = C * d(i, j)^-gamma``.

This is the widely used distance-based path-loss model the paper adopts
(Section II-B).  Distances below ``MIN_DISTANCE_M`` are clamped so the
far-field model is never evaluated in its singular near-field region.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.units import Linear, Meters

#: Distances are clamped to this floor (metres) before applying the
#: far-field path-loss law; ``d^-gamma`` diverges as d -> 0.
MIN_DISTANCE_M: float = 1.0


def propagation_gain(distance_m: Meters, constant: float, exponent: float) -> Linear:
    """Gain between two nodes separated by ``distance_m`` metres.

    Args:
        distance_m: Euclidean distance (m); clamped to ``MIN_DISTANCE_M``.
        constant: the antenna/wavelength constant ``C``.
        exponent: path-loss exponent ``gamma``.

    Returns:
        The dimensionless power gain ``C * d^-gamma``.
    """
    if constant <= 0:
        raise ValueError(f"propagation constant must be positive, got {constant}")
    if exponent <= 0:
        raise ValueError(f"path-loss exponent must be positive, got {exponent}")
    clamped = max(distance_m, MIN_DISTANCE_M)
    return constant * clamped**-exponent


def gain_matrix(
    distances_m: np.ndarray, constant: float, exponent: float
) -> np.ndarray:
    """Vectorised :func:`propagation_gain` over a distance matrix.

    The diagonal (self-distance 0) is clamped like every other entry;
    callers never use self-gains, but keeping them finite avoids NaN
    propagation in vectorised interference sums.
    """
    if constant <= 0:
        raise ValueError(f"propagation constant must be positive, got {constant}")
    if exponent <= 0:
        raise ValueError(f"path-loss exponent must be positive, got {exponent}")
    # In place on the fresh np.maximum output: the same IEEE operations
    # as ``constant * clamped**-exponent``, with one (N, N) buffer.
    gains = np.maximum(np.asarray(distances_m, dtype=float), MIN_DISTANCE_M)
    np.power(gains, -exponent, out=gains)
    return np.multiply(constant, gains, out=gains)


class DensePairGains:
    """Pair-gain view backed by a materialised ``(N, N)`` gain matrix.

    The uniform pair-gain interface lets power control, the SINR
    checker and the big-M construction index gains the same way whether
    the topology caches the gain matrix or only keeps node positions.
    Every method is a pure fancy-index of the matrix, so values are the
    matrix entries themselves.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self._matrix = np.asarray(matrix)

    @property
    def num_nodes(self) -> int:
        """Node count ``N``."""
        return self._matrix.shape[0]

    def __getitem__(self, key) -> float:
        tx, rx = key
        return float(self._matrix[tx, rx])

    def pairs(self, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        """``(k,)`` gains of the paired endpoints ``(tx[i], rx[i])``."""
        return self._matrix[tx, rx]

    def submatrix(self, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        """``(len(tx), len(rx))`` block with ``[k, l] = g(tx[k], rx[l])``."""
        return self._matrix[np.asarray(tx)[:, None], np.asarray(rx)[None, :]]

    def column(self, rx: int) -> np.ndarray:
        """``(N,)`` gains into receiver ``rx`` (``g[:, rx]``)."""
        return self._matrix[:, rx]


class ComputedPairGains:
    """Pair-gain view computed on demand from node positions.

    Used when the topology skips the O(N^2) gain matrix (above the
    cache cutoff) and for the slot positions of mobile nodes.  Each
    query applies the *identical* elementwise float64 chain as the
    dense construction — ``d = sqrt((dx^2 + dy^2))`` then
    :func:`gain_matrix` — so every returned value is bit-identical to
    the corresponding dense matrix entry.
    """

    __slots__ = ("_pos", "_constant", "_exponent")

    def __init__(
        self, positions: np.ndarray, constant: float, exponent: float
    ) -> None:
        self._pos = np.asarray(positions, dtype=float)
        self._constant = constant
        self._exponent = exponent

    @property
    def num_nodes(self) -> int:
        """Node count ``N``."""
        return self._pos.shape[0]

    def __getitem__(self, key) -> float:
        tx, rx = key
        return float(self.pairs(np.asarray([tx]), np.asarray([rx]))[0])

    def pairs(self, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        """``(k,)`` gains of the paired endpoints ``(tx[i], rx[i])``."""
        diffs = self._pos[tx] - self._pos[rx]
        dist = np.sqrt((diffs**2).sum(axis=-1))
        return gain_matrix(dist, self._constant, self._exponent)

    def submatrix(self, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        """``(len(tx), len(rx))`` block with ``[k, l] = g(tx[k], rx[l])``."""
        diffs = (
            self._pos[np.asarray(tx)][:, None, :]
            - self._pos[np.asarray(rx)][None, :, :]
        )
        dist = np.sqrt((diffs**2).sum(axis=2))
        return gain_matrix(dist, self._constant, self._exponent)

    def column(self, rx: int) -> np.ndarray:
        """``(N,)`` gains into receiver ``rx`` (``g[:, rx]``)."""
        diffs = self._pos - self._pos[rx]
        dist = np.sqrt((diffs**2).sum(axis=1))
        return gain_matrix(dist, self._constant, self._exponent)


#: Either pair-gain view; both answer ``[tx, rx]``, ``pairs``,
#: ``submatrix`` and ``column`` with the identical floats.
PairGains = Union[DensePairGains, ComputedPairGains]
