"""Replication statistics.

``mean_confidence_interval`` aggregates independent replications
(different seeds) into a mean with a t-based confidence interval.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
from scipy import stats


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Mean and half-width of a t-based confidence interval.

    Args:
        samples: one statistic per independent replication.
        confidence: two-sided confidence level in (0, 1).

    Returns:
        ``(mean, half_width)``; the half-width is 0 for one sample.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample set")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    t_val = float(stats.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1))
    return mean, t_val * sem
