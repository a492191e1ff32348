"""Empirical stability assessment (Definitions 1-2, Theorems 1-2).

A process is *rate stable* when ``Q(t)/t -> 0`` and *strongly stable*
when its running mean ``(1/T) sum E|Q(t)|`` stays bounded.  On a finite
sample path neither limit is observable, so
:func:`assess_strong_stability` applies the standard finite-horizon
proxy: boundedness + flattening of the running mean.  It is a
diagnostic, not a proof — the proofs live in the paper's Theorem 3; the
simulator uses it to *check* that the implementation delivers what the
theorem promises.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class StabilityVerdict(enum.Enum):
    """Outcome of an empirical stability check."""

    STABLE = "stable"
    UNSTABLE = "unstable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StabilityReport:
    """Evidence behind a stability verdict.

    Attributes:
        verdict: the overall call.
        max_backlog: peak of the sample path.
        final_running_mean: ``(1/T) sum_t Q(t)`` at the horizon.
        tail_slope: least-squares slope of ``Q(t)`` over the last third
            of the horizon, in backlog units per slot.
        growth_fraction: ``tail_slope * T / mean`` — how much the path
            would grow over one more horizon, as a fraction of its
            current mean level; the decision statistic.  A saturating
            path has ~0, a linearly growing path has ~2 regardless of
            its rate.
    """

    verdict: StabilityVerdict
    max_backlog: float
    final_running_mean: float
    tail_slope: float
    growth_fraction: float


def assess_strong_stability(
    path: Sequence[float],
    growth_tol: float = 0.25,
    min_horizon: int = 10,
) -> StabilityReport:
    """Empirical strong-stability check on one backlog sample path.

    The decision statistic is the *growth fraction*: the least-squares
    slope over the final third of the horizon, multiplied by the
    horizon, relative to the path mean — i.e. how much the backlog
    would grow over one more horizon if the tail trend continued.  A
    path that has flattened scores ~0 and is called stable below
    ``growth_tol``; a persistently growing path scores ~2 (linear
    growth) and is called unstable above ``4 * growth_tol``; in
    between the horizon is too short to tell.

    Args:
        path: the backlog sample path ``Q(0..T-1)``.
        growth_tol: growth-fraction threshold for stability.
        min_horizon: below this length the verdict is inconclusive.
    """
    arr = np.asarray(path, dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample path")
    if np.any(arr < 0):
        raise ValueError("backlogs must be non-negative")

    running_mean = float(arr.mean())
    max_backlog = float(arr.max())

    if arr.size < min_horizon:
        return StabilityReport(
            verdict=StabilityVerdict.INCONCLUSIVE,
            max_backlog=max_backlog,
            final_running_mean=running_mean,
            tail_slope=float("nan"),
            growth_fraction=float("nan"),
        )

    tail_start = (2 * arr.size) // 3
    tail = arr[tail_start:]
    slots = np.arange(tail.size, dtype=float)
    slope = float(np.polyfit(slots, tail, 1)[0]) if tail.size > 1 else 0.0
    growth = slope * arr.size / max(running_mean, 1.0)

    if growth <= growth_tol:
        verdict = StabilityVerdict.STABLE
    elif growth >= 4 * growth_tol:
        verdict = StabilityVerdict.UNSTABLE
    else:
        verdict = StabilityVerdict.INCONCLUSIVE

    return StabilityReport(
        verdict=verdict,
        max_backlog=max_backlog,
        final_running_mean=running_mean,
        tail_slope=slope,
        growth_fraction=growth,
    )
