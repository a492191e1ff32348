"""Multi-seed replication: means with confidence intervals.

One simulation run is a single sample path; claims about *expected*
cost or backlog need replication over independent seeds.  This module
runs a scenario across seeds and aggregates any per-run statistic into
a mean with a t-based confidence interval.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.reporting.aggregate import mean_confidence_interval
from repro.config.parameters import ScenarioParameters
from repro.sim.engine import SlotSimulator
from repro.sim.results import SimulationResult

#: A per-run statistic, e.g. ``lambda r: r.average_cost``.
Statistic = Callable[[SimulationResult], float]


@dataclass(frozen=True)
class ReplicatedStatistic:
    """A statistic aggregated over independent replications.

    Attributes:
        mean: sample mean over seeds.
        half_width: confidence-interval half-width.
        samples: the raw per-seed values, in seed order.
    """

    mean: float
    half_width: float
    samples: Tuple[float, ...]

    @property
    def interval(self) -> Tuple[float, float]:
        """The confidence interval ``(lo, hi)``."""
        return (self.mean - self.half_width, self.mean + self.half_width)

    def overlaps(self, other: "ReplicatedStatistic") -> bool:
        """True when the two confidence intervals intersect."""
        return (
            self.interval[0] <= other.interval[1]
            and other.interval[0] <= self.interval[1]
        )


def replicate(
    base: ScenarioParameters,
    statistic: Statistic,
    num_seeds: int = 5,
    first_seed: int = 0,
    confidence: float = 0.95,
) -> ReplicatedStatistic:
    """Run ``base`` under ``num_seeds`` seeds and aggregate a statistic.

    Args:
        base: the scenario; its own seed is ignored.
        statistic: per-run value to aggregate.
        num_seeds: number of independent replications.
        first_seed: seeds are ``first_seed .. first_seed+num_seeds-1``.
        confidence: two-sided confidence level.
    """
    if num_seeds < 1:
        raise ValueError(f"need at least one seed, got {num_seeds}")
    samples = []
    for offset in range(num_seeds):
        params = dataclasses.replace(base, seed=first_seed + offset)
        result = SlotSimulator.integral(params).run()
        samples.append(float(statistic(result)))
    mean, half = mean_confidence_interval(samples, confidence)
    return ReplicatedStatistic(
        mean=mean, half_width=half, samples=tuple(samples)
    )


def replicate_summary(
    base: ScenarioParameters,
    num_seeds: int = 5,
    first_seed: int = 0,
) -> Dict[str, ReplicatedStatistic]:
    """Replicate the headline statistics of a scenario.

    Returns means/CIs for average cost, steady-state cost, average
    penalty, and the mean BS data backlog.
    """
    statistics: Dict[str, Statistic] = {
        "average_cost": lambda r: r.average_cost,
        "steady_state_cost": lambda r: r.steady_state_cost,
        "average_penalty": lambda r: r.average_penalty,
        "mean_bs_backlog": lambda r: float(
            r.backlog_series("bs_data_packets").mean()
        ),
    }
    # Run every seed once, evaluating all statistics on the same runs.
    runs = []
    for offset in range(num_seeds):
        params = dataclasses.replace(base, seed=first_seed + offset)
        runs.append(SlotSimulator.integral(params).run())
    out: Dict[str, ReplicatedStatistic] = {}
    for name, statistic in statistics.items():
        samples = [float(statistic(run)) for run in runs]
        mean, half = mean_confidence_interval(samples)
        out[name] = ReplicatedStatistic(
            mean=mean, half_width=half, samples=tuple(samples)
        )
    return out
