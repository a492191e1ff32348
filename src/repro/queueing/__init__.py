"""Queueing substrate: energy queues, backlog snapshots, stability tools.

The data- and virtual-queue laws are ``ArrayState`` kernels."""

from repro.queueing.energy_queue import ShiftedEnergyQueue
from repro.queueing.stability import (
    StabilityReport,
    StabilityVerdict,
    assess_strong_stability,
    is_rate_stable_sample_path,
)
from repro.queueing.backlog import BacklogSnapshot

__all__ = [
    "ShiftedEnergyQueue",
    "StabilityReport",
    "StabilityVerdict",
    "assess_strong_stability",
    "is_rate_stable_sample_path",
    "BacklogSnapshot",
]
