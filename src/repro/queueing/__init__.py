"""Queueing substrate: backlog snapshots, stability tools.

The data-, virtual- and shifted energy-queue laws are ``ArrayState``
kernels."""

from repro.queueing.stability import (
    StabilityReport,
    StabilityVerdict,
    assess_strong_stability,
    is_rate_stable_sample_path,
)
from repro.queueing.backlog import BacklogSnapshot

__all__ = [
    "StabilityReport",
    "StabilityVerdict",
    "assess_strong_stability",
    "is_rate_stable_sample_path",
    "BacklogSnapshot",
]
