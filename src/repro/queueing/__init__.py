"""Queueing substrate: backlog snapshots, stability tools.

The data-, virtual- and shifted energy-queue laws are ``ArrayState``
kernels."""

from repro.queueing.stability import (
    StabilityReport,
    StabilityVerdict,
    assess_strong_stability,
)
from repro.queueing.backlog import BacklogSnapshot

__all__ = [
    "StabilityReport",
    "StabilityVerdict",
    "assess_strong_stability",
    "BacklogSnapshot",
]
