"""Queueing substrate: stability tools.

The data-, virtual- and shifted energy-queue laws are ``ArrayState``
kernels."""

from repro.queueing.stability import (
    StabilityReport,
    StabilityVerdict,
    assess_strong_stability,
)

__all__ = [
    "StabilityReport",
    "StabilityVerdict",
    "assess_strong_stability",
]
