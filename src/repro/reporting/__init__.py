"""Reporting: post-processing of simulation results.

Replication confidence intervals (:mod:`repro.reporting.aggregate`),
plain-text tables (:mod:`repro.reporting.tables`) and the operator
report (:mod:`repro.reporting.report`).  Multi-seed runs come
from the sweep executor (``SweepSpec(replications=n)``).  Nothing here
imports the static analyzer (:mod:`repro.analysis`) or the lint suite.
"""

from repro.reporting.aggregate import mean_confidence_interval
from repro.reporting.tables import format_table
from repro.reporting.report import build_report

__all__ = [
    "mean_confidence_interval",
    "format_table",
    "build_report",
]
