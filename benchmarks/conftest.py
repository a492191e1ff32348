"""Shared fixtures for the component benches.

The benches measure the per-slot hot paths; the paper's figures and
the ablations are not benches: ``scripts/generate_experiments.py``
regenerates and checks them.
"""

from __future__ import annotations

import pytest

from repro.config import small_scenario


@pytest.fixture(scope="session")
def bench_base():
    """The base scenario the component benches derive their runs from."""
    return small_scenario(num_slots=40, num_users=10, seed=2014)
