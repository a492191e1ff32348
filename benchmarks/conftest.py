"""Shared benchmark fixtures for the ablation and component benches.

Each ablation bench runs one design decision both ways and prints the
reproduced rows, while pytest-benchmark measures the run time.  The
paper's figures are not benches: ``scripts/generate_experiments.py``
regenerates and checks them.

``REPRO_BENCH_SCALE=paper`` runs the benches at the full Section-VI
scale (2 BSs, 20 users, 100 slots) instead of the reduced default.
"""

from __future__ import annotations

import os

import pytest

from repro.config import paper_scenario, small_scenario


@pytest.fixture(scope="session")
def bench_base():
    """The base scenario benchmarks derive their runs from."""
    if os.environ.get("REPRO_BENCH_SCALE", "small") == "paper":
        return paper_scenario(num_slots=100, seed=2014)
    return small_scenario(num_slots=40, num_users=10, seed=2014)


@pytest.fixture
def show(capsys):
    """Printer for reproduced tables, bypassing pytest's capture."""

    def _show(table: str) -> None:
        with capsys.disabled():
            print()
            print(table)
            print()

    return _show
