"""Tests for multi-seed replication with confidence intervals.

Replication has one path: ``SweepSpec(replications=n)`` runs each cell
on ``n`` spawn-key children of the scenario's seed, and
``mean_confidence_interval`` turns the replicated samples into a mean
with a t-based interval (what ``repro sweep`` prints).
"""

import pytest

from repro.config import tiny_scenario
from repro.experiments import SweepSpec, run_sweep
from repro.reporting import mean_confidence_interval


def _average_costs(base, replications):
    sweep = run_sweep(SweepSpec.integral(base, (1e4,), replications=replications))
    return [run.average_cost for run in sweep.replicated("integral", 1e4)]


class TestReplicate:
    @pytest.fixture(scope="class")
    def samples(self):
        return _average_costs(tiny_scenario(num_slots=8), replications=3)

    def test_sample_count(self, samples):
        assert len(samples) == 3

    def test_mean_is_sample_mean(self, samples):
        mean, _ = mean_confidence_interval(samples)
        assert mean == pytest.approx(sum(samples) / 3)

    def test_seeds_differ(self, samples):
        assert len(set(samples)) > 1

    def test_interval_contains_mean(self, samples):
        mean, half_width = mean_confidence_interval(samples)
        assert half_width > 0
        assert mean - half_width <= mean <= mean + half_width

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec.integral(tiny_scenario(), (1e4,), replications=0)

    def test_base_seed_roots_the_replications(self):
        one = _average_costs(tiny_scenario(num_slots=5, seed=1), replications=2)
        again = _average_costs(tiny_scenario(num_slots=5, seed=1), replications=2)
        other = _average_costs(tiny_scenario(num_slots=5, seed=99), replications=2)
        assert one == again
        assert one != other
