"""Unit tests for the baseline architectures and analysis helpers."""

import numpy as np
import pytest

from repro.reporting import format_table, mean_confidence_interval
from repro.baselines import (
    architecture_label,
    architecture_params,
    run_architecture,
)
from repro.config import tiny_scenario
from repro.types import Architecture


class TestArchitectureParams:
    def test_ours_is_unchanged(self):
        base = tiny_scenario()
        derived = architecture_params(base, Architecture.MULTI_HOP_RENEWABLE)
        assert derived.multi_hop_enabled and derived.renewables_enabled
        assert derived.seed == base.seed

    def test_no_renewable_disables_renewables(self):
        base = tiny_scenario()
        derived = architecture_params(base, Architecture.MULTI_HOP_NO_RENEWABLE)
        assert not derived.renewables_enabled
        # Relaying users get grid-connected so relaying is powered.
        assert derived.user_energy.grid_connect_prob == 1.0

    def test_one_hop_disables_multi_hop(self):
        base = tiny_scenario()
        derived = architecture_params(base, Architecture.ONE_HOP_RENEWABLE)
        assert not derived.multi_hop_enabled
        assert derived.renewables_enabled

    def test_one_hop_no_renewable(self):
        base = tiny_scenario()
        derived = architecture_params(base, Architecture.ONE_HOP_NO_RENEWABLE)
        assert not derived.multi_hop_enabled
        assert not derived.renewables_enabled
        # One-hop users do not relay, so no forced grid connection.
        assert derived.user_energy.grid_connect_prob == base.user_energy.grid_connect_prob

    def test_labels_are_distinct(self):
        labels = {architecture_label(a) for a in Architecture}
        assert len(labels) == len(Architecture)

    def test_runs_produce_results(self):
        base = tiny_scenario(num_slots=6)
        for architecture in Architecture:
            result = run_architecture(base, architecture)
            assert result.num_slots == 6
            assert result.average_cost >= 0


class TestAggregates:
    def test_confidence_interval_single_sample(self):
        mean, half = mean_confidence_interval([5.0])
        assert mean == 5.0 and half == 0.0

    def test_confidence_interval_contains_mean(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(10.0, 1.0, size=50)
        mean, half = mean_confidence_interval(samples)
        assert abs(mean - 10.0) < half + 0.5

    def test_confidence_interval_widens_with_confidence(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        _, narrow = mean_confidence_interval(samples, confidence=0.8)
        _, wide = mean_confidence_interval(samples, confidence=0.99)
        assert wide > narrow

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], confidence=1.5)


class TestTables:
    def test_alignment_and_header(self):
        table = format_table(["a", "b"], [[1, 2.5], [30, 4.0]])
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4  # header, rule, 2 rows

    def test_title(self):
        table = format_table(["x"], [[1]], title="T")
        assert table.splitlines()[0] == "T"

    def test_scientific_for_extremes(self):
        table = format_table(["x"], [[1.5e9]])
        assert "e+09" in table

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])
