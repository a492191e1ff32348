"""Tests for the multi-seed replication helpers."""

import pytest

from repro.reporting import ReplicatedStatistic, replicate, replicate_summary
from repro.config import tiny_scenario


class TestReplicate:
    @pytest.fixture(scope="class")
    def stat(self):
        return replicate(
            tiny_scenario(num_slots=8),
            statistic=lambda r: r.average_cost,
            num_seeds=3,
        )

    def test_sample_count(self, stat):
        assert len(stat.samples) == 3

    def test_mean_is_sample_mean(self, stat):
        assert stat.mean == pytest.approx(sum(stat.samples) / 3)

    def test_seeds_differ(self, stat):
        assert len(set(stat.samples)) > 1

    def test_interval_contains_mean(self, stat):
        lo, hi = stat.interval
        assert lo <= stat.mean <= hi

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(tiny_scenario(), lambda r: 0.0, num_seeds=0)

    def test_base_seed_is_ignored(self):
        a = replicate(
            tiny_scenario(num_slots=5, seed=1),
            statistic=lambda r: r.average_cost,
            num_seeds=2,
        )
        b = replicate(
            tiny_scenario(num_slots=5, seed=99),
            statistic=lambda r: r.average_cost,
            num_seeds=2,
        )
        assert a.samples == b.samples


class TestReplicateSummary:
    def test_headline_statistics_present(self):
        summary = replicate_summary(tiny_scenario(num_slots=6), num_seeds=2)
        assert set(summary) == {
            "average_cost",
            "steady_state_cost",
            "average_penalty",
            "mean_bs_backlog",
        }
        for stat in summary.values():
            assert len(stat.samples) == 2


class TestOverlap:
    def test_overlapping_intervals(self):
        a = ReplicatedStatistic(mean=10.0, half_width=2.0, samples=(8.0, 12.0))
        b = ReplicatedStatistic(mean=11.0, half_width=2.0, samples=(9.0, 13.0))
        c = ReplicatedStatistic(mean=20.0, half_width=1.0, samples=(19.0, 21.0))
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)
