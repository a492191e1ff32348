"""Serial-vs-parallel equivalence suite for the sweep executor.

The executor's contract is that parallelism is *invisible* in the
results: for one :class:`SweepSpec`, the in-process serial path
(``max_workers=1``) and the process-pool path (``max_workers>1``)
produce identical ``SimulationResult`` streams — same cells, same
metrics, exact float equality, regardless of worker scheduling, crash
retries, or replication fan-out.  These tests pin that contract and
the determinism of replication seeding.
"""

import numpy as np
import pytest

from repro.config import tiny_scenario
from repro.experiments.executor import (
    FaultPlan,
    JobKind,
    SweepExecutionError,
    SweepSpec,
    SweepVariant,
    run_sweep,
)
from repro.experiments.runner import sweep_v
from repro.reporting import mean_confidence_interval
from repro.types import Architecture

#: Per-slot series compared exactly between the serial and parallel runs.
SERIES = ("cost", "penalty", "grid_draw_j", "admitted_pkts", "delivered_pkts")
SNAPSHOT_SERIES = ("bs_data_packets", "user_data_packets", "bs_energy_j")


def _spec(num_slots=8, v_values=(1e4, 2e4), replications=2):
    return SweepSpec.integral(
        tiny_scenario(num_slots=num_slots),
        v_values=v_values,
        replications=replications,
    )


def assert_results_identical(a, b):
    """Exact (not approximate) equality of two sweeps' result streams."""
    assert set(a.results) == set(b.results)
    for key in a.results:
        ra, rb = a.results[key], b.results[key]
        assert ra.summary() == rb.summary(), f"summary differs for {key}"
        for name in SERIES:
            assert np.array_equal(
                ra.metrics.series(name), rb.metrics.series(name)
            ), f"series {name} differs for {key}"
        for name in SNAPSHOT_SERIES:
            assert np.array_equal(
                ra.backlog_series(name), rb.backlog_series(name)
            ), f"snapshot {name} differs for {key}"


@pytest.fixture(scope="module")
def serial_sweep():
    return run_sweep(_spec(), max_workers=1)


class TestSerialParallelEquivalence:
    def test_parallel_matches_serial_exactly(self, serial_sweep):
        parallel = run_sweep(_spec(), max_workers=4)
        assert_results_identical(serial_sweep, parallel)

    def test_serial_rerun_is_deterministic(self, serial_sweep):
        again = run_sweep(_spec(), max_workers=1)
        assert_results_identical(serial_sweep, again)

    def test_bound_grid_parallel_matches_serial(self):
        spec = SweepSpec.bounds(tiny_scenario(num_slots=6), (1e4,))
        serial = run_sweep(spec, max_workers=1)
        parallel = run_sweep(spec, max_workers=2)
        assert_results_identical(serial, parallel)

    def test_architecture_grid_parallel_matches_serial(self):
        spec = SweepSpec.architectures(
            tiny_scenario(num_slots=6),
            (1e4,),
            (Architecture.MULTI_HOP_RENEWABLE, Architecture.ONE_HOP_RENEWABLE),
        )
        serial = run_sweep(spec, max_workers=1)
        parallel = run_sweep(spec, max_workers=2)
        assert_results_identical(serial, parallel)

    def test_serial_fallback_never_builds_a_pool(self, monkeypatch):
        import repro.experiments.executor as executor_module

        def forbidden(*args, **kwargs):
            raise AssertionError("serial path must not construct a pool")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", forbidden
        )
        sweep = run_sweep(_spec(replications=1), max_workers=1)
        assert len(sweep.results) == 2

    def test_more_than_one_worker_runs_on_a_pool(self, monkeypatch):
        import repro.experiments.executor as executor_module

        built = []
        real = executor_module.ProcessPoolExecutor

        def recording(max_workers):
            built.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", recording)
        sweep = run_sweep(_spec(replications=1), max_workers=3)
        assert built == [3]
        assert len(sweep.results) == 2

    def test_sweep_v_parallel_matches_serial(self):
        base = tiny_scenario(num_slots=6)
        serial = sweep_v(base, (1e4, 2e4))
        parallel = sweep_v(base, (1e4, 2e4), max_workers=2)
        assert set(serial) == set(parallel)
        for v in serial:
            assert serial[v].summary() == parallel[v].summary()


class TestReplicationSeeding:
    def test_replications_are_distinct(self, serial_sweep):
        r0 = serial_sweep.result("integral", 1e4, 0)
        r1 = serial_sweep.result("integral", 1e4, 1)
        assert r0.average_cost != r1.average_cost

    def test_replications_are_deterministic(self, serial_sweep):
        again = run_sweep(_spec(), max_workers=1)
        for rep in (0, 1):
            assert (
                serial_sweep.result("integral", 2e4, rep).summary()
                == again.result("integral", 2e4, rep).summary()
            )

    def test_single_replication_keeps_base_spawn_key(self):
        # A 1-replication sweep is the historical serial loop, byte for
        # byte: no child key is derived.
        spec = _spec(replications=1)
        jobs = spec.jobs()
        assert all(job.params.seed_spawn_key == () for job in jobs)

    def test_multi_replication_uses_spawned_child_keys(self):
        jobs = _spec(replications=3, v_values=(1e4,)).jobs()
        assert [job.params.seed_spawn_key for job in jobs] == [(0,), (1,), (2,)]

    def test_replicated_aggregate(self, serial_sweep):
        runs = serial_sweep.replicated("integral", 1e4)
        assert len(runs) == 2
        for replication, run in enumerate(runs):
            assert run is serial_sweep.result("integral", 1e4, replication)
        costs = [run.average_cost for run in runs]
        mean, half_width = mean_confidence_interval(costs)
        assert min(costs) <= mean <= max(costs)
        assert half_width > 0.0
        assert mean == pytest.approx(sum(costs) / 2)

    def test_job_order_is_deterministic(self):
        assert _spec().jobs() == _spec().jobs()


class TestCrashRetry:
    def test_killed_worker_is_retried_to_identical_results(
        self, serial_sweep, tmp_path
    ):
        marker = tmp_path / "crash-once"
        marker.write_text("1")
        fault = FaultPlan(key=("integral", 2e4, 1), marker_path=str(marker))
        parallel = run_sweep(_spec(), max_workers=2, fault=fault)
        # The injected crash was consumed...
        assert marker.read_text().strip() == "0"
        # ...and neither the crashed cell nor any sibling moved.
        assert_results_identical(serial_sweep, parallel)

    def test_persistently_dying_worker_exhausts_retries(self, tmp_path):
        marker = tmp_path / "crash-forever"
        marker.write_text("99")
        fault = FaultPlan(key=("integral", 1e4, 0), marker_path=str(marker))
        with pytest.raises(SweepExecutionError, match="attempts"):
            run_sweep(_spec(), max_workers=2, max_attempts=2, fault=fault)

    def test_deterministic_job_error_is_not_retried(self):
        # Scenario validation fails inside the worker (the parameters
        # object itself is constructible); the executor must surface
        # it immediately instead of burning the retry budget.
        bad = tiny_scenario(num_slots=4, num_users=0, num_sessions=1)
        spec = SweepSpec.integral(bad, (1e4,))
        with pytest.raises(SweepExecutionError, match="failed"):
            run_sweep(spec, max_workers=2)
        with pytest.raises(SweepExecutionError, match="failed"):
            run_sweep(spec, max_workers=1)


class TestSpecValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(base=tiny_scenario(), v_values=())

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(base=tiny_scenario(), v_values=(1e4,), replications=0)

    def test_duplicate_variant_names_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(
                base=tiny_scenario(),
                v_values=(1e4,),
                variants=(
                    SweepVariant(name="x"),
                    SweepVariant(name="x", kind=JobKind.RELAXED),
                ),
            )

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(_spec(), max_workers=0)
