"""Sweep execution with deterministic replication.

Every figure in EXPERIMENTS.md is a grid of independent simulation
cells — V values x controller variants (integral / relaxed LP /
architecture baselines) x replication seeds.  This module turns that
grid into a declarative :class:`SweepSpec` and runs its cells either
in-process (``max_workers == 1``) or on a
``concurrent.futures.ProcessPoolExecutor`` pool (``max_workers > 1``),
and guarantees that the pool is *byte-identical* to the serial path:

* each cell is a pickle-safe :class:`JobSpec` whose scenario is fully
  derived (via ``dataclasses.replace``) before any process boundary is
  crossed, so a worker is a pure function of its job;
* replications derive their RNG roots through
  ``numpy.random.SeedSequence.spawn`` (see
  :func:`repro.sim.rng.spawn_child_keys`), threaded into
  :class:`~repro.sim.rng.RngStreams` via the scenario's
  ``seed_spawn_key`` — distinct, deterministic, version-stable;
* the default ``max_workers=1`` builds no pool and pickles nothing, so
  CI and debuggers step through one code path while
  ``tests/test_executor.py`` pins that both paths agree exactly;
* a worker that dies mid-job (OOM kill, segfault, injected fault) is
  retried on a fresh pool, bounded by ``max_attempts``, without
  perturbing any sibling cell (every cell is replayed from its spec,
  never from partial state).

Timing of every cell is recorded and can be emitted as a
machine-readable ``BENCH_sweep.json`` record (see
``docs/executor.md``) to track the sweep-throughput trajectory.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines.architectures import architecture_params
from repro.config.parameters import ScenarioParameters
from repro.sim.engine import SlotSimulator
from repro.sim.results import SimulationResult
from repro.sim.rng import SpawnKey, spawn_child_keys
from repro.types import Architecture

#: Identity of one sweep cell: ``(variant name, control V, replication)``.
JobKey = Tuple[str, float, int]

#: Environment variable consulted when ``run_sweep`` is called without
#: an explicit ``bench_path`` — lets drivers (benchmarks, the figure
#: regeneration script) collect records without widening every runner
#: signature.
BENCH_ENV_VAR = "REPRO_BENCH_SWEEP"

#: Schema tag written into every bench record.
BENCH_SCHEMA = "repro.bench_sweep.v1"


class JobKind(Enum):
    """Which controller a cell runs."""

    INTEGRAL = "integral"
    RELAXED = "relaxed"


class SweepExecutionError(RuntimeError):
    """A sweep cell could not be completed.

    Raised when a job raises inside the worker (the original error is
    chained) or when a cell exhausted its crash-retry budget.
    """


@dataclass(frozen=True)
class SweepVariant:
    """One controller variant of the sweep grid.

    Attributes:
        name: the key under which results are reported.
        kind: integral decomposition or the relaxed LP.
        architecture: optional Fig.-2(f) architecture whose parameter
            restrictions are applied to every cell of the variant.
    """

    name: str
    kind: JobKind = JobKind.INTEGRAL
    architecture: Optional[Architecture] = None

    def derive(self, params: ScenarioParameters) -> ScenarioParameters:
        """The cell scenario after the variant's restrictions."""
        if self.architecture is None:
            return params
        return architecture_params(params, self.architecture)


#: The plain integral-controller variant used by default sweeps.
INTEGRAL_VARIANT = SweepVariant(name="integral", kind=JobKind.INTEGRAL)

#: The relaxed-LP (Theorem-5 lower bound) variant.
RELAXED_VARIANT = SweepVariant(name="relaxed", kind=JobKind.RELAXED)


@dataclass(frozen=True)
class JobSpec:
    """One fully-derived, pickle-safe sweep cell.

    The scenario already carries the cell's ``control_v``, the
    variant's architecture restrictions and the replication's
    ``seed_spawn_key``; a worker needs nothing beyond this object.
    """

    params: ScenarioParameters
    variant: SweepVariant
    replication: int = 0

    @property
    def key(self) -> JobKey:
        """The cell's identity in result/timing maps."""
        return (self.variant.name, self.params.control_v, self.replication)


@dataclass(frozen=True)
class FaultPlan:
    """Test hook: kill the worker running one cell.

    The worker running the job whose key matches ``key`` reads the
    integer countdown in ``marker_path``; while it is positive the
    worker decrements it and hard-exits (``os._exit``), simulating a
    crash the executor must retry.  Purely a determinism-test aid —
    production sweeps pass ``fault=None``.
    """

    key: JobKey
    marker_path: str


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep grid: V values x variants x replications.

    Cells are enumerated in a deterministic order (variant-major, then
    V, then replication) that is identical for the serial and parallel
    paths.  Replication ``r`` of a cell runs the base scenario with
    ``seed_spawn_key`` set to the ``r``-th child spawn key of the
    scenario's root ``SeedSequence``; with ``replications == 1`` the
    base key is left untouched, so a single-replication sweep is
    byte-identical to the historical serial loops.
    """

    base: ScenarioParameters
    v_values: Tuple[float, ...]
    variants: Tuple[SweepVariant, ...] = (INTEGRAL_VARIANT,)
    replications: int = 1

    def __post_init__(self) -> None:
        if not self.v_values:
            raise ValueError("SweepSpec needs at least one V value")
        if not self.variants:
            raise ValueError("SweepSpec needs at least one variant")
        if self.replications < 1:
            raise ValueError(
                f"replications must be >= 1, got {self.replications}"
            )
        names = [variant.name for variant in self.variants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variant names: {names}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def integral(
        cls,
        base: ScenarioParameters,
        v_values: Sequence[float],
        replications: int = 1,
    ) -> "SweepSpec":
        """The plain integral-controller sweep (``sweep_v`` shape)."""
        return cls(
            base=base, v_values=tuple(v_values), replications=replications
        )

    @classmethod
    def bounds(
        cls,
        base: ScenarioParameters,
        v_values: Sequence[float],
        replications: int = 1,
    ) -> "SweepSpec":
        """The paired integral + relaxed-LP grid of Fig. 2(a)."""
        return cls(
            base=base,
            v_values=tuple(v_values),
            variants=(INTEGRAL_VARIANT, RELAXED_VARIANT),
            replications=replications,
        )

    @classmethod
    def architectures(
        cls,
        base: ScenarioParameters,
        v_values: Sequence[float],
        architectures: Sequence[Architecture],
        replications: int = 1,
    ) -> "SweepSpec":
        """The four-architecture comparison grid of Fig. 2(f)."""
        variants = tuple(
            SweepVariant(name=arch.value, architecture=arch)
            for arch in architectures
        )
        return cls(
            base=base,
            v_values=tuple(v_values),
            variants=variants,
            replications=replications,
        )

    # -- grid enumeration --------------------------------------------------

    def replication_keys(self) -> Tuple[SpawnKey, ...]:
        """Per-replication ``seed_spawn_key`` values, in order."""
        if self.replications == 1:
            return (self.base.seed_spawn_key,)
        return spawn_child_keys(
            self.base.seed, self.replications, self.base.seed_spawn_key
        )

    def jobs(self) -> Tuple[JobSpec, ...]:
        """Every cell of the grid, in deterministic order."""
        keys = self.replication_keys()
        out: List[JobSpec] = []
        for variant in self.variants:
            for v in self.v_values:
                for replication, spawn_key in enumerate(keys):
                    params = dataclasses.replace(
                        self.base, control_v=v, seed_spawn_key=spawn_key
                    )
                    out.append(
                        JobSpec(
                            params=variant.derive(params),
                            variant=variant,
                            replication=replication,
                        )
                    )
        return tuple(out)


@dataclass(frozen=True)
class MetricStats:
    """Mean/std/min/max of one metric across replications."""

    mean: float
    std: float
    min: float
    max: float
    samples: Tuple[float, ...]


@dataclass(frozen=True)
class ReplicatedResult:
    """One (variant, V) cell aggregated over its replications."""

    variant: str
    control_v: float
    results: Tuple[SimulationResult, ...]

    def stats(self, metric: str = "average_cost") -> MetricStats:
        """Aggregate one ``SimulationResult.summary()`` metric."""
        samples = tuple(
            float(result.summary()[metric]) for result in self.results
        )
        n = len(samples)
        mean = sum(samples) / n
        variance = sum((s - mean) ** 2 for s in samples) / n
        return MetricStats(
            mean=mean,
            std=variance**0.5,
            min=min(samples),
            max=max(samples),
            samples=samples,
        )

    def summary_stats(self) -> Dict[str, MetricStats]:
        """Aggregate every summary metric."""
        return {
            name: self.stats(name) for name in self.results[0].summary()
        }


@dataclass(frozen=True)
class SweepResult:
    """Everything a sweep produced: results, timings, attempt counts."""

    spec: SweepSpec
    max_workers: int
    elapsed_s: float
    results: Dict[JobKey, SimulationResult]
    wall_s: Dict[JobKey, float]
    attempts: Dict[JobKey, int]

    # -- accessors ---------------------------------------------------------

    def result(
        self, variant: str, v: float, replication: int = 0
    ) -> SimulationResult:
        """One cell's result."""
        return self.results[(variant, v, replication)]

    def v_results(
        self, variant: str = "integral", replication: int = 0
    ) -> Dict[float, SimulationResult]:
        """The classic ``sweep_v`` shape: ``{V: result}`` for a variant."""
        return {
            v: self.results[(variant, v, replication)]
            for v in self.spec.v_values
        }

    def replicated(self, variant: str, v: float) -> ReplicatedResult:
        """One (variant, V) cell aggregated across replications."""
        runs = tuple(
            self.results[(variant, v, r)]
            for r in range(self.spec.replications)
        )
        return ReplicatedResult(variant=variant, control_v=v, results=runs)

    # -- performance record ------------------------------------------------

    @property
    def serial_equivalent_s(self) -> float:
        """Summed per-cell wall clock: the serial-execution cost proxy.

        Per-cell times are measured inside the workers, so on a loaded
        or single-core machine they include timesharing inflation; the
        ratio to ``elapsed_s`` then measures worker *overlap* rather
        than core-count speedup.  See docs/executor.md.
        """
        return sum(self.wall_s.values())

    @property
    def speedup(self) -> float:
        """``serial_equivalent_s / elapsed_s`` — > 1 when cells overlap."""
        if self.elapsed_s <= 0.0:
            return 1.0
        return self.serial_equivalent_s / self.elapsed_s

    @property
    def total_retries(self) -> int:
        """Extra attempts beyond the first, summed over cells."""
        return sum(self.attempts.values()) - len(self.attempts)

    def bench_record(self) -> Dict[str, object]:
        """The machine-readable ``BENCH_sweep.json`` record."""
        cells = [
            {
                "variant": key[0],
                "control_v": key[1],
                "replication": key[2],
                "wall_s": self.wall_s[key],
                "attempts": self.attempts[key],
            }
            for key in sorted(self.wall_s)
        ]
        return {
            "schema": BENCH_SCHEMA,
            "max_workers": self.max_workers,
            "num_cells": len(cells),
            "replications": self.spec.replications,
            "elapsed_s": self.elapsed_s,
            "serial_equivalent_s": self.serial_equivalent_s,
            "speedup": self.speedup,
            "retries": self.total_retries,
            "cells": cells,
        }


# -- worker side -------------------------------------------------------------


def _maybe_crash(job: JobSpec, fault: Optional[FaultPlan]) -> None:
    """Consume one crash token and hard-exit (test hook; see FaultPlan)."""
    if fault is None or job.key != fault.key:
        return
    try:
        raw = Path(fault.marker_path).read_text().strip()
    except OSError:
        return
    remaining = int(raw) if raw else 0
    if remaining <= 0:
        return
    Path(fault.marker_path).write_text(str(remaining - 1))
    os._exit(77)  # simulate a hard worker death (no cleanup, no excepthook)


def _execute_job(
    job: JobSpec, fault: Optional[FaultPlan] = None
) -> Tuple[JobKey, SimulationResult, float]:
    """Run one cell; pure function of the job spec.

    Top-level (pickle-importable) so it works as the process-pool entry
    point; the serial path calls it directly, which is what makes both
    paths one code path.
    """
    _maybe_crash(job, fault)
    start = time.perf_counter()
    if job.variant.kind is JobKind.RELAXED:
        result = SlotSimulator.relaxed(job.params).run()
    else:
        result = SlotSimulator.integral(job.params).run()
    return job.key, result, time.perf_counter() - start


# -- cell execution ----------------------------------------------------------

#: What a cell run returns per key: ``(result, wall seconds, attempts)``.
CellOutcome = Tuple[SimulationResult, float, int]


def _run_serial(
    jobs: Sequence[JobSpec], fault: Optional[FaultPlan]
) -> Dict[JobKey, CellOutcome]:
    """Run cells in-process, in grid order; errors surface immediately.

    No crash retry: a hard crash here takes the driver process down.
    """
    done: Dict[JobKey, CellOutcome] = {}
    for job in jobs:
        try:
            key, result, wall_s = _execute_job(job, fault)
        except Exception as exc:
            raise SweepExecutionError(f"cell {job.key} failed: {exc}") from exc
        done[key] = (result, wall_s, 1)
    return done


def _run_pool(
    jobs: Sequence[JobSpec],
    max_workers: int,
    max_attempts: int,
    fault: Optional[FaultPlan],
) -> Dict[JobKey, CellOutcome]:
    """Fan cells over a process pool, retrying cells whose worker died.

    A hard worker death breaks the whole pool (``BrokenExecutor``), so
    every cell still in flight is replayed on a fresh pool; cells are
    pure functions of their specs, so replays cannot perturb results.
    In-job exceptions are *not* retried (they are deterministic) and
    surface immediately as :class:`SweepExecutionError`.
    """
    done: Dict[JobKey, CellOutcome] = {}
    attempts: Dict[JobKey, int] = {job.key: 0 for job in jobs}
    pending: List[JobSpec] = list(jobs)
    while pending:
        exhausted = [job.key for job in pending if attempts[job.key] >= max_attempts]
        if exhausted:
            raise SweepExecutionError(
                f"cells {exhausted} exceeded {max_attempts} attempts "
                "(worker kept dying)"
            )
        retry: List[JobSpec] = []
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                pool.submit(_execute_job, job, fault): job for job in pending
            }
            for job in pending:
                attempts[job.key] += 1
            for future in as_completed(futures):
                job = futures[future]
                try:
                    key, result, wall_s = future.result()
                except BrokenExecutor:
                    retry.append(job)
                    continue
                except Exception as exc:
                    raise SweepExecutionError(
                        f"cell {job.key} failed in worker: {exc}"
                    ) from exc
                done[key] = (result, wall_s, attempts[key])
        pending = retry
    return done


# -- driver side -------------------------------------------------------------


def run_sweep(
    spec: SweepSpec,
    max_workers: int = 1,
    max_attempts: int = 3,
    bench_path: Union[str, Path, None] = None,
    fault: Optional[FaultPlan] = None,
) -> SweepResult:
    """Execute a sweep grid.

    Args:
        spec: the declarative grid.
        max_workers: ``1`` runs every cell in-process, in grid order,
            with no pool and no pickling; ``> 1`` fans the cells over a
            process pool of that size.  Results are identical either
            way.
        max_attempts: per-cell bound on pool (re-)executions after
            worker deaths; deterministic in-job exceptions are never
            retried.
        bench_path: write/append a ``BENCH_sweep.json`` record here;
            ``None`` falls back to the ``REPRO_BENCH_SWEEP`` env var
            (no record when both are unset).
        fault: optional :class:`FaultPlan` crash injection (tests).
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    jobs = spec.jobs()
    start = time.perf_counter()
    if max_workers == 1:
        outcomes = _run_serial(jobs, fault)
    else:
        outcomes = _run_pool(jobs, max_workers, max_attempts, fault)
    results: Dict[JobKey, SimulationResult] = {}
    wall_s: Dict[JobKey, float] = {}
    attempts: Dict[JobKey, int] = {}
    for key, (result, cell_wall_s, cell_attempts) in outcomes.items():
        results[key] = result
        wall_s[key] = cell_wall_s
        attempts[key] = cell_attempts
    sweep = SweepResult(
        spec=spec,
        max_workers=max_workers,
        elapsed_s=time.perf_counter() - start,
        results=results,
        wall_s=wall_s,
        attempts=attempts,
    )
    target = bench_path if bench_path is not None else os.environ.get(BENCH_ENV_VAR)
    if target:
        write_bench_record(sweep, target)
    return sweep


def write_bench_record(sweep: SweepResult, path: Union[str, Path]) -> Path:
    """Append a sweep's record to a ``BENCH_sweep.json`` file.

    The file holds ``{"schema": ..., "sweeps": [record, ...]}`` so one
    driver (the figure regeneration script, a benchmark session) can
    accumulate every grid it executed; an existing file is extended,
    anything unreadable is overwritten.
    """
    target = Path(path)
    payload: Dict[str, object] = {"schema": BENCH_SCHEMA, "sweeps": []}
    if target.exists():
        try:
            existing = json.loads(target.read_text())
            if (
                isinstance(existing, dict)
                and existing.get("schema") == BENCH_SCHEMA
                and isinstance(existing.get("sweeps"), list)
            ):
                payload = existing
        except (OSError, ValueError):
            pass
    sweeps = payload["sweeps"]
    assert isinstance(sweeps, list)
    sweeps.append(sweep.bench_record())
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Smoke driver: ``python -m repro.experiments.executor``.

    Runs a small integral V sweep through the executor and prints the
    per-cell timing record — CI uses it (``--workers 2``) to prove the
    process-pool path works on a fresh checkout, and the emitted
    ``BENCH_sweep.json`` starts the perf trajectory.
    """
    import argparse

    from repro.config.scenarios import tiny_scenario

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workers", type=int, default=2, help="pool size")
    parser.add_argument("--slots", type=int, default=12, help="horizon")
    parser.add_argument(
        "--replications", type=int, default=2, help="seeds per cell"
    )
    parser.add_argument(
        "--out", default=None, help="BENCH_sweep.json target path"
    )
    args = parser.parse_args(argv)

    spec = SweepSpec.integral(
        tiny_scenario(num_slots=args.slots),
        v_values=(1e4, 3e4),
        replications=args.replications,
    )
    sweep = run_sweep(spec, max_workers=args.workers, bench_path=args.out)
    record = sweep.bench_record()
    print(json.dumps(record, indent=2))
    if args.out:
        print(f"record appended to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution guard
    raise SystemExit(main())
