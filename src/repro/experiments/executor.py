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

The module measures nothing: wall-clock and throughput numbers come
from the gated bench record of ``benchmarks/suite``.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.architectures import architecture_params
from repro.config.parameters import ScenarioParameters
from repro.sim.engine import SlotSimulator
from repro.sim.results import SimulationResult
from repro.sim.rng import SpawnKey, spawn_child_keys
from repro.types import Architecture

#: Identity of one sweep cell: ``(variant name, control V, replication)``.
JobKey = Tuple[str, float, int]


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
        """The cell's identity in the result map."""
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
class SweepResult:
    """Every cell's result, keyed by ``(variant, V, replication)``."""

    spec: SweepSpec
    results: Dict[JobKey, SimulationResult]

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

    def replicated(
        self, variant: str, v: float
    ) -> Tuple[SimulationResult, ...]:
        """One (variant, V) cell's results, in replication order."""
        return tuple(
            self.results[(variant, v, r)]
            for r in range(self.spec.replications)
        )


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
) -> SimulationResult:
    """Run one cell; pure function of the job spec.

    Top-level (pickle-importable) so it works as the process-pool entry
    point; the serial path calls it directly, which is what makes both
    paths one code path.
    """
    _maybe_crash(job, fault)
    if job.variant.kind is JobKind.RELAXED:
        return SlotSimulator.relaxed(job.params).run()
    return SlotSimulator.integral(job.params).run()


# -- cell execution ----------------------------------------------------------


def _run_serial(
    jobs: Sequence[JobSpec], fault: Optional[FaultPlan]
) -> Dict[JobKey, SimulationResult]:
    """Run cells in-process, in grid order; errors surface immediately.

    No crash retry: a hard crash here takes the driver process down.
    """
    done: Dict[JobKey, SimulationResult] = {}
    for job in jobs:
        try:
            done[job.key] = _execute_job(job, fault)
        except Exception as exc:
            raise SweepExecutionError(f"cell {job.key} failed: {exc}") from exc
    return done


def _run_pool(
    jobs: Sequence[JobSpec],
    max_workers: int,
    max_attempts: int,
    fault: Optional[FaultPlan],
) -> Dict[JobKey, SimulationResult]:
    """Fan cells over a process pool, retrying cells whose worker died.

    A hard worker death breaks the whole pool (``BrokenExecutor``), so
    every cell still in flight is replayed on a fresh pool; cells are
    pure functions of their specs, so replays cannot perturb results.
    In-job exceptions are *not* retried (they are deterministic) and
    surface immediately as :class:`SweepExecutionError`.
    """
    done: Dict[JobKey, SimulationResult] = {}
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
                    done[job.key] = future.result()
                except BrokenExecutor:
                    retry.append(job)
                    continue
                except Exception as exc:
                    raise SweepExecutionError(
                        f"cell {job.key} failed in worker: {exc}"
                    ) from exc
        pending = retry
    return done


# -- driver side -------------------------------------------------------------


def run_sweep(
    spec: SweepSpec,
    max_workers: int = 1,
    max_attempts: int = 3,
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
        fault: optional :class:`FaultPlan` crash injection (tests).
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    jobs = spec.jobs()
    if max_workers == 1:
        results = _run_serial(jobs, fault)
    else:
        results = _run_pool(jobs, max_workers, max_attempts, fault)
    return SweepResult(spec=spec, results=results)
