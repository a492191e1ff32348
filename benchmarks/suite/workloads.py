"""The benchmark's workloads, generated from one seed.

A workload is a fixed list of simulator runs.  Its scenario parameters
are the only input the program receives.  The network layout (user
positions) is part of the workload: it is drawn once from
``LAYOUT_SEED``, the same draw ``paper_scenario(seed=2014)`` makes.  The
run's ``--seed`` drives everything else: spectrum access sets, session
destinations, the band, renewable and grid processes, mobility and the
controller's randomness.  The layout fixes the size of the co-band sets
that S1 power control solves (its cost grows with their fourth power),
so varying it with the seed would swamp a regression with the
layout-to-layout spread.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.config import paper_scenario
from repro.config.parameters import ScenarioParameters
from repro.network.geometry import grid_placement, uniform_random_placement
from repro.sim.engine import SlotSimulator
from repro.sim.rng import RngStreams
from repro.types import MobilityKind, Point, SchedulerKind

#: Users per base station in the constant-density scenario.  One BS per
#: six users keeps every point of the area within 774 m of a BS, inside
#: a user's ~889 m feasible-link radius, so no draw isolates a node.
USERS_PER_BS = 6

#: The V values of the paper's Section-VI sweep (Fig. 2).
PAPER_V = (1e5, 2e5, 3e5, 4e5, 5e5)

#: Seed of the fixed user layout of every workload.
LAYOUT_SEED = 2014


def with_layout(params: ScenarioParameters) -> ScenarioParameters:
    """``params`` with the users placed by the ``LAYOUT_SEED`` draw."""
    rng = RngStreams(LAYOUT_SEED).topology
    positions = uniform_random_placement(params.num_users, params.area_side_m, rng)
    return dataclasses.replace(params, user_positions=tuple(positions))


def density_scenario(
    num_users: int, num_slots: int, seed: int, **overrides: object
) -> ScenarioParameters:
    """The Section-VI scenario grown at constant spatial density.

    Area side ``2000 * sqrt(U / 20)`` m with one base station per
    ``USERS_PER_BS`` users on ``grid_placement``, so per-node
    neighbourhoods and per-link interference stay the same at every U;
    users take the fixed layout.
    """
    side = 2000.0 * math.sqrt(num_users / 20.0)
    num_bs = max(2, num_users // USERS_PER_BS)
    stations = tuple(Point(p.x, p.y) for p in grid_placement(num_bs, side))
    return with_layout(
        paper_scenario(
            num_slots=num_slots,
            seed=seed,
            num_users=num_users,
            area_side_m=side,
            base_station_positions=stations,
            **overrides,
        )
    )


@dataclass(frozen=True)
class SimRun:
    """One simulator of a workload: its scenario and its controller.

    Attributes:
        label: short name used in records and trace span ids.
        params: the generated scenario.
        relaxed: True for the Theorem-5 relaxed-LP controller, False for
            the paper's S1-S4 decomposition.
        scheduler: S1 selector of the decomposition controller.
    """

    label: str
    params: ScenarioParameters
    relaxed: bool = False
    scheduler: SchedulerKind = SchedulerKind.SEQUENTIAL_FIX

    def build(self, state_cls: Optional[Callable] = None) -> SlotSimulator:
        """Construct the simulator through the public constructors."""
        extra = {} if state_cls is None else {"state_cls": state_cls}
        if self.relaxed:
            return SlotSimulator.relaxed(self.params, **extra)
        return SlotSimulator.integral(
            self.params, scheduler_kind=self.scheduler, **extra
        )


@dataclass(frozen=True)
class Workload:
    """A named, seeded list of simulator runs.

    Attributes:
        name: the workload name used on the command line.
        runs: seed -> the workload's simulator runs, in run order.
        setup_reps: constructions per simulator per episode; ``setup_s``
            takes the median over these repetitions.
        min_episodes: episodes a pass runs even when ``--seconds`` have
            already passed.
    """

    name: str
    runs: Callable[[int], List[SimRun]]
    setup_reps: int
    min_episodes: int = 1


def _paper_fig2(seed: int) -> List[SimRun]:
    # Each V draws its own stochastic environment (spawn key = V index),
    # so one run averages five draws; the two controllers at one V share
    # theirs, as the bound and the algorithm it bounds should.
    runs: List[SimRun] = []
    for k, v in enumerate(PAPER_V):
        params = with_layout(
            paper_scenario(control_v=v, num_slots=60, seed=seed, seed_spawn_key=(k,))
        )
        runs.append(SimRun(f"integral-V{v:.0e}", params))
        runs.append(SimRun(f"relaxed-V{v:.0e}", params, relaxed=True))
    return runs


def _loaded(seed: int, num_slots: int = 60, **overrides: object) -> List[SimRun]:
    params = density_scenario(1000, num_slots, seed, **overrides)
    return [SimRun("greedy", params, scheduler=SchedulerKind.GREEDY)]


def _mobile(seed: int) -> List[SimRun]:
    # Its slots take about a third of a static one's, so 100 of them fill
    # a run as 60 static slots do.
    return _loaded(seed, 100, mobility=MobilityKind.RANDOM_WAYPOINT)


def _sparse(seed: int) -> List[SimRun]:
    # T stops at 4: from slot ~5 on, power control over the loaded
    # co-band sets makes one U=100k slot take tens of seconds.
    params = density_scenario(
        100_000, 4, seed, renewables_enabled=False, topology_mode="sparse"
    )
    return [SimRun("greedy", params, scheduler=SchedulerKind.GREEDY)]


#: The workloads, in run order.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-fig2", _paper_fig2, setup_reps=5),
        Workload("loaded-u1k", _loaded, setup_reps=5),
        Workload("mobile-u1k", _mobile, setup_reps=5),
        # One construction (10-13 s) per episode, two episodes: the set-up
        # median has two samples, the slot median eight, and the run
        # still ends within ~45 s.
        Workload("sparse-u100k", _sparse, setup_reps=1, min_episodes=2),
    )
}
