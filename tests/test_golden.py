"""Golden regression tests.

These pin exact outputs of small deterministic runs.  They exist to
catch *unintended* behaviour changes: any edit to the default
parameters, the RNG stream layout, or the control algorithms will
trip them.  When a change is intentional, regenerate the constants
with::

    python - <<'PY'
    from repro.config import tiny_scenario
    from repro.sim import SlotSimulator
    r = SlotSimulator.integral(tiny_scenario(num_slots=12)).run()
    print(r.average_cost, r.average_penalty)
    PY

and update them here together with a changelog note.

``TestGoldenTrajectories`` pins whole trajectories instead: one SHA-256
per (scenario, scheduler) case over every slot's decision, energy
allocation and slot metrics (see ``tests/helpers.py``), committed
in ``tests/golden/trajectories.json``.  Regenerate after an intentional
change with::

    PYTHONPATH=src python -m tests.test_golden --write-trajectories

``TestGoldenObservations`` pins the sampled environment itself: one
SHA-256 (``GOLDEN_OBSERVATION_SHA256``) over the renewable and grid
vectors that ``observe`` returns, with scripted grid outages.
"""

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from repro.config import paper_scenario, small_scenario, tiny_scenario
from repro.network import topology
from repro.network.geometry import grid_placement
from repro.phy.propagation import ComputedPairGains, DensePairGains
from repro.sim import SlotSimulator
from repro.types import MobilityKind, QueueSemantics, RenewableKind, SchedulerKind
from tests.helpers import canonical, trajectory_sha256

#: Pinned outputs of the integral controller on tiny_scenario(num_slots=12).
GOLDEN_TINY_COST = 360.1370896962028
GOLDEN_TINY_PENALTY = 358.88375636286946
GOLDEN_TINY_DELIVERED = 2256.0
GOLDEN_TINY_BS_BACKLOG_FINAL = 470.0
GOLDEN_TINY_BS_ENERGY_FINAL = 83511.39331245176

#: Pinned output of the relaxed LP controller on tiny_scenario(num_slots=6).
GOLDEN_RELAXED_PENALTY = 706.9341077946327


@pytest.fixture(scope="module")
def tiny_run():
    return SlotSimulator.integral(tiny_scenario(num_slots=12)).run()


class TestGoldenIntegral:
    def test_average_cost(self, tiny_run):
        assert tiny_run.average_cost == pytest.approx(GOLDEN_TINY_COST, rel=1e-9)

    def test_average_penalty(self, tiny_run):
        assert tiny_run.average_penalty == pytest.approx(
            GOLDEN_TINY_PENALTY, rel=1e-9
        )

    def test_delivered_packets(self, tiny_run):
        assert tiny_run.metrics.totals()["delivered_pkts"] == GOLDEN_TINY_DELIVERED

    def test_final_bs_backlog(self, tiny_run):
        assert float(
            tiny_run.backlog_series("bs_data_packets")[-1]
        ) == pytest.approx(GOLDEN_TINY_BS_BACKLOG_FINAL, rel=1e-9)

    def test_final_bs_energy(self, tiny_run):
        assert float(
            tiny_run.backlog_series("bs_energy_j")[-1]
        ) == pytest.approx(GOLDEN_TINY_BS_ENERGY_FINAL, rel=1e-9)


class TestGoldenRelaxed:
    def test_relaxed_penalty(self):
        result = SlotSimulator.relaxed(tiny_scenario(num_slots=6)).run()
        # HiGHS pivoting is deterministic but can shift across scipy
        # versions; allow a loose relative tolerance.
        assert result.average_penalty == pytest.approx(
            GOLDEN_RELAXED_PENALTY, rel=1e-6
        )


class TestGoldenTopologyModes:
    """The same pins must hold under either pair-gain view.

    Small scenarios read gains from the cached ``(N, N)`` matrix
    (``dense``); above ``DENSE_MATERIALIZE_MAX`` nodes the topology
    computes them from positions (``sparse``).  Both runs are pinned
    byte-for-byte against the identical constants.
    """

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_tiny_goldens_exact(self, mode, tiny_run, monkeypatch):
        if mode == "sparse":
            monkeypatch.setattr(topology, "DENSE_MATERIALIZE_MAX", 0)
        simulator = SlotSimulator.integral(tiny_scenario(num_slots=12))
        assert isinstance(
            simulator.model.topology.pair_gains,
            ComputedPairGains if mode == "sparse" else DensePairGains,
        )
        result = simulator.run()
        # Exact equality against the default run, not approx: the two
        # views promise bit-identity, and the pinned constants hold
        # transitively.
        assert result.average_cost == tiny_run.average_cost
        assert result.average_penalty == tiny_run.average_penalty
        assert (
            result.metrics.totals()["delivered_pkts"]
            == tiny_run.metrics.totals()["delivered_pkts"]
        )
        assert result.average_cost == pytest.approx(GOLDEN_TINY_COST, rel=1e-9)


def _intermittent_users(params, connect_prob=0.5):
    """``params`` with every user on the grid with probability ``connect_prob``."""
    user_energy = dataclasses.replace(
        params.user_energy, grid_connect_prob=connect_prob
    )
    return dataclasses.replace(params, user_energy=user_energy)


def _dynamic_spectrum(params):
    spectrum = dataclasses.replace(params.spectrum, dynamic_availability=True)
    return dataclasses.replace(params, spectrum=spectrum)


def _station_fleet(num_users=120, users_per_bs=6, num_slots=12):
    """The paper scenario grown at constant density, one BS per 6 users.

    With 20 base stations S4 prices the fleet with the vectorized
    bisection residual (more than ``_SCALAR_PRICING_MAX`` stations),
    which no other pin reaches.
    """
    side = 2000.0 * math.sqrt(num_users / 20.0)
    stations = tuple(grid_placement(num_users // users_per_bs, side))
    return paper_scenario(
        num_slots=num_slots,
        num_users=num_users,
        area_side_m=side,
        base_station_positions=stations,
    )


def _radios(params, bs_count, user_count=None):
    user_count = bs_count if user_count is None else user_count
    return dataclasses.replace(
        params,
        bs_node=dataclasses.replace(params.bs_node, num_radios=bs_count),
        user_node=dataclasses.replace(params.user_node, num_radios=user_count),
    )


#: Trajectory-pin scenarios: queue semantics, dynamic spectrum, mobility,
#: multi-session, paper-literal S1, one-hop, TOU pricing, multi-radio,
#: non-uniform energy processes and extra seeds.  ``paper_random_waypoint`` runs mobility at the
#: paper's 20 users, where co-band sets hold more than a few links.
#: ``mixed_radios`` gives the base station three radios and every user
#: one, so single-radio user-user links, which GREEDY cuts to their best
#: band, share a slot with multi-radio links that keep every band.
#: ``energy_processes`` runs solar base stations, wind users and users
#: on the grid half the time, so the renewable and grid streams draw.
TRAJECTORY_SCENARIOS = {
    "tiny_paper": lambda: tiny_scenario(num_slots=8),
    "tiny_packet_accurate": lambda: tiny_scenario(
        num_slots=8, queue_semantics=QueueSemantics.PACKET_ACCURATE
    ),
    "tiny_dynamic_spectrum": lambda: _dynamic_spectrum(tiny_scenario(num_slots=8)),
    "tiny_random_waypoint": lambda: tiny_scenario(
        num_slots=8, mobility=MobilityKind.RANDOM_WAYPOINT
    ),
    "small_multi_session": lambda: small_scenario(num_slots=10),
    "energy_blind_s1": lambda: small_scenario(
        num_slots=10, energy_aware_scheduling=False
    ),
    "one_hop": lambda: small_scenario(num_slots=10, multi_hop_enabled=False),
    "tou_pricing": lambda: tiny_scenario(
        num_slots=8, tou_multipliers=(0.5, 0.5, 2.0, 2.0)
    ),
    "three_radios": lambda: _radios(tiny_scenario(num_slots=8), 3),
    "mixed_radios": lambda: _radios(tiny_scenario(num_slots=8), 3, 1),
    "energy_processes": lambda: _intermittent_users(
        tiny_scenario(
            num_slots=8,
            bs_renewable_kind=RenewableKind.SOLAR,
            user_renewable_kind=RenewableKind.WIND,
        )
    ),
    "seed_11": lambda: small_scenario(num_slots=10, seed=11),
    "seed_29": lambda: tiny_scenario(num_slots=8, seed=29, num_users=6),
    "paper_random_waypoint": lambda: paper_scenario(
        num_slots=10, mobility=MobilityKind.RANDOM_WAYPOINT
    ),
}

#: Scenarios that also pin the relaxed-LP controller (Theorem 5).
RELAXED_SCENARIOS = (
    "tiny_paper",
    "tiny_dynamic_spectrum",
    "tiny_random_waypoint",
    "three_radios",
    "tou_pricing",
    "small_multi_session",
)

#: ``"scenario/SCHEDULER"`` -> (scenario name, scheduler kind); the
#: ``"scenario/RELAXED"`` cases carry kind None (the relaxed LP).
TRAJECTORY_CASES = {
    f"{name}/{kind.name}": (name, kind)
    for name in TRAJECTORY_SCENARIOS
    for kind in (SchedulerKind.SEQUENTIAL_FIX, SchedulerKind.GREEDY)
}
TRAJECTORY_CASES.update(
    {
        f"tiny_paper/{kind.name}": ("tiny_paper", kind)
        for kind in (
            SchedulerKind.SEQUENTIAL_FIX_SINR,
            SchedulerKind.MAX_WEIGHT_MATCHING,
        )
    }
)
TRAJECTORY_CASES.update(
    {f"{name}/RELAXED": (name, None) for name in RELAXED_SCENARIOS}
)
#: Fleet-scale scenarios, pinned under GREEDY only: the S1 selector of
#: the fleet-scale benchmark workloads.  ``dark_fleet`` is the same
#: fleet with renewables off: curtailment sheds several entries per slot
#: and clamps every user, where ``station_fleet`` sheds one in 12 slots.
GREEDY_SCENARIOS = {
    "station_fleet": _station_fleet,
    "dark_fleet": lambda: dataclasses.replace(
        _station_fleet(), renewables_enabled=False
    ),
}
TRAJECTORY_CASES.update(
    {f"{name}/GREEDY": (name, SchedulerKind.GREEDY) for name in GREEDY_SCENARIOS}
)

TRAJECTORY_PINS = Path(__file__).parent / "golden" / "trajectories.json"


def trajectory_hash(case):
    """The SHA-256 trajectory fingerprint of one pinned case."""
    name, kind = TRAJECTORY_CASES[case]
    scenario = TRAJECTORY_SCENARIOS.get(name) or GREEDY_SCENARIOS[name]
    return trajectory_sha256(scenario(), kind)


class TestGoldenTrajectories:
    """Decision + state fingerprints, bit for bit, per pinned case."""

    @pytest.fixture(scope="class")
    def pins(self):
        return json.loads(TRAJECTORY_PINS.read_text())["cases"]

    def test_every_case_pinned(self, pins):
        assert sorted(pins) == sorted(TRAJECTORY_CASES)

    @pytest.mark.parametrize("case", sorted(TRAJECTORY_CASES))
    def test_trajectory_unchanged(self, pins, case):
        assert trajectory_hash(case) == pins[case]


#: SHA-256 of ``observe(t)``'s renewable and grid vectors over the 12
#: slots of :func:`_observation_digest`.
GOLDEN_OBSERVATION_SHA256 = (
    "4341f58d048285da07384d5d9221e933e439f5cd0f3c3137e7398fde4e852a7e"
)

#: Scripted grid outages ``{node: [(start, end), ...]}`` of the
#: observation pin: the base station and one intermittent user.
OBSERVATION_OUTAGES = {0: [(3, 6)], 2: [(1, 4), (8, 10)]}


def _schedule_outages(state, outages):
    """Disconnect each node of ``outages`` in its half-open windows."""
    for node, windows in outages.items():
        for start, end in windows:
            state.schedule_grid_outage([node], start, end)


def _observation_digest():
    """SHA-256 of 12 observed slots of ``tiny_scenario`` with outages.

    Users are on the grid half the time, so their grid streams draw
    outside their outage windows and skip the draw inside them.
    """
    simulator = SlotSimulator.integral(_intermittent_users(tiny_scenario(num_slots=12)))
    state = simulator.state
    _schedule_outages(state, OBSERVATION_OUTAGES)
    digest = hashlib.sha256()
    for slot in range(12):
        observation = state.observe(slot)
        digest.update(canonical(observation.renewable_j.tolist()).encode())
        digest.update(canonical(observation.grid_connected.tolist()).encode())
    return digest.hexdigest()


class TestGoldenObservations:
    """The renewable and grid sample paths, outages included."""

    def test_observation_stream_unchanged(self):
        assert _observation_digest() == GOLDEN_OBSERVATION_SHA256


if __name__ == "__main__" and sys.argv[1:] == ["--write-trajectories"]:
    TRAJECTORY_PINS.parent.mkdir(exist_ok=True)
    cases = {case: trajectory_hash(case) for case in sorted(TRAJECTORY_CASES)}
    TRAJECTORY_PINS.write_text(
        json.dumps({"schema": "trajectory-sha256/v1", "cases": cases}, indent=2)
        + "\n"
    )
