"""The array state core: trajectory-level equivalences and unit tests.

``NetworkState`` runs the vectorized struct-of-arrays slot loop.  Along
full trajectories — every queue semantics, dynamic spectrum
availability and random-waypoint mobility — its snapshot kernel must
match a plain-Python aggregation bit for bit, contract checking must
leave the run untouched, and the state's read accessors must agree
with the arrays they copy.

The suite also unit-tests the array core itself: :func:`seq_sum`
bit-identity against Python ``sum``, the vectorized battery kernel against the scalar Eq. 4 oracle and its
validation messages, and the one battery-level store that the battery
(Eq. 4) and the shifted queue (Eq. 31) both read.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import small_scenario, tiny_scenario
from repro.core.arraystate import ArrayState, seq_sum
from repro.exceptions import EnergyError
from repro.sim.engine import SlotSimulator
from repro.types import MobilityKind, QueueSemantics
from tests.helpers import (
    battery_law_oracle,
    battery_step,
    canonical,
    make_snapshot_oracle,
    one_battery,
    queue_dict,
)


def _dynamic_spectrum(params):
    spectrum = dataclasses.replace(params.spectrum, dynamic_availability=True)
    return dataclasses.replace(params, spectrum=spectrum)


SCENARIOS = {
    "tiny_paper": tiny_scenario(num_slots=8),
    "tiny_packet_accurate": tiny_scenario(
        num_slots=8, queue_semantics=QueueSemantics.PACKET_ACCURATE
    ),
    "tiny_dynamic_spectrum": _dynamic_spectrum(tiny_scenario(num_slots=8)),
    "tiny_random_waypoint": tiny_scenario(
        num_slots=8, mobility=MobilityKind.RANDOM_WAYPOINT
    ),
    "small_multi_session": small_scenario(num_slots=10),
}


def _run(params, **kwargs):
    simulator = SlotSimulator.integral(params, **kwargs)
    result = simulator.run()
    return simulator, result


class TestTrajectoryEquivalence:
    """Equivalences that must hold along full simulated trajectories.

    The array kernels are checked against independent references on
    the same run: the recorded snapshot stream against the plain-Python
    aggregation of dicts built from the state, a strict-contracts run
    against an unchecked one, and the read accessors against the buffers
    they copy.
    The trajectories themselves are pinned in ``tests/test_golden.py``.
    """

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_snapshot_streams_identical(self, name):
        params = SCENARIOS[name]
        simulator = SlotSimulator.integral(params)
        state = simulator.state
        for slot in range(params.num_slots):
            simulator.step(slot)
            expected = make_snapshot_oracle(
                slot=slot,
                data_backlogs=queue_dict(state.arrays),
                battery_levels=dict(enumerate(state.battery_levels().tolist())),
                virtual_backlogs=dict(enumerate(state.arrays.g.tolist())),
                bs_ids=simulator.model.bs_ids,
            )
            recorded = simulator.metrics.slots[-1].snapshot
            assert canonical(recorded) == canonical(expected), slot

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_cost_and_penalty_series_identical(self, name):
        # Strict contract checking observes the run; it must not
        # perturb a single decision or RNG draw.
        params = SCENARIOS[name]
        _, plain = _run(params)
        _, checked = _run(params, contracts="strict")

        for field in ("cost", "penalty", "grid_draw_j", "admitted_pkts",
                      "delivered_pkts", "deficit_j", "spill_j"):
            plain_series = [getattr(m, field) for m in plain.metrics.slots]
            checked_series = [
                getattr(m, field) for m in checked.metrics.slots
            ]
            assert plain_series == checked_series, field

    def test_final_backlogs_identical(self):
        simulator, _ = _run(tiny_scenario(num_slots=8))
        state = simulator.state
        arrays = state.arrays

        assert queue_dict(arrays) == {
            (node, sid): state.backlog(node, sid)
            for node in range(arrays.num_nodes)
            for sid in arrays.sessions
            if node != arrays.destinations[sid]
        }
        levels = state.battery_levels()
        assert levels.tolist() == arrays.battery_level.tolist()
        assert levels is not arrays.battery_level
        assert state.z_values().tolist() == (
            arrays.battery_level - arrays.z_shift
        ).tolist()
        beta = state.constants.beta
        assert state.h_backlogs().tolist() == [beta * g for g in arrays.g.tolist()]


class TestSeqSum:
    def test_matches_python_sum_bitwise(self):
        rng = np.random.default_rng(11)
        for size in (0, 1, 2, 7, 64, 1001):
            values = rng.normal(scale=1e6, size=size) ** 3
            assert seq_sum(values) == sum(float(v) for v in values)

    def test_two_dimensional_ravel_order(self):
        values = np.arange(12, dtype=float).reshape(3, 4) / 7.0
        assert seq_sum(values) == sum(float(v) for v in values.ravel())

    def test_empty(self):
        assert seq_sum(np.zeros(0)) == 0.0


class TestBatteryKernel:
    """The vectorized kernel matches the scalar Eq. 4 chain bit for bit."""

    @pytest.fixture
    def arrays(self):
        simulator = SlotSimulator.integral(tiny_scenario(num_slots=1))
        return simulator.state.arrays

    def test_matches_scalar_apply(self, arrays: ArrayState):
        n = arrays.num_nodes
        rng = np.random.default_rng(5)
        charge = np.where(
            rng.random(n) < 0.5, rng.random(n) * arrays.charge_cap_j * 0.5, 0.0
        )
        discharge = np.zeros(n)  # start empty: no discharge
        before = arrays.battery_level.copy()
        arrays.apply_battery_actions(charge, discharge)
        for node in range(n):
            expected = battery_law_oracle(
                float(before[node]),
                float(charge[node]),
                float(discharge[node]),
                float(arrays.charge_efficiency[node]),
                float(arrays.capacity_j[node]),
            )
            assert arrays.battery_level[node] == expected

    def test_rejects_simultaneous_charge_discharge(self, arrays: ArrayState):
        charge = np.zeros(arrays.num_nodes)
        discharge = np.zeros(arrays.num_nodes)
        arrays.battery_level[0] = min(1.0, float(arrays.capacity_j[0]))
        charge[0] = 1e-3
        discharge[0] = 1e-3
        with pytest.raises(EnergyError, match=r"constraint \(9\) violated"):
            arrays.apply_battery_actions(charge, discharge)

    def test_rejects_over_charge(self, arrays: ArrayState):
        charge = np.zeros(arrays.num_nodes)
        charge[0] = float(arrays.charge_cap_j[0]) * 2.0 + 1.0
        with pytest.raises(EnergyError, match=r"constraint \(11\) violated"):
            arrays.apply_battery_actions(charge, np.zeros(arrays.num_nodes))

    def test_rejects_over_discharge(self, arrays: ArrayState):
        discharge = np.zeros(arrays.num_nodes)
        discharge[0] = float(arrays.battery_level[0]) + 1.0
        with pytest.raises(EnergyError, match=r"constraint \(12\) violated"):
            arrays.apply_battery_actions(np.zeros(arrays.num_nodes), discharge)

    def test_rejects_negative_actions(self, arrays: ArrayState):
        bad = np.zeros(arrays.num_nodes)
        bad[0] = -1.0
        with pytest.raises(EnergyError, match="negative charge"):
            arrays.apply_battery_actions(bad, np.zeros(arrays.num_nodes))
        with pytest.raises(EnergyError, match="negative discharge"):
            arrays.apply_battery_actions(np.zeros(arrays.num_nodes), bad)


class TestSharedStorage:
    def test_battery_binds_into_shared_buffer(self):
        # The kernel updates the one level buffer in place.
        arrays = one_battery(100.0, 10.0, 10.0, level_j=42.0)
        buffer = arrays.battery_level
        assert battery_step(arrays, charge_j=5.0) == 47.0
        assert arrays.battery_level is buffer
        assert buffer[0] == 47.0

    def test_energy_queue_shares_battery_slot(self):
        arrays = one_battery(
            100.0, 10.0, 5.0, level_j=7.0, control_v=1e3, gamma_max=0.01
        )
        shift = 1e3 * 0.01 + 5.0
        assert arrays.z_shift[0] == shift
        arrays.battery_level[0] = 9.0
        assert arrays.z_values_array()[0] == 9.0 - shift

    def test_simulator_state_shares_levels(self):
        simulator = SlotSimulator.integral(tiny_scenario(num_slots=1))
        state = simulator.state
        arrays = state.arrays
        node = 1
        arrays.battery_level[node] = 3.125
        assert state.battery_levels()[node] == 3.125
        assert state.z_values()[node] == 3.125 - arrays.z_shift[node]
