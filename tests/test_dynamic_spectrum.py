"""Tests for dynamic spectrum availability (Markov primary users)."""

import dataclasses

import numpy as np
import pytest

from repro.config import tiny_scenario
from repro.exceptions import SpectrumError
from repro.network.spectrum import MarkovBandAvailability
from repro.sim import SlotSimulator


def _dynamic_params(**kwargs):
    params = tiny_scenario(**kwargs)
    return dataclasses.replace(
        params,
        spectrum=dataclasses.replace(
            params.spectrum,
            dynamic_availability=True,
            availability_on_prob=0.5,
            availability_persistence=0.8,
        ),
    )


class TestMarkovBandAvailability:
    @pytest.fixture
    def chain(self, rng):
        return MarkovBandAvailability(
            users=[2, 3], random_bands=[1, 2], rng=rng,
            on_prob=0.5, persistence=0.8,
        )

    def test_initial_states_exist(self, chain):
        for user in (2, 3):
            for band in (1, 2):
                assert chain.blocked(user, band) in (True, False)

    def test_untracked_pairs_never_blocked(self, chain):
        assert not chain.blocked(99, 1)  # base stations / unknown nodes
        assert not chain.blocked(2, 0)  # the cellular band

    def test_advance_is_monotone(self, chain):
        chain.advance_to(5)
        with pytest.raises(SpectrumError, match="rewind"):
            chain.advance_to(3)

    def test_advance_idempotent_per_slot(self, chain):
        chain.advance_to(4)
        before = {(u, b): chain.blocked(u, b) for u in (2, 3) for b in (1, 2)}
        chain.advance_to(4)
        after = {(u, b): chain.blocked(u, b) for u in (2, 3) for b in (1, 2)}
        assert before == after

    def test_states_change_over_time(self, rng):
        chain = MarkovBandAvailability(
            users=[0], random_bands=[1], rng=rng,
            on_prob=0.5, persistence=0.5,
        )
        seen = set()
        for slot in range(1, 200):
            chain.advance_to(slot)
            seen.add(chain.blocked(0, 1))
        assert seen == {True, False}

    def test_long_run_on_fraction(self, rng):
        chain = MarkovBandAvailability(
            users=[0], random_bands=[1], rng=rng,
            on_prob=0.7, persistence=0.0,  # i.i.d. resample each slot
        )
        on = 0
        for slot in range(1, 3000):
            chain.advance_to(slot)
            on += not chain.blocked(0, 1)
        assert on / 3000 == pytest.approx(0.7, abs=0.05)

    def test_mask_filters_blocked_bands(self, chain):
        access = np.ones((100, 3), dtype=bool)  # rows are node ids
        masked = chain.mask(access)
        assert masked[2, 0]  # cellular band untouched
        assert masked[99].tolist() == access[99].tolist()  # untracked node
        for band in (1, 2):
            assert masked[2, band] == (not chain.blocked(2, band))
        assert access.all()  # the static table is not modified

    def test_invalid_probabilities(self, rng):
        with pytest.raises(SpectrumError):
            MarkovBandAvailability([0], [1], rng, on_prob=2.0)
        with pytest.raises(SpectrumError):
            MarkovBandAvailability([0], [1], rng, persistence=-0.1)


class TestDynamicAvailabilitySimulation:
    def test_observation_carries_access(self):
        simulator = SlotSimulator.integral(_dynamic_params(num_slots=5))
        observation = simulator.state.observe(0)
        assert observation.band_access is not None
        for bs in simulator.model.bs_ids:
            # Base stations are never blocked.
            assert set(np.flatnonzero(observation.band_access[bs]).tolist()) == (
                simulator.model.spectrum.accessible_bands(bs)
            )

    def test_static_observation_has_none(self):
        simulator = SlotSimulator.integral(tiny_scenario(num_slots=3))
        assert simulator.state.observe(0).band_access is None

    def test_run_completes_and_serves_demand(self):
        params = _dynamic_params(num_slots=20)
        simulator = SlotSimulator.integral(params)
        result = simulator.run()
        demand = sum(s.demand_packets for s in simulator.model.sessions)
        # The cellular band is never blocked, so forced deliveries
        # always find capacity.
        assert np.all(result.metrics.series("delivered_pkts") == demand)

    def test_scheduled_bands_respect_blocks(self):
        params = _dynamic_params(num_slots=15)
        simulator = SlotSimulator.integral(params)
        for slot in range(15):
            observation = simulator.state.observe(slot)
            decision = simulator.controller.decide(observation, simulator.state)
            for t in decision.schedule.transmissions:
                assert observation.band_access[t.tx, t.band]
                assert observation.band_access[t.rx, t.band]
            simulator.state.apply(decision)

    def test_relaxed_controller_respects_blocks(self):
        params = _dynamic_params(num_slots=5)
        simulator = SlotSimulator.relaxed(params)
        observation = simulator.state.observe(0)
        decision = simulator.controller.decide(observation, simulator.state)
        assert decision is not None  # LP built without blocked bands
