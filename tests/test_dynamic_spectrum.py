"""Tests for dynamic spectrum availability (Markov primary users)."""

import dataclasses

import numpy as np
import pytest

from repro.config import tiny_scenario
from repro.exceptions import SpectrumError
from repro.network.spectrum import MarkovBandAvailability
from repro.sim import SlotSimulator
from tests import slot_reference


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


def _on(chain, access):
    """The chains' current on/off cells: ``chain.mask`` of an all-on table."""
    return chain.mask(np.ones_like(access))


class TestMarkovBandAvailability:
    # Users hold rows 2 and 3 of a 5-node network; bands 1 and 2 are random.
    ACCESS = np.ones((5, 3), dtype=bool)

    @pytest.fixture
    def chain(self, rng):
        return MarkovBandAvailability(
            first_user=2, num_users=2, num_bands=3, rng=rng,
            on_prob=0.5, persistence=0.8,
        )

    def test_initial_states_exist(self, chain):
        on = _on(chain, self.ACCESS)
        assert on.shape == self.ACCESS.shape and on.dtype == bool

    def test_untracked_pairs_never_blocked(self, chain):
        for slot in range(1, 30):
            chain.advance_to(slot)
            on = _on(chain, self.ACCESS)
            assert on[:2].all() and on[4].all()  # base stations, untracked rows
            assert on[:, 0].all()  # the cellular band

    def test_advance_is_monotone(self, chain):
        chain.advance_to(5)
        with pytest.raises(SpectrumError, match="rewind"):
            chain.advance_to(3)

    def test_advance_idempotent_per_slot(self, chain):
        chain.advance_to(4)
        before = _on(chain, self.ACCESS)
        chain.advance_to(4)
        assert _on(chain, self.ACCESS).tolist() == before.tolist()

    def test_states_change_over_time(self, rng):
        chain = MarkovBandAvailability(
            first_user=0, num_users=1, num_bands=2, rng=rng,
            on_prob=0.5, persistence=0.5,
        )
        access = np.ones((1, 2), dtype=bool)
        seen = set()
        for slot in range(1, 200):
            chain.advance_to(slot)
            seen.add(bool(_on(chain, access)[0, 1]))
        assert seen == {True, False}

    def test_long_run_on_fraction(self, rng):
        chain = MarkovBandAvailability(
            first_user=0, num_users=1, num_bands=2, rng=rng,
            on_prob=0.7, persistence=0.0,  # i.i.d. resample each slot
        )
        access = np.ones((1, 2), dtype=bool)
        on = 0
        for slot in range(1, 3000):
            chain.advance_to(slot)
            on += bool(_on(chain, access)[0, 1])
        assert on / 3000 == pytest.approx(0.7, abs=0.05)

    def test_mask_filters_blocked_bands(self, chain):
        access = np.ones((100, 3), dtype=bool)  # rows are node ids
        access[3, 2] = False  # a band the user never had stays off
        masked = chain.mask(access)
        on = _on(chain, self.ACCESS)
        assert masked[2, 0]  # cellular band untouched
        assert masked[99].tolist() == access[99].tolist()  # untracked node
        for user in (2, 3):
            for band in (1, 2):
                assert masked[user, band] == (access[user, band] and on[user, band])
        assert access.sum() == access.size - 1  # the static table is not modified

    def test_invalid_probabilities(self, rng):
        with pytest.raises(SpectrumError):
            MarkovBandAvailability(0, 1, 2, rng, on_prob=2.0)
        with pytest.raises(SpectrumError):
            MarkovBandAvailability(0, 1, 2, rng, persistence=-0.1)

    @pytest.mark.parametrize("seed", [0, 1, 2014])
    def test_matches_dict_chains(self, seed):
        """The ``(U, M-1)`` table walks the per-key dict chains bit for bit."""
        table_rng = np.random.default_rng(seed)
        dict_rng = np.random.default_rng(seed)
        chain = MarkovBandAvailability(
            first_user=3, num_users=6, num_bands=5, rng=table_rng,
            on_prob=0.6, persistence=0.7,
        )
        oracle = slot_reference.AvailabilityChains(
            range(3, 9), range(1, 5), dict_rng, on_prob=0.6, persistence=0.7
        )
        access = np.random.default_rng(seed + 1).random((9, 5)) < 0.8
        for slot in range(40):
            if slot:
                chain.advance_to(slot)
                oracle.step()
            assert chain.mask(access).tolist() == oracle.mask(access).tolist(), slot
        assert table_rng.bit_generator.state == dict_rng.bit_generator.state


class TestDynamicAvailabilitySimulation:
    def test_observation_carries_access(self):
        simulator = SlotSimulator.integral(_dynamic_params(num_slots=5))
        observation = simulator.state.observe(0)
        assert observation.band_access is not None
        for bs in simulator.model.bs_ids:
            # Base stations are never blocked.
            assert observation.band_access[bs].tolist() == (
                simulator.model.band_access[bs].tolist()
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
