"""Unit tests for repro.constants conversion helpers."""

import pytest

from repro import constants


class TestUnitConversions:
    def test_kwh_to_joules(self):
        assert constants.kwh_to_joules(1.0) == pytest.approx(3.6e6)

    def test_wh_to_joules(self):
        assert constants.wh_to_joules(1.0) == pytest.approx(3600.0)

    def test_zero_maps_to_zero(self):
        assert constants.kwh_to_joules(0.0) == 0.0

    def test_watts_over_slot(self):
        # 10 W over a one-minute slot is 600 J.
        assert constants.watts_over_slot_to_joules(10.0, 60.0) == pytest.approx(600.0)

    def test_kbps_to_bits_per_slot(self):
        # 100 kbps over 60 s is 6 Mbit.
        assert constants.kbps_to_bits_per_slot(100.0, 60.0) == pytest.approx(6e6)

    def test_paper_defaults_are_positive(self):
        assert constants.PAPER_NOISE_DENSITY_W_PER_HZ > 0
        assert constants.PAPER_PROPAGATION_CONSTANT > 0
        assert constants.PAPER_PATH_LOSS_EXPONENT > 0
        assert constants.PAPER_SINR_THRESHOLD > 0

    def test_consistency_of_energy_units(self):
        assert constants.JOULES_PER_KWH == pytest.approx(
            constants.JOULES_PER_WH * 1000.0
        )
        assert constants.JOULES_PER_WH == pytest.approx(
            constants.SECONDS_PER_HOUR
        )
