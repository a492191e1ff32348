"""Regression tests for the unit vocabulary and the converter audit.

Every inline ``power * slot_seconds`` goes through
``constants.watts_over_slot_to_joules``; these tests pin the numerical
behaviour of those paths so the rewiring (and any future refactor of
it) stays value-identical.
"""

from __future__ import annotations

from typing import get_args

import numpy as np
import pytest

import repro.units as units_module
from repro import constants
from repro.config.parameters import NodeParameters, SessionParameters
from repro.energy.consumption import all_node_demands_array
from repro.energy.renewable import (
    DiurnalSolarProcess,
    MarkovWindProcess,
    UniformRenewableProcess,
)
from repro.types import Transmission
from repro.units import Joules, Unit


def _alias_units():
    """Alias name -> its Unit, for every unit alias of repro.units."""
    found = {}
    for name, value in vars(units_module).items():
        args = get_args(value)
        if len(args) == 2 and isinstance(args[1], Unit):
            found[name] = args[1]
    return found


ALIAS_UNITS = _alias_units()


class TestVocabulary:
    def test_aliases_are_plain_floats_at_runtime(self):
        # Annotated[float, Unit(...)] must cost nothing at runtime.
        for name, unit in ALIAS_UNITS.items():
            alias = getattr(units_module, name)
            base, meta = get_args(alias)
            assert base is float
            assert meta == unit

    def test_symbols_are_unique_and_indexed(self):
        assert len(ALIAS_UNITS) == 15
        symbols = [unit.symbol for unit in ALIAS_UNITS.values()]
        assert len(symbols) == len(set(symbols))

    def test_units_are_hashable_value_objects(self):
        assert Unit("J", "energy") == Unit("J", "energy")
        assert len({Unit("J", "energy"), Unit("J", "energy")}) == 1

    def test_rates_declare_their_period(self):
        assert ALIAS_UNITS["BitsPerSlot"].per == "slot"
        assert ALIAS_UNITS["Kbps"].per == "s"
        assert ALIAS_UNITS["BitsPerSecond"].per == "s"
        assert ALIAS_UNITS["Joules"].per is None


class TestConverterPaths:
    """The audited call sites produce the exact pre-refactor values."""

    def test_fixed_energy_routed_through_converter(self):
        node = NodeParameters(
            max_tx_power_w=2.0,
            recv_power_w=0.1,
            const_power_w=0.3,
            idle_power_w=0.2,
        )
        assert node.fixed_energy_j(60.0) == pytest.approx((0.3 + 0.2) * 60.0)
        assert node.fixed_energy_j(60.0) == constants.watts_over_slot_to_joules(
            0.5, 60.0
        )

    def test_transmission_energy_routed_through_converter(self):
        schedule = [
            Transmission(tx=0, rx=1, band=0, power_w=1.5),
            Transmission(tx=2, rx=0, band=1, power_w=0.8),
        ]
        # Node 0 transmits 1.5 W for one 60 s slot and receives once;
        # with no fixed energy its demand is its E_TX alone.
        energy: Joules = all_node_demands_array(
            np.zeros(3),
            np.full(3, 0.1),
            np.array([t.tx for t in schedule]),
            np.array([t.rx for t in schedule]),
            np.array([t.power_w for t in schedule]),
            slot_seconds=60.0,
        )[0]
        assert energy == pytest.approx(1.5 * 60.0 + 0.1 * 60.0)

    def test_renewable_max_output_routed_through_converter(self):
        rng = np.random.default_rng(0)
        uniform = UniformRenewableProcess(15.0, 60.0, rng)
        solar = DiurnalSolarProcess(15.0, 60.0, rng)
        wind = MarkovWindProcess(15.0, 60.0, rng)
        for process in (uniform, solar, wind):
            assert process.max_output_j == pytest.approx(900.0)
        for slot in range(50):
            assert 0.0 <= uniform.sample(slot) <= uniform.max_output_j

    def test_demand_conversion_pinned(self):
        session = SessionParameters()  # paper defaults: 100 Kbps, 64 kbit
        # 100 kbit/s * 60 s / 64000 bit = 93.75 -> 94 whole packets.
        assert constants.kbps_to_bits_per_slot(100.0, 60.0) == 6_000_000.0
        assert session.demand_packets_per_slot(60.0) == 94
        assert session.k_max(60.0) == 188

    def test_energy_scale_converters_consistent(self):
        assert constants.kwh_to_joules(1.0) == 3_600_000.0
        assert constants.wh_to_joules(1.0) == 3_600.0
