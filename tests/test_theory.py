"""Tests for the closed-form theory predictions and their empirical
verification — the quantitative heart of the reproduction."""

import numpy as np
import pytest

from repro.config import tiny_scenario
from repro.core import (
    compute_constants,
    fill_time_slots,
    predict,
    verify_bs_plateau,
)
from repro.model import build_network_model
from repro.sim import SlotSimulator


class TestPredictions:
    def test_plateau_formula(self, tiny_model, tiny_constants):
        predictions = predict(tiny_model, tiny_constants)
        v = tiny_model.params.control_v
        for node in range(tiny_model.num_nodes):
            energy = tiny_model.params.energy_params(node)
            expected = min(
                v * tiny_constants.gamma_max + energy.discharge_cap_j,
                energy.battery_capacity_j,
            )
            assert predictions.battery_plateau_j[node] == pytest.approx(expected)

    def test_plateau_clamped_at_capacity(self):
        params = tiny_scenario(control_v=1e12)  # absurd V: threshold >> x_max
        model = build_network_model(params, np.random.default_rng(0))
        constants = compute_constants(model)
        predictions = predict(model, constants)
        for node in range(model.num_nodes):
            assert predictions.battery_plateau_j[node] == pytest.approx(
                params.energy_params(node).battery_capacity_j
            )

    def test_admission_threshold(self, tiny_model, tiny_constants):
        predictions = predict(tiny_model, tiny_constants)
        params = tiny_model.params
        assert predictions.admission_threshold_pkts == pytest.approx(
            params.admission_lambda * params.control_v
        )

    def test_formal_gap_shrinks_with_v(self, tiny_model, tiny_constants):
        import dataclasses

        small_v = predict(tiny_model, tiny_constants).formal_gap
        bigger = dataclasses.replace(tiny_model.params, control_v=10 * tiny_model.params.control_v)
        model2 = build_network_model(bigger, np.random.default_rng(bigger.seed))
        constants2 = compute_constants(model2)
        assert predict(model2, constants2).formal_gap == pytest.approx(small_v / 10)

    def test_fill_time_positive_and_finite(self, tiny_model, tiny_constants):
        slots = fill_time_slots(tiny_model, tiny_constants)
        assert 0 < slots < float("inf")


class TestEmpiricalPlateau:
    """The flagship quantitative check: Fig. 2(d)'s plateau equals
    ``V * gamma_max + d_max`` per base station within a few percent."""

    @pytest.mark.parametrize("control_v", [5e3, 2e4])
    def test_measured_plateau_matches_theory(self, control_v):
        params = tiny_scenario(num_slots=120, control_v=control_v)
        simulator = SlotSimulator.integral(params)
        horizon_needed = fill_time_slots(simulator.model, simulator.constants)
        assert horizon_needed < 60, "test scenario mis-sized"
        result = simulator.run()
        check = verify_bs_plateau(
            simulator.model, simulator.constants, result
        )
        assert check.relative_error < 0.10, (
            f"plateau {check.measured_j:.3g} J vs predicted "
            f"{check.predicted_j:.3g} J"
        )

    def test_plateau_ordering_in_v(self):
        measured = {}
        for control_v in (5e3, 2e4):
            params = tiny_scenario(num_slots=100, control_v=control_v)
            result = SlotSimulator.integral(params).run()
            measured[control_v] = float(
                result.backlog_series("bs_energy_j")[-20:].mean()
            )
        assert measured[2e4] > measured[5e3]

    def test_verify_rejects_bad_fraction(self, tiny_model, tiny_constants):
        params = tiny_scenario(num_slots=10)
        result = SlotSimulator.integral(params).run()
        with pytest.raises(ValueError):
            verify_bs_plateau(tiny_model, tiny_constants, result, tail_fraction=0.0)


class TestDelayMetric:
    def test_delay_finite_and_positive(self):
        result = SlotSimulator.integral(tiny_scenario(num_slots=30)).run()
        assert 0 < result.average_delay_slots < float("inf")

    def test_delay_in_summary(self):
        result = SlotSimulator.integral(tiny_scenario(num_slots=5)).run()
        assert "average_delay_slots" in result.summary()

    def test_delay_grows_with_v(self):
        # Larger V admits against a higher threshold -> more queueing.
        delays = {}
        for control_v in (1e3, 1e5):
            params = tiny_scenario(num_slots=60, control_v=control_v)
            delays[control_v] = SlotSimulator.integral(params).run().average_delay_slots
        assert delays[1e5] > delays[1e3]
