"""Unit tests for the Lyapunov core: constants, drift terms, bounds."""

import dataclasses

import numpy as np
import pytest

from repro.control import DriftPlusPenaltyController
from repro.core import (
    RelaxedLpController,
    compute_constants,
    lower_bound_cost,
    lyapunov_value,
)
from repro.core.drift import compute_drift_terms
from tests import drift_reference
from tests.helpers import link_tuples


def _drift_terms(model, constants, decision, q, h, z):
    """:func:`compute_drift_terms`, checked bit for bit against the
    dict-keyed oracle in ``tests/drift_reference.py``."""
    terms = compute_drift_terms(model, constants, decision, q, h, z)
    expected = drift_reference.compute_drift_terms(
        model, constants, decision, q, h, z
    )
    assert [float(v).hex() for v in dataclasses.astuple(terms)] == [
        float(v).hex() for v in dataclasses.astuple(expected)
    ]
    return terms


def _scalar_drift_b(model):
    """Eq. 34's ``B`` by the per-link and per-node loops (single-band caps)."""
    from repro.phy.capacity import max_link_capacity_bps

    params = model.params
    member = model.link_band_member
    caps = {}
    for p, link in enumerate(link_tuples(model.topology)):
        best = max(
            (
                max_link_capacity_bps(
                    model.spectrum.bands[m].max_bandwidth_hz, params.sinr_threshold
                )
                for m in np.flatnonzero(member[p])
            ),
            default=0.0,
        )
        caps[link] = best * params.slot_seconds / params.sessions.packet_size_bits
    beta = max(caps.values())
    k_max = params.sessions.k_max(params.slot_seconds)
    out_cap = [0.0] * model.num_nodes
    in_cap = [0.0] * model.num_nodes
    for (tx, rx), cap in caps.items():
        out_cap[tx] = max(out_cap[tx], cap)
        in_cap[rx] = max(in_cap[rx], cap)
    data_term = 0.0
    for node in range(model.num_nodes):
        is_bs = node < params.num_base_stations  # stations hold the low ids
        radios = (params.bs_node if is_bs else params.user_node).num_radios
        admission = float(k_max) if node in model.bs_ids else 0.0
        for _session in model.sessions:
            data_term += 0.5 * (
                (radios * out_cap[node]) ** 2
                + (radios * in_cap[node] + admission) ** 2
            )
    virtual_term = sum((beta * cap) ** 2 for cap in caps.values())
    energy_term = 0.0
    for node in range(model.num_nodes):
        is_bs = node < params.num_base_stations
        energy = params.bs_energy if is_bs else params.user_energy
        energy_term += 0.5 * max(energy.charge_cap_j, energy.discharge_cap_j) ** 2
    return data_term + virtual_term + energy_term


class TestLyapunovConstants:
    def test_beta_is_max_link_capacity(self, tiny_model, tiny_constants):
        caps = tiny_constants.link_capacity_pkts
        assert caps.shape == (len(tiny_model.topology.candidate_links),)
        assert tiny_constants.beta == pytest.approx(caps.max())

    def test_link_capacities_positive(self, tiny_constants):
        assert np.all(tiny_constants.link_capacity_pkts > 0)

    def test_gamma_max_is_derivative_at_cap(self, tiny_model, tiny_constants):
        expected = tiny_model.cost.derivative(tiny_model.total_grid_cap_j())
        assert tiny_constants.gamma_max == pytest.approx(expected)

    def test_b_is_positive_and_finite(self, tiny_constants):
        assert tiny_constants.drift_b > 0
        assert np.isfinite(tiny_constants.drift_b)

    def test_b_grows_with_admission_cap(self):
        import dataclasses

        from repro.config import tiny_scenario
        from repro.model import build_network_model

        base_params = tiny_scenario()
        bigger_sessions = dataclasses.replace(
            base_params.sessions, admission_max_packets=10_000
        )
        params = dataclasses.replace(base_params, sessions=bigger_sessions)
        # Identical placement rng: only K_max differs between models.
        base = build_network_model(base_params, np.random.default_rng(0))
        bigger = build_network_model(params, np.random.default_rng(0))
        assert compute_constants(bigger).drift_b > compute_constants(base).drift_b

    def test_max_service_pkts(self, tiny_model, tiny_constants):
        links = link_tuples(tiny_model.topology)
        link_tx = tiny_model.topology.link_tx
        caps = tiny_constants.link_capacity_pkts
        node = links[0][0]
        expected = max(cap for (tx, _), cap in zip(links, caps) if tx == node)
        assert tiny_constants.max_service_pkts(node, link_tx) == expected

    @pytest.mark.parametrize(
        "factory, radios",
        [("tiny_scenario", None), ("small_scenario", None), ("tiny_scenario", (3, 1))],
        ids=["tiny", "small", "tiny_mixed_radios"],
    )
    def test_b_matches_scalar_loop(self, factory, radios):
        # With one radio at an endpoint of every link (one base station
        # with 3 radios, users with 1), the array computation reproduces
        # the per-link / per-node loops bit for bit.
        import dataclasses

        import repro.config as config
        from repro.model import build_network_model

        params = getattr(config, factory)()
        if radios is not None:
            params = dataclasses.replace(
                params,
                bs_node=dataclasses.replace(params.bs_node, num_radios=radios[0]),
                user_node=dataclasses.replace(params.user_node, num_radios=radios[1]),
            )
        model = build_network_model(params, np.random.default_rng(params.seed))
        constants = compute_constants(model)
        assert constants.drift_b == _scalar_drift_b(model)

    def test_b_matches_scalar_loop_with_uneven_energy_caps(self):
        # Charge and discharge caps differ within each class and across
        # the classes, so the energy term must take each row's larger cap
        # from its own class.
        import dataclasses

        from repro.config import tiny_scenario
        from repro.model import build_network_model

        params = tiny_scenario(num_users=6)
        params = dataclasses.replace(
            params,
            bs_energy=dataclasses.replace(params.bs_energy, discharge_cap_j=61234.5),
            user_energy=dataclasses.replace(
                params.user_energy, charge_cap_j=17001.25, discharge_cap_j=12345.678
            ),
        )
        model = build_network_model(params, np.random.default_rng(params.seed))
        assert compute_constants(model).drift_b == _scalar_drift_b(model)

    def test_service_bound_is_the_cap_with_one_radio(self, tiny_constants):
        caps = tiny_constants.link_capacity_pkts
        assert tiny_constants.link_service_bound_pkts.tobytes() == caps.tobytes()


class TestLyapunovValue:
    def test_zero_state(self):
        assert lyapunov_value([], [], []) == 0.0

    def test_matches_definition(self):
        value = lyapunov_value([1.0, 2.0], [3.0], [4.0])
        assert value == pytest.approx(0.5 * (1 + 4 + 9 + 16))

    def test_monotone_in_backlog(self):
        low = lyapunov_value([1.0], [1.0], [1.0])
        high = lyapunov_value([2.0], [1.0], [1.0])
        assert high > low


class TestDriftTerms:
    def test_terms_of_a_real_decision(self, tiny_model, tiny_constants, tiny_state):
        controller = DriftPlusPenaltyController(
            tiny_model, tiny_constants, np.random.default_rng(0)
        )
        # Warm up two slots so queues are non-trivial.
        for slot in range(2):
            decision = controller.decide(tiny_state.observe(slot), tiny_state)
            tiny_state.apply(decision)
        observation = tiny_state.observe(2)
        q = tiny_state.arrays.q.copy()
        h = tiny_state.h_backlogs()
        z = tiny_state.arrays.z_values_array()
        decision = controller.decide(observation, tiny_state)
        terms = _drift_terms(tiny_model, tiny_constants, decision, q, h, z)
        # Psi-hat_1 is a negated weighted sum of non-negative services.
        assert terms.psi1 <= 0.0
        assert np.isfinite(terms.total)
        assert terms.total == pytest.approx(
            terms.psi1 + terms.psi2 + terms.psi3 + terms.psi4
        )

    def test_psi2_sign_follows_threshold(self, tiny_model, tiny_constants, tiny_state):
        controller = DriftPlusPenaltyController(
            tiny_model, tiny_constants, np.random.default_rng(0)
        )
        observation = tiny_state.observe(0)
        decision = controller.decide(observation, tiny_state)
        terms = _drift_terms(
            tiny_model,
            tiny_constants,
            decision,
            tiny_state.arrays.q.copy(),
            tiny_state.h_backlogs(),
            tiny_state.arrays.z_values_array(),
        )
        # With empty queues, admission happens below threshold: the
        # Psi-hat_2 contribution (Q - lambda*V)*k is negative.
        assert terms.psi2 < 0.0


class TestBounds:
    def test_lower_bound_formula(self):
        assert lower_bound_cost(100.0, 50.0, 10.0) == pytest.approx(95.0)

    def test_lower_bound_requires_positive_v(self):
        with pytest.raises(ValueError):
            lower_bound_cost(1.0, 1.0, 0.0)

    def test_relaxed_controller_beats_heuristic_per_slot(
        self, tiny_model, tiny_constants, tiny_state
    ):
        """The relaxed LP optimum must dominate the heuristic on the
        drift objective for the *same* queue state."""
        heuristic = DriftPlusPenaltyController(
            tiny_model, tiny_constants, np.random.default_rng(0)
        )
        relaxed = RelaxedLpController(tiny_model, tiny_constants)
        # Advance a few slots with the heuristic to populate queues.
        for slot in range(3):
            decision = heuristic.decide(tiny_state.observe(slot), tiny_state)
            tiny_state.apply(decision)
        observation = tiny_state.observe(3)
        q = tiny_state.arrays.q.copy()
        h = tiny_state.h_backlogs()
        z = tiny_state.arrays.z_values_array()
        heuristic_decision = heuristic.decide(observation, tiny_state)
        relaxed_decision = relaxed.decide(observation, tiny_state)
        from repro.core.drift import battery_drift_quadratic_term

        heuristic_terms = _drift_terms(
            tiny_model, tiny_constants, heuristic_decision, q, h, z
        )
        relaxed_terms = _drift_terms(
            tiny_model, tiny_constants, relaxed_decision, q, h, z
        )
        # Both controllers minimise the exact-drift objective (paper
        # Psi-hats plus the quadratic battery term).
        heuristic_total = heuristic_terms.total + battery_drift_quadratic_term(
            heuristic_decision
        )
        relaxed_total = relaxed_terms.total + battery_drift_quadratic_term(
            relaxed_decision
        )
        scale = max(abs(heuristic_total), 1.0)
        assert relaxed_total <= heuristic_total + 1e-6 * scale

    def test_relaxed_decision_respects_radio_relaxation(
        self, tiny_model, tiny_constants, tiny_state
    ):
        relaxed = RelaxedLpController(tiny_model, tiny_constants)
        # Seed some virtual backlog so the LP wants to schedule.
        tiny_state.arrays.assign_g(10.0)
        decision = relaxed.decide(tiny_state.observe(0), tiny_state)
        # Per-node fractional activity cannot exceed 1: total service
        # on links touching a node is bounded by its best-band service.
        for node in range(tiny_model.num_nodes):
            total = sum(
                service
                for (tx, rx), service in decision.schedule.link_service_pkts.items()
                if node in (tx, rx)
            )
            assert total <= tiny_constants.beta + 1e-6

    def test_relaxed_energy_respects_caps(
        self, tiny_model, tiny_constants, tiny_state
    ):
        relaxed = RelaxedLpController(tiny_model, tiny_constants)
        observation = tiny_state.observe(0)
        decision = relaxed.decide(observation, tiny_state)
        for node in range(tiny_model.num_nodes):
            alloc = decision.energy.allocation
            arrays = tiny_state.arrays
            assert alloc.charge_j[node] <= arrays.max_charge_j_array()[node] + 1e-6
            max_drain = min(arrays.discharge_cap_j[node], arrays.battery_level[node])
            assert alloc.discharge_j[node] <= max_drain + 1e-6
            assert (
                alloc.renewable_serve_j[node] + alloc.renewable_charge_j[node]
                <= observation.renewable_j[node] + 1e-6
            )
            if not observation.grid_connected[node]:
                assert alloc.grid_draw_j[node] == pytest.approx(0.0, abs=1e-6)

    def test_relaxed_penalty_recorded(self, tiny_model, tiny_constants, tiny_state):
        relaxed = RelaxedLpController(tiny_model, tiny_constants)
        decision = relaxed.decide(tiny_state.observe(0), tiny_state)
        lam = tiny_model.params.admission_lambda
        expected = decision.energy.cost - lam * decision.admission.total_admitted()
        assert relaxed.last_penalty == pytest.approx(expected)

    def test_relaxed_demand_equality(self, tiny_model, tiny_constants, tiny_state):
        relaxed = RelaxedLpController(tiny_model, tiny_constants)
        decision = relaxed.decide(tiny_state.observe(0), tiny_state)
        for session in tiny_model.sessions:
            delivered = sum(
                rate
                for (tx, rx, sid), rate in decision.routing.rates.items()
                if rx == session.destination and sid == session.session_id
            )
            assert delivered == pytest.approx(float(session.demand(0)))
