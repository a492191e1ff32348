"""Tests for the multi-radio extension (constraint-(22) budgets)."""

import dataclasses

import numpy as np
import pytest

from repro.config import small_scenario, tiny_scenario
from repro.control import LinkScheduler
from repro.core import compute_constants
from repro.exceptions import SolverError
from repro.model import build_network_model
from repro.phy.capacity import max_link_capacity_bps
from repro.sim import SlotSimulator
from repro.state import NetworkState
from repro.types import SchedulerKind
from tests.helpers import link_tuples, link_view, out_neighbors


def _multi_radio_params(bs_radios=3, user_radios=1, factory=tiny_scenario, **kwargs):
    params = factory(**kwargs)
    return dataclasses.replace(
        params,
        bs_node=dataclasses.replace(params.bs_node, num_radios=bs_radios),
        user_node=dataclasses.replace(params.user_node, num_radios=user_radios),
    )


@pytest.fixture(scope="module")
def multi_model():
    return build_network_model(
        _multi_radio_params(), np.random.default_rng(0)
    )


@pytest.fixture(scope="module")
def multi_constants(multi_model):
    return compute_constants(multi_model)


@pytest.fixture
def multi_observation(multi_model, multi_constants):
    state = NetworkState(multi_model, multi_constants, np.random.default_rng(1))
    return state.observe(0)


def _audit_budgets(model, decision):
    usage = {}
    band_usage = set()
    for t in decision.transmissions:
        for node in (t.tx, t.rx):
            usage[node] = usage.get(node, 0) + 1
            pair = (node, t.band)
            assert pair not in band_usage, "constraint (20)/(21) violated"
            band_usage.add(pair)
    params = model.params
    radios = model.node_vector(params.bs_node.num_radios, params.user_node.num_radios)
    for node, used in usage.items():
        assert used <= radios[node]


class TestMultiRadioScheduling:
    @pytest.mark.parametrize(
        "kind",
        [
            SchedulerKind.SEQUENTIAL_FIX,
            SchedulerKind.SEQUENTIAL_FIX_SINR,
            SchedulerKind.GREEDY,
        ],
    )
    def test_budgets_respected(self, multi_model, multi_constants, multi_observation, kind):
        scheduler = LinkScheduler(multi_model, multi_constants, kind=kind)
        rng = np.random.default_rng(3)
        h = link_view(
            multi_model,
            {
                link: float(rng.uniform(1, 100))
                for link in link_tuples(multi_model.topology)
            },
        )
        decision = scheduler.schedule(multi_observation, h, np.flatnonzero(h))
        _audit_budgets(multi_model, decision)

    def test_matching_refuses_budgets(self, multi_model, multi_constants, multi_observation):
        scheduler = LinkScheduler(
            multi_model, multi_constants, kind=SchedulerKind.MAX_WEIGHT_MATCHING
        )
        h = link_view(
            multi_model, {link: 5.0 for link in link_tuples(multi_model.topology)}
        )
        with pytest.raises(SolverError, match="single-radio"):
            scheduler.schedule(multi_observation, h, np.flatnonzero(h))

    def test_bs_can_serve_multiple_links(self, multi_model, multi_constants, multi_observation):
        # Load every BS out-link heavily: with 3 radios the base
        # station should carry more than one concurrent transmission.
        scheduler = LinkScheduler(multi_model, multi_constants)
        bs = multi_model.bs_ids[0]
        h = link_view(
            multi_model,
            {(bs, rx): 1000.0 for rx in out_neighbors(multi_model.topology, bs)},
        )
        decision = scheduler.schedule(multi_observation, h, np.flatnonzero(h))
        bs_tx = [t for t in decision.transmissions if t.tx == bs]
        assert len(bs_tx) >= 2
        _audit_budgets(multi_model, decision)

    def test_b_constant_grows_with_radios(self):
        single = build_network_model(tiny_scenario(), np.random.default_rng(0))
        multi = build_network_model(_multi_radio_params(), np.random.default_rng(0))
        assert (
            compute_constants(multi).drift_b > compute_constants(single).drift_b
        )

    def test_full_simulation_runs(self):
        params = _multi_radio_params(num_slots=12)
        result = SlotSimulator.integral(params).run()
        assert result.num_slots == 12
        demand = sum(
            s.demand_packets
            for s in SlotSimulator.integral(params).model.sessions
        )
        assert np.all(result.metrics.series("delivered_pkts") == demand)

    def test_service_matches_surviving_transmissions(self):
        # Curtailment can shed one band of a link still served on
        # another; Eq. 28 must then drain G_ij by the surviving bands'
        # capacity only.
        params = _multi_radio_params(bs_radios=3, user_radios=3, num_slots=30, seed=1)
        sim = SlotSimulator.integral(params)
        packet_bits = params.sessions.packet_size_bits
        curtailed = 0
        for slot in range(params.num_slots):
            observation = sim.state.observe(slot)
            decision = sim.controller.decide(observation, sim.state)
            curtailed += len(decision.curtailed)
            expected = {}
            for t in decision.schedule.transmissions:
                bps = max_link_capacity_bps(
                    observation.bands.bandwidth(t.band), params.sinr_threshold
                )
                expected[t.link] = (
                    expected.get(t.link, 0.0) + bps * params.slot_seconds / packet_bits
                )
            assert dict(decision.schedule.link_service_pkts) == expected, slot
            sim.state.apply(decision)
        assert curtailed > 0, "the scenario must exercise curtailment"

    def test_invalid_radio_count_rejected(self):
        with pytest.raises(ValueError, match="num_radios"):
            dataclasses.replace(
                tiny_scenario().bs_node, num_radios=0
            )


class TestServiceBound:
    """The Eq. 34 virtual term squares a bound on every realised service."""

    @pytest.mark.parametrize("kind", [SchedulerKind.GREEDY, SchedulerKind.SEQUENTIAL_FIX])
    @pytest.mark.parametrize(
        "params",
        [
            _multi_radio_params(3, 3, num_slots=8),
            _multi_radio_params(3, 3, small_scenario, num_slots=10),
        ],
        ids=["tiny", "small"],
    )
    def test_realised_service_within_bound(self, params, kind):
        sim = SlotSimulator.integral(params, scheduler_kind=kind)
        constants = sim.constants
        bound = constants.link_service_bound_pkts
        widest = 0.0
        for slot in range(params.num_slots):
            decision = sim.step(slot)
            pos = decision.schedule.service_pos
            service = decision.schedule.service_pkts
            # The bound adds band capacities in descending order, the
            # service in schedule order: allow the last bit.
            assert np.all(service <= bound[pos] * (1 + 1e-12)), slot
            if pos.size:
                ratio = service / constants.link_capacity_pkts[pos]
                widest = max(widest, float(ratio.max()))
        # Links are served on several bands at once: the best single
        # band's capacity alone does not bound the service.
        assert widest > 2.0
        assert np.all(bound >= constants.link_capacity_pkts)
