"""End-to-end integration tests: full runs with invariant auditing.

These drive the complete stack — model, controller, state, metrics —
for tens of slots and audit the paper's constraints on *every* slot,
plus cross-cutting behaviours (semantics modes, scheduler ablations,
relaxed-vs-integral dominance) that unit tests cannot see.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import small_scenario, tiny_scenario
from repro.control.router import RouterMode
from repro.queueing.stability import StabilityVerdict, assess_strong_stability
from repro.sim import SlotSimulator
from repro.types import QueueSemantics, SchedulerKind


class AuditingSimulator:
    """Wraps a simulator and audits constraints after every slot."""

    def __init__(self, params):
        self.simulator = SlotSimulator.integral(params)
        self.violations = []

    def run(self, num_slots):
        simulator = self.simulator
        model = simulator.model
        for slot in range(num_slots):
            observation = simulator.state.observe(slot)
            decision = simulator.controller.decide(observation, simulator.state)

            # Constraint (22): single radio per node.
            busy = []
            for t in decision.schedule.transmissions:
                busy.extend((t.tx, t.rx))
            if len(busy) != len(set(busy)):
                self.violations.append((slot, "single-radio"))

            # Constraint (14): per-node grid cap and connectivity.
            alloc = decision.energy.allocation
            draw = alloc.grid_draw_j
            for node in range(len(alloc)):
                cap = simulator.state.arrays.grid_cap_j[node]
                if draw[node] > cap * (1 + 1e-9):
                    self.violations.append((slot, f"grid-cap node {node}"))
                if draw[node] > 0 and not observation.grid_connected[node]:
                    self.violations.append((slot, f"grid-disconnected node {node}"))

            # Constraint (9): complementarity.
            overlap = np.minimum(alloc.charge_j, alloc.discharge_j)
            for node in np.flatnonzero(overlap > 1e-6):
                self.violations.append((slot, f"complementarity node {node}"))

            # Constraints (16)/(17): flow endpoints.
            destinations = model.destination_rows
            for (tx, rx, sid), rate in decision.routing.rates.items():
                if rate <= 0:
                    continue
                if tx == destinations[sid]:
                    self.violations.append((slot, "flow-out-of-destination"))
                if (
                    rx == decision.admission.sources[sid]
                    and rx != destinations[sid]
                ):
                    self.violations.append((slot, "flow-into-source"))

            simulator.state.apply(decision)

            # Battery bounds after the update (10).
            for node in range(model.num_nodes):
                level = simulator.state.arrays.battery_level[node]
                capacity = simulator.state.arrays.capacity_j[node]
                if not -1e-9 <= level <= capacity + 1e-9:
                    self.violations.append((slot, f"battery-bounds node {node}"))
        return self.violations


class TestConstraintAudit:
    def test_no_violations_tiny(self):
        audit = AuditingSimulator(tiny_scenario(num_slots=30))
        assert audit.run(30) == []

    def test_no_violations_small(self):
        audit = AuditingSimulator(small_scenario(num_slots=20))
        assert audit.run(20) == []

    def test_no_violations_disconnected_users(self):
        params = tiny_scenario(num_slots=25)
        starved = dataclasses.replace(
            params.user_energy, grid_connect_prob=0.3
        )
        audit = AuditingSimulator(dataclasses.replace(params, user_energy=starved))
        assert audit.run(25) == []


class TestSemanticsModes:
    def test_packet_accurate_delivers_no_phantoms(self):
        params = dataclasses.replace(
            tiny_scenario(num_slots=40),
            queue_semantics=QueueSemantics.PACKET_ACCURATE,
        )
        simulator = SlotSimulator.integral(params)
        result = simulator.run()
        # In packet-accurate mode, total real packets in the network
        # never exceed admitted minus delivered-capacity floor.
        admitted = result.metrics.series("admitted_pkts").sum()
        final_backlog = result.backlog_series("bs_data_packets")[-1] + (
            result.backlog_series("user_data_packets")[-1]
        )
        assert final_backlog <= admitted + 1e-6

    @pytest.mark.parametrize("num_slots", [8, 40])
    def test_packet_accurate_conserves_packets(self, num_slots):
        # Every admitted packet is either still queued or was delivered:
        # deliveries are scaled by the same pre-apply backlog as the
        # Eq. 15 transfer, so nothing is created or lost in transit.
        params = dataclasses.replace(
            tiny_scenario(num_slots=num_slots),
            queue_semantics=QueueSemantics.PACKET_ACCURATE,
        )
        result = SlotSimulator.integral(params).run()
        admitted = result.metrics.series("admitted_pkts").sum()
        delivered = result.metrics.series("delivered_pkts").sum()
        final_backlog = result.backlog_series("bs_data_packets")[-1] + (
            result.backlog_series("user_data_packets")[-1]
        )
        assert admitted - final_backlog - delivered == pytest.approx(
            0.0, abs=1e-9 * admitted
        )

    def test_paper_mode_can_exceed_admissions(self):
        params = tiny_scenario(num_slots=40)
        assert params.queue_semantics is QueueSemantics.PAPER
        result = SlotSimulator.integral(params).run()
        admitted = result.metrics.series("admitted_pkts").sum()
        total_backlog = (
            result.backlog_series("bs_data_packets")
            + result.backlog_series("user_data_packets")
        ).max()
        # Null-packet credits typically inflate the backlog above the
        # true admitted count; at minimum the run must finish.
        assert total_backlog >= 0
        assert admitted > 0


class TestSchedulerAblation:
    @pytest.mark.parametrize(
        "kind", [SchedulerKind.MAX_WEIGHT_MATCHING, SchedulerKind.GREEDY]
    )
    def test_alternative_schedulers_serve_demand(self, kind):
        params = tiny_scenario(num_slots=30)
        simulator = SlotSimulator.integral(params, scheduler_kind=kind)
        result = simulator.run()
        demand = sum(s.demand_packets for s in simulator.model.sessions)
        assert result.metrics.series("delivered_pkts").mean() == pytest.approx(
            demand
        )

    def test_scheduled_capacity_router_starves_multi_hop(self):
        """The paper-literal Eq.-25 cap deadlocks upstream links
        (DESIGN.md): virtual queues only grow on forced last-hop links,
        so data queues at sources grow without service."""
        params = tiny_scenario(num_slots=40)
        literal = SlotSimulator.integral(
            params, router_mode=RouterMode.SCHEDULED_CAPACITY
        )
        result = literal.run()
        # Sources keep admitting (their queue drains only via null
        # packets on forced links) — BS backlog verdict must not be
        # "stable at a low level with service everywhere".
        # Forced deliveries still happen (destination in-links).
        assert result.metrics.series("delivered_pkts").min() > 0

    def test_potential_capacity_keeps_queues_stable(self):
        params = tiny_scenario(num_slots=80, control_v=1e4)
        result = SlotSimulator.integral(params).run()
        report = assess_strong_stability(
            result.backlog_series("bs_data_packets")
        )
        assert report.verdict is not StabilityVerdict.UNSTABLE


class TestStrongStabilityTheorem3:
    """Empirical witnesses for Theorem 3 on a longer horizon."""

    @pytest.fixture(scope="class")
    def long_run(self):
        return SlotSimulator.integral(
            tiny_scenario(num_slots=150, control_v=1e4)
        ).run()

    def test_bs_data_queues(self, long_run):
        report = assess_strong_stability(long_run.backlog_series("bs_data_packets"))
        assert report.verdict is not StabilityVerdict.UNSTABLE

    def test_user_data_queues(self, long_run):
        report = assess_strong_stability(long_run.backlog_series("user_data_packets"))
        assert report.verdict is not StabilityVerdict.UNSTABLE

    def test_virtual_queues(self, long_run):
        report = assess_strong_stability(long_run.backlog_series("virtual_packets"))
        assert report.verdict is not StabilityVerdict.UNSTABLE

    def test_energy_queues_bounded_by_capacity(self, long_run):
        # Battery "queues" are bounded by construction; verify.
        assert long_run.backlog_series("bs_energy_j").max() < np.inf
        assert np.all(long_run.backlog_series("user_energy_j") >= 0)


class TestRelaxedDominance:
    def test_relaxed_penalty_below_integral_long_run(self):
        params = tiny_scenario(num_slots=50)
        integral = SlotSimulator.integral(params).run()
        relaxed = SlotSimulator.relaxed(params).run()
        assert relaxed.average_penalty <= integral.average_penalty * 1.05 + 1.0

    def test_relaxed_marks_no_complementarity(self):
        params = tiny_scenario(num_slots=10)
        simulator = SlotSimulator.relaxed(params)
        result = simulator.run()  # must not raise EnergyError
        assert result.num_slots == 10


class TestOverloadNegativeControl:
    """When demand exceeds the capacity region, Theorem 3's premise
    fails.  Note where the failure shows: the data queues stay bounded
    (admission control and Eq. 18's forced null-packet deliveries see
    to that), but the *virtual* link queues — whose service is the
    physically realisable capacity — must grow without bound, and in
    packet-accurate mode the delivered traffic falls short of demand.
    """

    @staticmethod
    def _overload_params(**kwargs):
        sessions = dataclasses.replace(
            tiny_scenario().sessions,
            demand_kbps=20000.0,  # 200x the paper's rate
        )
        return dataclasses.replace(
            tiny_scenario(num_slots=80, control_v=1e6, **kwargs),
            sessions=sessions,
        )

    def test_virtual_queues_blow_up(self):
        result = SlotSimulator.integral(self._overload_params()).run()
        report = assess_strong_stability(
            result.backlog_series("virtual_packets")
        )
        assert report.verdict is not StabilityVerdict.STABLE

    def test_packet_accurate_mode_misses_demand(self):
        params = dataclasses.replace(
            self._overload_params(),
            queue_semantics=QueueSemantics.PACKET_ACCURATE,
        )
        simulator = SlotSimulator.integral(params)
        result = simulator.run()
        demands = {
            s.session_id: float(s.demand_packets)
            for s in simulator.model.sessions
        }
        satisfaction = result.session_satisfaction(demands)
        # Real (non-phantom) delivery cannot exceed link capacity,
        # which is ~10% of the absurd demand.
        assert all(ratio < 0.5 for ratio in satisfaction.values())

    def test_paper_demand_is_inside_capacity_region(self):
        result = SlotSimulator.integral(
            tiny_scenario(num_slots=80, control_v=1e4)
        ).run()
        total = (
            result.backlog_series("bs_data_packets")
            + result.backlog_series("user_data_packets")
        )
        report = assess_strong_stability(total)
        assert report.verdict is not StabilityVerdict.UNSTABLE
