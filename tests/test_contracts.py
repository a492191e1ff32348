"""Tests for the runtime contract layer (``repro.contracts``).

Strategy: run the real tiny scenario with contracts off, capture a
genuine (pre-state, decision, post-state) triple, then corrupt one
piece at a time and assert the checker raises a
:class:`ContractViolation` carrying the *right* equation tag.  The S4
checks get the same treatment on a genuine energy allocation, one
corrupted vector entry per equation.  A clean
strict end-to-end run and the warn/off behaviours are covered too, as
are the packet-side checks: one corrupted routing entry, admission
split or post-apply ``G`` entry per equation (Eqs. 16, 17, 19, 25, 28),
and the battery side: one corrupted post-apply level or ``z`` shift per
equation (Eqs. 4, 10, 31).
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np
import pytest

from repro.config import tiny_scenario
from repro.contracts import ContractChecker, ContractViolation, Strictness
from repro.contracts.checker import coerce_strictness
from repro.control.decisions import AdmissionDecision
from repro.control.energy_manager import (
    EnergyManager,
    NodeEnergyBatch,
    NodeEnergyInputs,
)
from repro.sim import SlotSimulator
from repro.types import Transmission
from tests.helpers import link_position, schedule_of


def _warm_simulator(slots=5, num_slots=40):
    simulator = SlotSimulator.integral(tiny_scenario(num_slots=num_slots))
    for slot in range(slots):
        simulator.step(slot)
    return simulator


@pytest.fixture
def transition():
    """A genuine (sim, checker, pre, decision, slot) transition triple."""
    simulator = _warm_simulator()
    checker = ContractChecker(Strictness.STRICT)
    slot = 5
    pre = checker.capture(simulator.state)
    decision = simulator.step(slot)
    return simulator, checker, pre, decision, slot


class TestStrictness:
    def test_coerce(self):
        assert coerce_strictness(None) is Strictness.OFF
        assert coerce_strictness("warn") is Strictness.WARN
        assert coerce_strictness(Strictness.STRICT) is Strictness.STRICT
        with pytest.raises(ValueError):
            coerce_strictness("loud")

    def test_off_is_inert(self, tiny_model, tiny_state):
        checker = ContractChecker("off")
        assert not checker.enabled
        assert checker.capture(tiny_state) is None
        # Blatantly invalid admission: silently ignored at off.
        bogus = AdmissionDecision(
            sources={0: 10_000}, admitted={0: -5.0}, source_rows=np.array([10_000])
        )
        checker.check_admission(tiny_model, bogus)
        assert checker.violation_count == 0

    def test_warn_logs_each_equation_once(self, tiny_model, caplog):
        checker = ContractChecker("warn")
        bogus = AdmissionDecision(
            sources={0: 10_000}, admitted={0: 0.0}, source_rows=np.array([10_000])
        )
        with caplog.at_level(logging.WARNING, logger="repro.contracts"):
            checker.check_admission(tiny_model, bogus, slot=1)
            checker.check_admission(tiny_model, bogus, slot=2)
        assert checker.violation_count == 2
        assert len(checker.violations) == 2
        logged = [r for r in caplog.records if "contract violated" in r.message]
        assert len(logged) == 1

    def test_strict_raises_immediately(self, tiny_model):
        checker = ContractChecker("strict")
        bogus = AdmissionDecision(
            sources={0: 10_000}, admitted={0: 0.0}, source_rows=np.array([10_000])
        )
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_admission(tiny_model, bogus, slot=7)
        assert excinfo.value.equation == "Eq. 19"
        assert excinfo.value.slot == 7


class TestTransitionContracts:
    def test_genuine_transition_is_clean(self, transition):
        simulator, checker, pre, decision, slot = transition
        checker.check_transition(
            simulator.model, simulator.state, decision, pre, slot
        )
        assert checker.violation_count == 0

    def test_corrupt_data_queue_raises_eq15(self, transition):
        simulator, checker, pre, decision, slot = transition
        # The first valid (non-destination) cell of the pre-state array.
        row, col = np.argwhere(simulator.state.arrays.q_valid)[0]
        pre.q[row, col] += 123.0
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_transition(
                simulator.model, simulator.state, decision, pre, slot
            )
        assert excinfo.value.equation == "Eq. 15"
        assert excinfo.value.slot == slot
        assert excinfo.value.node == row

    def test_corrupt_battery_raises_eq10(self, transition):
        simulator, checker, pre, decision, slot = transition
        arrays = simulator.state.arrays
        arrays.battery_level[0] = arrays.capacity_j[0] + 5.0
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_transition(
                simulator.model, simulator.state, decision, pre, slot
            )
        assert excinfo.value.equation == "Eq. 10"
        assert excinfo.value.node == 0

    def test_negative_battery_raises_eq10(self, transition):
        simulator, checker, pre, decision, slot = transition
        simulator.state.arrays.battery_level[1] = -1.0
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_transition(
                simulator.model, simulator.state, decision, pre, slot
            )
        assert excinfo.value.equation == "Eq. 10"
        assert excinfo.value.node == 1

    def test_corrupt_battery_level_raises_eq4(self, transition):
        # A level inside [0, x_max] that the battery law did not produce.
        simulator, checker, pre, decision, slot = transition
        arrays = simulator.state.arrays
        node = 2
        level = arrays.battery_level[node]
        arrays.battery_level[node] = (
            level + 1.0 if level + 1.0 <= arrays.capacity_j[node] else level - 1.0
        )
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_transition(
                simulator.model, simulator.state, decision, pre, slot
            )
        assert excinfo.value.equation == "Eq. 4"
        assert excinfo.value.node == node
        assert excinfo.value.slot == slot

    def test_corrupt_z_shift_raises_eq31(self, transition):
        simulator, checker, pre, decision, slot = transition
        simulator.state.arrays.z_shift[3] += 1.0
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_transition(
                simulator.model, simulator.state, decision, pre, slot
            )
        assert excinfo.value.equation == "Eq. 31"
        assert excinfo.value.node == 3
        assert excinfo.value.slot == slot


class TestScheduleContracts:
    def test_radio_overuse_raises_eq22(self, transition):
        simulator, checker, _pre, _decision, slot = transition
        model = simulator.model
        observation = simulator.state.observe(slot + 1)
        radios = model.params.node_params(0).num_radios
        # One more transmission at node 0 than it has radios.
        transmissions = [
            Transmission(tx=0, rx=1 + k, band=k, power_w=0.1)
            for k in range(radios + 1)
        ]
        schedule = schedule_of(transmissions)
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_schedule(model, observation, schedule, slot)
        assert excinfo.value.equation == "Eq. 22"
        assert excinfo.value.node == 0

    def test_self_loop_raises_eq22(self, transition):
        simulator, checker, _pre, _decision, slot = transition
        observation = simulator.state.observe(slot + 1)
        schedule = schedule_of([Transmission(tx=2, rx=2, band=0, power_w=0.1)])
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_schedule(
                simulator.model, observation, schedule, slot
            )
        assert excinfo.value.equation == "Eq. 22"

    def test_power_above_cap_raises_eq24(self, transition):
        simulator, checker, _pre, decision, slot = transition
        scheduled = decision.schedule.transmissions
        if not scheduled:  # pragma: no cover - tiny scenario always schedules
            pytest.skip("no transmissions scheduled this slot")
        observation = simulator.state.observe(slot + 1)
        cap = simulator.model.max_power_w[scheduled[0].tx]
        hot = dataclasses.replace(scheduled[0], power_w=10.0 * cap + 1.0)
        schedule = schedule_of([hot])
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_schedule(
                simulator.model, observation, schedule, slot
            )
        assert excinfo.value.equation == "Eq. 24"

    def test_records_built_once_per_check(self, transition, monkeypatch):
        simulator, checker, _pre, decision, slot = transition
        observation = simulator.state.observe(slot + 1)
        schedule = decision.schedule
        records = type(schedule).transmissions
        calls = []

        def counted(self):
            calls.append(1)
            return records.fget(self)

        monkeypatch.setattr(type(schedule), "transmissions", property(counted))
        checker.check_schedule(simulator.model, observation, schedule, slot)
        assert len(calls) == 1


def _energy_case():
    """A genuine S4 (batch, decision) pair on a hand-built 3-node slot.

    Node 0 is a base station that charges, node 1 a grid-connected user
    and node 2 a disconnected user that must discharge.
    """
    model = SlotSimulator.integral(tiny_scenario()).model

    def node(node_id, is_bs, demand, renewable, connected, grid, charge, discharge, z):
        return NodeEnergyInputs(
            node=node_id,
            is_base_station=is_bs,
            demand_j=demand,
            renewable_j=renewable,
            grid_connected=connected,
            grid_cap_j=grid,
            charge_cap_j=charge,
            discharge_cap_j=discharge,
            z=z,
        )

    batch = NodeEnergyBatch.from_inputs(
        [
            node(0, True, 100.0, 50.0, True, 1000.0, 200.0, 200.0, -500.0),
            node(1, False, 10.0, 30.0, True, 500.0, 20.0, 20.0, -50.0),
            node(2, False, 20.0, 0.0, False, 0.0, 50.0, 40.0, 10.0),
        ]
    )
    decision = EnergyManager(model).manage(batch)
    return batch, decision


def _corrupt(decision, field, node, delta):
    """``decision`` with ``delta`` added to one entry of one flow vector."""
    values = getattr(decision.allocation, field).copy()
    values[node] += delta
    allocation = dataclasses.replace(decision.allocation, **{field: values})
    return dataclasses.replace(decision, allocation=allocation)


class TestEnergyContracts:
    def test_genuine_allocation_is_clean(self):
        batch, decision = _energy_case()
        assert decision.allocation.charge_j[0] > 1.0
        assert decision.allocation.discharge_j[2] > 1.0
        checker = ContractChecker(Strictness.STRICT)
        checker.check_energy(batch, decision, slot=3)
        checker.check_demand_coverage(
            batch.demand_j, np.zeros(len(batch)), decision, slot=3
        )
        assert checker.violation_count == 0

    @pytest.mark.parametrize(
        "field, node, delta, equation",
        [
            ("grid_charge_j", 1, -1.0, "Eq. 14"),  # negative flow
            ("spill_j", 1, 1.0, "Eq. 3"),  # harvest split
            ("grid_charge_j", 1, 600.0, "Eq. 14"),  # grid cap
            ("grid_charge_j", 0, 300.0, "Eq. 11"),  # charge cap
            ("discharge_j", 2, 100.0, "Eq. 12"),  # discharge cap
            ("discharge_j", 0, 1.0, "Eq. 9"),  # charge and discharge
            ("grid_serve_j", 1, 1.0, "Eq. 2"),  # demand balance
        ],
    )
    def test_corrupt_entry_raises_tagged_violation(
        self, field, node, delta, equation
    ):
        batch, decision = _energy_case()
        checker = ContractChecker(Strictness.STRICT)
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_energy(
                batch, _corrupt(decision, field, node, delta), slot=3
            )
        assert excinfo.value.equation == equation
        assert excinfo.value.node == node
        assert excinfo.value.slot == 3

    def test_corrupt_total_draw_raises_eq5(self):
        batch, decision = _energy_case()
        bad = dataclasses.replace(
            decision, bs_grid_draw_j=decision.bs_grid_draw_j + 1.0
        )
        with pytest.raises(ContractViolation) as excinfo:
            ContractChecker(Strictness.STRICT).check_energy(batch, bad)
        assert excinfo.value.equation == "Eq. 5"
        assert excinfo.value.node is None

    def test_uncovered_demand_raises_eq2(self):
        batch, decision = _energy_case()
        checker = ContractChecker(Strictness.STRICT)
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_demand_coverage(
                batch.demand_j,
                np.zeros(len(batch)),
                _corrupt(decision, "discharge_j", 2, -1.0),
                slot=4,
            )
        assert excinfo.value.equation == "Eq. 2"
        assert excinfo.value.node == 2

    def test_deficit_accounts_for_uncovered_demand(self):
        batch, decision = _energy_case()
        deficit = np.array([0.0, 0.0, 1.0])
        checker = ContractChecker(Strictness.STRICT)
        checker.check_demand_coverage(
            batch.demand_j + deficit, deficit, decision, slot=4
        )
        assert checker.violation_count == 0


def _with_rate(routing, key, rate):
    """``routing`` with ``l[key] = rate``, replacing or appending the entry."""
    tx, rx, sid = key
    pos = link_position(routing, tx, rx)
    col = routing.sessions.index(sid)
    hit = (routing.link_pos == pos) & (routing.session_col == col)
    if hit.any():
        pkts = routing.pkts.copy()
        pkts[hit] = rate
        return dataclasses.replace(routing, pkts=pkts)
    return dataclasses.replace(
        routing,
        link_pos=np.append(routing.link_pos, pos),
        session_col=np.append(routing.session_col, col),
        pkts=np.append(routing.pkts, rate),
    )


def _session_link(model, roles, into_source=False):
    """A candidate link out of a session's destination, or into its source.

    ``roles["source"]`` is the base station S2 chose; links touching the
    other role's node are skipped so exactly one flow rule can fire.
    """
    for tx, rx in model.topology.candidate_links.tolist():
        if into_source and rx == roles["source"] and tx != roles["dest"]:
            return tx, rx
        if not into_source and tx == roles["dest"] and rx != roles["source"]:
            return tx, rx
    raise AssertionError("tiny scenario has no such link")


@pytest.fixture
def routed(transition):
    """The transition plus its first session's roles."""
    simulator, checker, pre, decision, slot = transition
    session = simulator.model.sessions[0]
    roles = {
        "sid": session.session_id,
        "dest": session.destination,
        "source": decision.admission.sources[session.session_id],
    }
    return simulator, checker, decision, slot, roles


class TestRoutingContracts:
    def test_genuine_routing_is_clean(self, routed):
        simulator, checker, decision, slot, _ = routed
        assert len(decision.routing.rates) > 0
        checker.check_routing(
            simulator.model, decision.routing, decision.admission, slot
        )
        checker.check_admission(simulator.model, decision.admission, slot)
        assert checker.violation_count == 0

    def test_negative_rate_raises_eq25(self, routed):
        simulator, checker, decision, slot, _ = routed
        key = list(decision.routing.rates)[-1]
        routing = _with_rate(decision.routing, key, -1.0)
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_routing(simulator.model, routing, decision.admission, slot)
        assert excinfo.value.equation == "Eq. 25"
        assert excinfo.value.link == key[:2]

    def test_emitting_destination_raises_eq17(self, routed):
        simulator, checker, decision, slot, roles = routed
        link = _session_link(simulator.model, roles)
        routing = _with_rate(decision.routing, (*link, roles["sid"]), 2.0)
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_routing(simulator.model, routing, decision.admission, slot)
        assert excinfo.value.equation == "Eq. 17"
        assert excinfo.value.link == link

    def test_receiving_source_raises_eq16(self, routed):
        simulator, checker, decision, slot, roles = routed
        link = _session_link(simulator.model, roles, into_source=True)
        routing = _with_rate(decision.routing, (*link, roles["sid"]), 2.0)
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_routing(simulator.model, routing, decision.admission, slot)
        assert excinfo.value.equation == "Eq. 16"
        assert excinfo.value.link == link

    def test_split_sum_mismatch_raises_eq19(self, routed):
        simulator, checker, decision, slot, roles = routed
        sid = roles["sid"]
        admitted = float(decision.admission.admitted[sid])
        admission = dataclasses.replace(
            decision.admission, split={sid: ((roles["source"], admitted + 3.0),)}
        )
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_admission(simulator.model, admission, slot)
        assert excinfo.value.equation == "Eq. 19"
        assert f"session {sid} split" in excinfo.value.detail

    def test_wrong_virtual_backlog_raises_eq28(self, transition):
        simulator, checker, pre, decision, slot = transition
        arrays = simulator.state.arrays
        pos = arrays.g.shape[0] // 2
        arrays.g[pos] += 7.5
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_transition(
                simulator.model, simulator.state, decision, pre, slot
            )
        link = excinfo.value.link
        assert excinfo.value.equation == "Eq. 28"
        assert link == (arrays.link_tx[pos], arrays.link_rx[pos])
        assert isinstance(link, tuple)
        assert [type(end) for end in link] == [int, int]


    def test_dropped_support_entry_raises_eq28(self, transition):
        simulator, checker, pre, decision, slot = transition
        arrays = simulator.state.arrays
        assert arrays.g_support.size > 0
        pos = int(arrays.g_support[arrays.g_support.size // 2])
        arrays.g_support = np.delete(arrays.g_support, arrays.g_support.size // 2)
        with pytest.raises(ContractViolation) as excinfo:
            checker.check_transition(
                simulator.model, simulator.state, decision, pre, slot
            )
        assert excinfo.value.equation == "Eq. 28"
        assert excinfo.value.slot == slot
        assert excinfo.value.link == (arrays.link_tx[pos], arrays.link_rx[pos])
        assert f"position {pos}" in excinfo.value.detail
        assert "missing" in excinfo.value.detail


class TestEndToEnd:
    def test_strict_tiny_run_is_clean(self):
        simulator = SlotSimulator.integral(
            tiny_scenario(num_slots=30), contracts="strict"
        )
        simulator.run()
        assert simulator.contracts is not None
        assert simulator.contracts.violation_count == 0

    def test_warn_checker_records_on_corrupted_transition(self):
        simulator = _warm_simulator()
        checker = ContractChecker("warn")
        pre = checker.capture(simulator.state)
        decision = simulator.step(5)
        row, col = np.argwhere(simulator.state.arrays.q_valid)[0]
        pre.q[row, col] += 50.0
        checker.check_transition(
            simulator.model, simulator.state, decision, pre, 5
        )
        assert checker.violation_count > 0
        assert any(v.equation == "Eq. 15" for v in checker.violations)

    def test_violation_rendering(self):
        violation = ContractViolation(
            "Eq. 15", "backlog mismatch", slot=3, node=2, link=(2, 4)
        )
        text = str(violation)
        assert "[Eq. 15]" in text
        assert "slot 3" in text
        assert "node 2" in text
