"""Unit tests for the queueing laws: the data- and virtual-queue kernels
of ``ArrayState`` (Eqs. 15, 28, 30), the shifted energy queue (Eq. 31)
and the strong-stability estimator."""

import dataclasses

import numpy as np
import pytest

from repro.config import small_scenario, tiny_scenario
from repro.control.decisions import AdmissionDecision
from repro.contracts import ContractChecker, ContractViolation
from repro.core.arraystate import seq_sum
from repro.exceptions import EnergyError, QueueError
from repro.queueing import (
    BacklogSnapshot,
    StabilityVerdict,
    assess_strong_stability,
)
from repro.queueing.backlog import make_snapshot_from_arrays
from repro.sim import SlotSimulator
from repro.types import QueueSemantics
from tests.helpers import (
    battery_step,
    link_position,
    make_snapshot_oracle,
    one_battery,
    queue_dict,
    queue_step,
    virtual_step,
)


@pytest.fixture
def arrays(tiny_state):
    """The tiny scenario's arrays: 5 nodes, BS 0, session 0 -> node 1,
    session 1 -> node 4."""
    return tiny_state.arrays


class TestDataQueue:
    """The Eq. 15 kernel on single cells."""

    def test_eq15_underflow_clamped(self, arrays):
        arrays.q[0, 0] = 5.0
        queue_step(arrays, {(0, 2, 0): 10.0}, [(0, 0, 3.0)])
        assert arrays.q[0, 0] == 3.0  # max(5-10, 0) + 3

    def test_eq15_normal_update(self, arrays):
        arrays.q[0, 0] = 10.0
        queue_step(arrays, {(0, 2, 0): 4.0}, [(0, 0, 2.0)])
        assert arrays.q[0, 0] == 8.0

    def test_negative_inputs_rejected(self, arrays):
        with pytest.raises(QueueError, match=r"negative service -1.0 at Q\[0\]\[0\]"):
            queue_step(arrays, {(0, 2, 0): -1.0})
        with pytest.raises(QueueError, match=r"negative arrivals -1.0 at Q\[0\]\[0\]"):
            queue_step(arrays, {(2, 0, 0): -1.0})
        assert not arrays.q.any()


class TestDataQueueBank:
    """The Eq. 15 kernel over the whole ``(N, S)`` array."""

    def test_destination_has_no_queue(self, tiny_state, arrays):
        assert not arrays.q_valid[1, 0]
        assert arrays.q_valid[1, 1]
        queue_step(arrays, {(0, 1, 0): 6.0}, [(1, 0, 9.0)])
        assert tiny_state.backlog(1, 0) == 0.0

    def test_admission_arrivals(self, tiny_state, arrays):
        queue_step(arrays, admissions=[(0, 0, 10.0)])
        assert tiny_state.backlog(0, 0) == 10.0

    def test_transfer_moves_backlog(self, tiny_state, arrays):
        queue_step(arrays, admissions=[(0, 0, 10.0)])
        transfer = queue_step(arrays, {(0, 2, 0): 4.0})
        assert transfer.tolist() == [4.0]
        assert tiny_state.backlog(0, 0) == 6.0
        assert tiny_state.backlog(2, 0) == 4.0

    def test_paper_semantics_credits_null_packets(self, tiny_state, arrays):
        # Transmitter has 2 packets but 5 are scheduled: receiver is
        # credited all 5 under Eq. (15)'s literal accounting.
        assert arrays.queue_semantics is QueueSemantics.PAPER
        queue_step(arrays, admissions=[(0, 0, 2.0)])
        queue_step(arrays, {(0, 2, 0): 5.0})
        assert tiny_state.backlog(0, 0) == 0.0
        assert tiny_state.backlog(2, 0) == 5.0

    def test_packet_accurate_semantics_caps_transfers(self, tiny_state, arrays):
        arrays.queue_semantics = QueueSemantics.PACKET_ACCURATE
        queue_step(arrays, admissions=[(0, 0, 2.0)])
        transfer = queue_step(arrays, {(0, 2, 0): 5.0})
        assert transfer.tolist() == [2.0]
        assert tiny_state.backlog(2, 0) == 2.0

    def test_packet_accurate_scales_proportionally(self, tiny_state, arrays):
        arrays.queue_semantics = QueueSemantics.PACKET_ACCURATE
        queue_step(arrays, admissions=[(0, 0, 6.0)])
        transfer = queue_step(arrays, {(0, 2, 0): 8.0, (0, 3, 0): 4.0, (2, 3, 0): 3.0})
        # 12 scheduled, 6 available: each link gets half its rate; node
        # 2 held nothing before the slot, so it forwards nothing.
        assert transfer.tolist() == pytest.approx([4.0, 2.0, 0.0])
        assert tiny_state.backlog(2, 0) == pytest.approx(4.0)
        assert tiny_state.backlog(3, 0) == pytest.approx(2.0)

    def test_total_backlog_filters_nodes(self, arrays, tiny_model):
        queue_step(arrays, admissions=[(0, 0, 5.0), (2, 1, 7.0)])
        num_bs = tiny_model.params.num_base_stations
        snapshot = make_snapshot_from_arrays(slot=0, arrays=arrays, num_bs=num_bs)
        assert snapshot.bs_data_packets == 5.0
        assert snapshot.user_data_packets == 7.0

    def test_unknown_queue_raises(self, tiny_state):
        # Node 17 has no row and session 99 no column.
        with pytest.raises(IndexError):
            tiny_state.backlog(17, 0)
        with pytest.raises(KeyError):
            tiny_state.backlog(0, 99)

    def test_negative_admission_rejected(self, arrays):
        with pytest.raises(QueueError, match="negative admission -1.0 for session 0"):
            queue_step(arrays, admissions=[(0, 0, -1.0)])

    def test_split_admission(self, tiny_state, arrays):
        admission = AdmissionDecision(
            sources={0: 0, 1: 0},
            admitted={0: 5.0, 1: 7.0},
            source_rows=np.array([0, 0]),
            split={1: ((0, 3.0), (2, 4.0))},
        )
        rows, cols, pkts = admission.queue_arrivals(arrays.session_col)
        assert rows.tolist() == [0, 0, 2]
        assert pkts.tolist() == [5.0, 3.0, 4.0]
        arrays.advance_q(
            np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0),
            rows, cols, pkts,
        )
        assert tiny_state.backlog(0, 0) == 5.0
        assert tiny_state.backlog(0, 1) == 3.0
        assert tiny_state.backlog(2, 1) == 4.0

    def test_repeated_cells_accumulate_in_entry_order(self, arrays):
        # Routed arrivals, then admissions, summed left to right: 1e16
        # absorbs each later 1.0, where a pairwise sum would keep 2.0.
        rates = {(0, 3, 0): 1e16, (2, 3, 0): 1.0, (4, 3, 0): 1.0}
        queue_step(arrays, rates, [(3, 0, 1.0)])
        assert arrays.q[3, 0] == ((1e16 + 1.0) + 1.0) + 1.0 == 1e16


class TestVirtualQueues:
    """The Eq. 28 kernel and ``H = beta * G`` (Eq. 30)."""

    def test_h_is_beta_times_g(self, tiny_state, arrays):
        virtual_step(arrays, {(0, 1): 10.0})
        pos = link_position(arrays, 0, 1)
        assert arrays.g[pos] == 10.0
        beta = tiny_state.constants.beta
        assert tiny_state.h_backlogs()[pos] == beta * 10.0

    def test_eq28_underflow_clamped(self, arrays):
        pos = link_position(arrays, 0, 1)
        g = np.zeros(arrays.g.shape[0])
        g[pos] = 3.0
        arrays.assign_g(g)
        virtual_step(arrays, {(0, 1): 1.0}, {(0, 1): 10.0})
        assert arrays.g[pos] == 1.0

    def test_bank_updates_all_links(self, tiny_state, arrays):
        # Arrivals are the scheduled rates summed per link.
        routed = {(0, 1, 0): 2.0, (0, 1, 1): 3.0}
        arrays.advance_g(
            np.array([link_position(arrays, *key[:2]) for key in routed]),
            np.array(list(routed.values())),
            np.zeros(0, dtype=np.intp),
            np.zeros(0),
        )
        virtual_step(arrays, service={(1, 0): 1.0})
        h = tiny_state.h_backlogs()
        assert arrays.g[link_position(arrays, 0, 1)] == 5.0
        assert arrays.g[link_position(arrays, 1, 0)] == 0.0
        assert seq_sum(arrays.g) == 5.0
        assert seq_sum(h) == tiny_state.constants.beta * 5.0

    def test_unknown_link_raises(self, tiny_state):
        # Nodes 5 and 6 do not exist, so (5, 6) has no link position.
        assert tiny_state.h_backlogs().shape == tiny_state.arrays.link_tx.shape
        with pytest.raises(KeyError):
            link_position(tiny_state.arrays, 5, 6)

    def test_negative_inputs_rejected(self, arrays):
        with pytest.raises(QueueError, match=r"negative arrivals -1.0 at G\(0, 1\)"):
            virtual_step(arrays, {(0, 1): -1.0})
        with pytest.raises(QueueError, match=r"negative service -2.0 at G\(1, 0\)"):
            virtual_step(arrays, service={(1, 0): -2.0})
        assert not arrays.g.any()


def _check_shift_error(shift_error):
    """Contract-check a genuine slot whose node-0 ``z`` shift is off by
    ``shift_error`` J."""
    simulator = SlotSimulator.integral(tiny_scenario(num_slots=3))
    checker = ContractChecker("strict")
    simulator.step(0)
    pre = checker.capture(simulator.state)
    decision = simulator.step(1)
    simulator.state.arrays.z_shift[0] += shift_error
    checker.check_transition(simulator.model, simulator.state, decision, pre, 1)


class TestShiftedEnergyQueue:
    def test_shift_definition(self):
        arrays = one_battery(100.0, 10.0, 10.0, control_v=100.0, gamma_max=2.0)
        # z = x - V*gamma_max - d_max = 0 - 210.
        assert arrays.z_values_array()[0] == pytest.approx(-210.0)
        assert arrays.z_shift[0] == pytest.approx(210.0)

    def test_step_follows_eq31(self):
        arrays = one_battery(200.0, 60.0, 10.0, control_v=100.0, gamma_max=2.0)
        assert battery_step(arrays, charge_j=50.0) == pytest.approx(50.0)
        assert arrays.z_values_array()[0] == pytest.approx(-160.0)

    def test_complementarity_enforced(self):
        arrays = one_battery(10.0, 1.0, 1.0, level_j=5.0)
        with pytest.raises(EnergyError, match="constraint \\(9\\)"):
            battery_step(arrays, charge_j=1.0, discharge_j=1.0)

    def test_sync_level_accepts_roundoff(self):
        # The Eq. 31 contract tolerates round-off in the shift.
        _check_shift_error(1e-9)

    def test_sync_level_rejects_divergence(self):
        with pytest.raises(ContractViolation, match="diverged") as excinfo:
            _check_shift_error(89.0)
        assert excinfo.value.equation == "Eq. 31"
        assert excinfo.value.node == 0


class TestStability:
    def test_flat_path_is_stable(self):
        path = np.full(100, 42.0)
        report = assess_strong_stability(path)
        assert report.verdict is StabilityVerdict.STABLE

    def test_saturating_path_is_stable(self):
        path = 100.0 * (1 - np.exp(-np.arange(200) / 20.0))
        report = assess_strong_stability(path)
        assert report.verdict is StabilityVerdict.STABLE

    def test_linear_growth_is_unstable(self):
        path = 50.0 * np.arange(200)
        report = assess_strong_stability(path)
        assert report.verdict is StabilityVerdict.UNSTABLE

    def test_short_path_inconclusive(self):
        report = assess_strong_stability([1.0, 2.0, 3.0])
        assert report.verdict is StabilityVerdict.INCONCLUSIVE

    def test_negative_backlog_rejected(self):
        with pytest.raises(ValueError):
            assess_strong_stability([-1.0, 2.0])

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            assess_strong_stability([])


class TestBacklogSnapshot:
    def test_aggregation(self):
        snapshot = make_snapshot_oracle(
            slot=3,
            data_backlogs={(0, 0): 5.0, (1, 0): 7.0, (2, 0): 1.0},
            battery_levels={0: 100.0, 1: 50.0, 2: 25.0},
            virtual_backlogs={(0, 1): 2.0, (1, 2): 3.0},
            bs_ids=[0],
        )
        assert snapshot.bs_data_packets == 5.0
        assert snapshot.user_data_packets == 8.0
        assert snapshot.bs_energy_j == 100.0
        assert snapshot.user_energy_j == 75.0
        assert snapshot.virtual_packets == 5.0
        assert snapshot.total_data_packets == 13.0
        assert snapshot.total_energy_j == 175.0

    @pytest.mark.parametrize(
        "params",
        [
            tiny_scenario(num_slots=1),
            small_scenario(num_slots=1),
            small_scenario(num_slots=1, num_users=12, seed=5),
        ],
        ids=["tiny", "small", "small_12_users"],
    )
    def test_array_snapshot_matches_oracle_bitwise(self, params):
        simulator = SlotSimulator.integral(params)
        arrays = simulator.state.arrays
        num_bs = simulator.params.num_base_stations
        assert 1 <= num_bs < arrays.num_nodes
        assert arrays.q_invalid.any()  # destination cells are exercised
        rng = np.random.default_rng(params.seed)
        for slot in range(5):
            # Wide magnitude spread so any change of summation order
            # shows up in the last bits.
            arrays.q[...] = rng.lognormal(sigma=6.0, size=arrays.q.shape)
            arrays.q[arrays.q_invalid] = 0.0
            arrays.battery_level[...] = rng.lognormal(
                sigma=6.0, size=arrays.num_nodes
            )
            arrays.assign_g(rng.lognormal(sigma=6.0, size=arrays.g.shape))
            expected = make_snapshot_oracle(
                slot=slot,
                data_backlogs=queue_dict(arrays),
                battery_levels=dict(enumerate(arrays.battery_level.tolist())),
                virtual_backlogs=dict(enumerate(arrays.g.tolist())),
                bs_ids=simulator.model.bs_ids,
            )
            actual = make_snapshot_from_arrays(slot=slot, arrays=arrays, num_bs=num_bs)
            assert [
                float(v).hex() for v in dataclasses.astuple(actual)
            ] == [float(v).hex() for v in dataclasses.astuple(expected)]

    def test_snapshot_is_frozen(self):
        snapshot = BacklogSnapshot(0, 1.0, 2.0, 3.0, 4.0, 5.0)
        with pytest.raises(AttributeError):
            snapshot.slot = 1  # type: ignore[misc]
