"""Unit tests for the queueing substrate: data, virtual, and shifted
energy queues plus the stability estimators."""

import dataclasses

import numpy as np
import pytest

from repro.config import small_scenario, tiny_scenario
from repro.core.arraystate import LinkArrayMapping, NodeArrayMapping
from repro.exceptions import QueueError
from repro.queueing import (
    BacklogSnapshot,
    DataQueue,
    DataQueueBank,
    LinkVirtualQueue,
    ShiftedEnergyQueue,
    StabilityVerdict,
    VirtualQueueBank,
    assess_strong_stability,
    is_rate_stable_sample_path,
)
from repro.queueing.backlog import make_snapshot_from_arrays
from repro.sim import SlotSimulator
from repro.types import QueueSemantics
from tests.helpers import make_snapshot_oracle


class TestDataQueue:
    def test_eq15_underflow_clamped(self):
        queue = DataQueue(node=0, session=0, backlog=5.0)
        queue.step(service=10.0, arrivals=3.0)
        assert queue.backlog == 3.0  # max(5-10, 0) + 3

    def test_eq15_normal_update(self):
        queue = DataQueue(node=0, session=0, backlog=10.0)
        queue.step(service=4.0, arrivals=2.0)
        assert queue.backlog == 8.0

    def test_negative_inputs_rejected(self):
        queue = DataQueue(node=0, session=0)
        with pytest.raises(QueueError):
            queue.step(service=-1.0, arrivals=0.0)
        with pytest.raises(QueueError):
            queue.step(service=0.0, arrivals=-1.0)


class TestDataQueueBank:
    @pytest.fixture
    def bank(self):
        # 4 nodes; session 0 -> node 3, session 1 -> node 2.
        return DataQueueBank(range(4), {0: 3, 1: 2})

    def test_destination_has_no_queue(self, bank):
        assert not bank.has_queue(3, 0)
        assert bank.backlog(3, 0) == 0.0
        assert bank.has_queue(3, 1)

    def test_admission_arrivals(self, bank):
        bank.step(rates={}, admissions={0: [(0, 10.0)]})
        assert bank.backlog(0, 0) == 10.0

    def test_transfer_moves_backlog(self, bank):
        bank.step(rates={}, admissions={0: [(0, 10.0)]})
        bank.step(rates={(0, 1, 0): 4.0}, admissions={})
        assert bank.backlog(0, 0) == 6.0
        assert bank.backlog(1, 0) == 4.0

    def test_paper_semantics_credits_null_packets(self, bank):
        # Transmitter has 2 packets but 5 are scheduled: receiver is
        # credited all 5 under Eq. (15)'s literal accounting.
        bank.step(rates={}, admissions={0: [(0, 2.0)]})
        bank.step(rates={(0, 1, 0): 5.0}, admissions={})
        assert bank.backlog(0, 0) == 0.0
        assert bank.backlog(1, 0) == 5.0

    def test_packet_accurate_semantics_caps_transfers(self):
        bank = DataQueueBank(
            range(4), {0: 3}, semantics=QueueSemantics.PACKET_ACCURATE
        )
        bank.step(rates={}, admissions={0: [(0, 2.0)]})
        bank.step(rates={(0, 1, 0): 5.0}, admissions={})
        assert bank.backlog(1, 0) == 2.0

    def test_packet_accurate_scales_proportionally(self):
        bank = DataQueueBank(
            range(4), {0: 3}, semantics=QueueSemantics.PACKET_ACCURATE
        )
        bank.step(rates={}, admissions={0: [(0, 6.0)]})
        bank.step(rates={(0, 1, 0): 8.0, (0, 2, 0): 4.0}, admissions={})
        # 12 scheduled, 6 available: each link gets half its rate.
        assert bank.backlog(1, 0) == pytest.approx(4.0)
        assert bank.backlog(2, 0) == pytest.approx(2.0)

    def test_total_backlog_filters_nodes(self, bank):
        bank.step(rates={}, admissions={0: [(0, 5.0)], 1: [(1, 7.0)]})
        assert bank.total_backlog([0]) == 5.0
        assert bank.total_backlog([0, 1]) == 12.0

    def test_unknown_queue_raises(self, bank):
        with pytest.raises(QueueError):
            bank.backlog(17, 0)

    def test_negative_admission_rejected(self, bank):
        with pytest.raises(QueueError):
            bank.step(rates={}, admissions={0: [(0, -1.0)]})

    def test_split_admission(self, bank):
        bank.step(rates={}, admissions={1: [(0, 3.0), (1, 4.0)]})
        assert bank.backlog(0, 1) == 3.0
        assert bank.backlog(1, 1) == 4.0


class TestVirtualQueues:
    def test_h_is_beta_times_g(self):
        queue = LinkVirtualQueue(link=(0, 1), beta=4.0)
        queue.step(arrivals_pkts=10.0, service_pkts=0.0)
        assert queue.g_backlog == 10.0
        assert queue.h_backlog == 40.0

    def test_eq28_underflow_clamped(self):
        queue = LinkVirtualQueue(link=(0, 1), beta=2.0, g_backlog=3.0)
        queue.step(arrivals_pkts=1.0, service_pkts=10.0)
        assert queue.g_backlog == 1.0

    def test_bank_updates_all_links(self):
        bank = VirtualQueueBank([(0, 1), (1, 2)], beta=2.0)
        bank.step({(0, 1): 5.0}, {(1, 2): 1.0})
        assert bank.g((0, 1)) == 5.0
        assert bank.g((1, 2)) == 0.0
        assert bank.total_g() == 5.0
        assert bank.total_h() == 10.0

    def test_unknown_link_raises(self):
        bank = VirtualQueueBank([(0, 1)], beta=1.0)
        with pytest.raises(QueueError):
            bank.g((5, 6))

    def test_invalid_beta(self):
        with pytest.raises(QueueError):
            VirtualQueueBank([(0, 1)], beta=0.0)


class TestShiftedEnergyQueue:
    def test_shift_definition(self):
        queue = ShiftedEnergyQueue(
            node=0, control_v=100.0, gamma_max=2.0, discharge_cap_j=10.0
        )
        # z = x - V*gamma_max - d_max = 0 - 210.
        assert queue.z == pytest.approx(-210.0)
        assert queue.shift_j == pytest.approx(210.0)

    def test_step_follows_eq31(self):
        queue = ShiftedEnergyQueue(0, 100.0, 2.0, 10.0)
        queue.step(charge_j=50.0, discharge_j=0.0)
        assert queue.level_j == pytest.approx(50.0)
        assert queue.z == pytest.approx(-160.0)

    def test_complementarity_enforced(self):
        queue = ShiftedEnergyQueue(0, 1.0, 1.0, 1.0)
        with pytest.raises(QueueError, match="constraint \\(9\\)"):
            queue.step(charge_j=1.0, discharge_j=1.0)

    def test_sync_level_accepts_roundoff(self):
        queue = ShiftedEnergyQueue(0, 1.0, 1.0, 1.0)
        queue.step(10.0, 0.0)
        queue.sync_level(10.0 + 1e-9)
        assert queue.level_j == pytest.approx(10.0)

    def test_sync_level_rejects_divergence(self):
        queue = ShiftedEnergyQueue(0, 1.0, 1.0, 1.0)
        queue.step(10.0, 0.0)
        with pytest.raises(QueueError, match="divergence"):
            queue.sync_level(99.0)


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
        with pytest.raises(ValueError):
            is_rate_stable_sample_path([])

    def test_rate_stability_proxy(self):
        # Bounded path: terminal/t -> 0.
        assert is_rate_stable_sample_path(np.full(1000, 5.0))
        # Linearly growing path is not rate stable.
        assert not is_rate_stable_sample_path(np.arange(1000.0))


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
        assert arrays.bs_rows.size >= 1 and arrays.user_rows.size >= 1
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
            arrays.g[...] = rng.lognormal(sigma=6.0, size=arrays.g.shape)
            expected = make_snapshot_oracle(
                slot=slot,
                data_backlogs=dict(arrays.q_mapping(copy=True)),
                battery_levels=dict(NodeArrayMapping(arrays.battery_level)),
                virtual_backlogs=dict(
                    LinkArrayMapping(arrays.g, arrays.links, arrays.link_pos)
                ),
                bs_ids=simulator.model.bs_ids,
            )
            actual = make_snapshot_from_arrays(slot=slot, arrays=arrays)
            assert [
                float(v).hex() for v in dataclasses.astuple(actual)
            ] == [float(v).hex() for v in dataclasses.astuple(expected)]

    def test_snapshot_is_frozen(self):
        snapshot = BacklogSnapshot(0, 1.0, 2.0, 3.0, 4.0, 5.0)
        with pytest.raises(AttributeError):
            snapshot.slot = 1  # type: ignore[misc]
