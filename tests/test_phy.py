"""Unit tests for the PHY substrate: propagation, SINR, capacity,
interference helpers, and power control."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import (
    big_m_coefficient,
    gain_matrix,
    link_capacity_bps,
    max_link_capacity_bps,
    minimal_power_assignment,
    minimal_power_assignment_vec,
    propagation_gain,
    sinr,
    total_interference,
)
from repro.config import paper_scenario
from repro.phy import power_control
from repro.phy.power_control import _solve_subset, _subset_system
from repro.phy.propagation import MIN_DISTANCE_M, DensePairGains
from repro.sim import SlotSimulator
from repro.types import SchedulerKind


class TestPropagation:
    def test_follows_power_law(self):
        g1 = propagation_gain(100.0, 62.5, 4.0)
        g2 = propagation_gain(200.0, 62.5, 4.0)
        assert g1 / g2 == pytest.approx(16.0)

    def test_near_field_clamped(self):
        assert propagation_gain(0.0, 62.5, 4.0) == propagation_gain(
            MIN_DISTANCE_M, 62.5, 4.0
        )

    def test_invalid_constant_raises(self):
        with pytest.raises(ValueError):
            propagation_gain(10.0, 0.0, 4.0)
        with pytest.raises(ValueError):
            propagation_gain(10.0, 62.5, -1.0)

    def test_matrix_matches_scalar(self):
        distances = np.array([[0.0, 100.0], [100.0, 0.0]])
        gains = gain_matrix(distances, 62.5, 4.0)
        assert gains[0, 1] == pytest.approx(propagation_gain(100.0, 62.5, 4.0))
        assert np.all(np.isfinite(gains))

    def test_matrix_invalid_args(self):
        with pytest.raises(ValueError):
            gain_matrix(np.ones((2, 2)), -1.0, 4.0)


class TestSinr:
    def test_no_interference(self):
        gains = np.array([[1.0, 0.01], [0.01, 1.0]])
        value = sinr(gains, 0, 1, tx_power_w=1.0, noise_power_w=1e-3)
        assert value == pytest.approx(0.01 / 1e-3)

    def test_interference_reduces_sinr(self):
        gains = np.array([[1.0, 0.01], [0.01, 1.0]])
        clean = sinr(gains, 0, 1, 1.0, 1e-3)
        noisy = sinr(gains, 0, 1, 1.0, 1e-3, interference_w=1e-3)
        assert noisy == pytest.approx(clean / 2)

    def test_total_interference_sums_gains(self):
        gains = np.array([[0, 0.5, 0.2], [0.5, 0, 0.1], [0.2, 0.1, 0]])
        value = total_interference(gains, 2, [(0, 2.0), (1, 1.0)])
        assert value == pytest.approx(0.2 * 2.0 + 0.1 * 1.0)

    def test_invalid_noise_raises(self):
        gains = np.ones((2, 2))
        with pytest.raises(ValueError):
            sinr(gains, 0, 1, 1.0, 0.0)


class TestCapacity:
    def test_capacity_above_threshold(self):
        # Gamma = 1 -> spectral efficiency log2(2) = 1 bit/s/Hz.
        assert link_capacity_bps(1e6, 2.0, 1.0) == pytest.approx(1e6)

    def test_capacity_below_threshold_is_zero(self):
        assert link_capacity_bps(1e6, 0.99, 1.0) == 0.0

    def test_capacity_exactly_at_threshold(self):
        assert link_capacity_bps(1e6, 1.0, 1.0) > 0

    def test_capacity_scales_with_bandwidth(self):
        one = max_link_capacity_bps(1e6, 3.0)
        two = max_link_capacity_bps(2e6, 3.0)
        assert two == pytest.approx(2 * one)

    def test_spectral_efficiency(self):
        assert max_link_capacity_bps(1.0, 3.0) == pytest.approx(math.log2(4.0))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            link_capacity_bps(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            max_link_capacity_bps(1e6, 0.0)


class TestInterferenceHelpers:
    def test_big_m_covers_worst_case(self):
        gains = np.full((3, 3), 1e-6)
        np.fill_diagonal(gains, 0.0)
        caps = np.array([1.0, 2.0, 4.0])
        m = big_m_coefficient(DensePairGains(gains), 0, 1, 1e-9, 1.0, caps)
        # Only node 2 interferes with link (0, 1).
        assert m == pytest.approx(1.0 * (1e-9 + 1e-6 * 4.0))


class TestPowerControl:
    @staticmethod
    def _gains(positions, c=62.5, gamma=4.0):
        pts = np.asarray(positions, dtype=float)
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
        return gain_matrix(d, c, gamma)

    def test_single_link_hits_threshold_exactly(self):
        gains = self._gains([[0, 0], [100, 0]])
        result = minimal_power_assignment(
            [(0, 1)], DensePairGains(gains), noise_power_w=1e-10, sinr_threshold=1.0,
            max_power_w={0: 1.0, 1: 1.0},
        )
        assert not result.dropped
        power = result.powers[(0, 1)]
        achieved = gains[0, 1] * power / 1e-10
        assert achieved == pytest.approx(1.0, rel=1e-9)

    def test_two_distant_links_both_feasible(self):
        gains = self._gains([[0, 0], [100, 0], [5000, 0], [5100, 0]])
        result = minimal_power_assignment(
            [(0, 1), (2, 3)], DensePairGains(gains), 1e-10, 1.0,
            {i: 5.0 for i in range(4)},
        )
        assert set(result.powers) == {(0, 1), (2, 3)}
        # Both links must meet the SINR including mutual interference.
        for link in result.powers:
            tx, rx = link
            interference = sum(
                gains[otx, rx] * result.powers[(otx, orx)]
                for otx, orx in result.powers
                if (otx, orx) != link
            )
            achieved = gains[tx, rx] * result.powers[link] / (1e-10 + interference)
            assert achieved >= 1.0 - 1e-9

    def test_conflicting_links_drop_lower_priority(self):
        # Two co-located links cannot both meet Gamma = 1: each
        # receiver hears the other transmitter as loudly as its own.
        gains = self._gains([[0, 0], [10, 0], [0, 10], [10, 10]])
        result = minimal_power_assignment(
            [(0, 1), (2, 3)], DensePairGains(gains), 1e-10, 5.0,
            {i: 1.0 for i in range(4)},
            priority={(0, 1): 10.0, (2, 3): 1.0},
        )
        assert result.dropped == [(2, 3)]
        assert (0, 1) in result.powers

    def test_power_cap_respected(self):
        gains = self._gains([[0, 0], [3000, 0]])
        result = minimal_power_assignment(
            [(0, 1)], DensePairGains(gains), 1e-6, 1.0, {0: 0.001, 1: 0.001}
        )
        assert result.dropped == [(0, 1)]
        assert not result.powers

    def test_empty_link_set(self):
        gains = self._gains([[0, 0], [10, 0]])
        result = minimal_power_assignment([], DensePairGains(gains), 1e-10, 1.0, {0: 1.0, 1: 1.0})
        assert not result.powers and not result.dropped

    def test_minimality_against_uniform_scaling(self):
        # Scaling all powers down by any factor breaks at least one SINR.
        gains = self._gains([[0, 0], [200, 0], [900, 0], [1100, 0]])
        result = minimal_power_assignment(
            [(0, 1), (2, 3)], DensePairGains(gains), 1e-10, 1.0, {i: 50.0 for i in range(4)}
        )
        assert set(result.powers) == {(0, 1), (2, 3)}
        scaled = {k: v * 0.99 for k, v in result.powers.items()}
        ok = True
        for (tx, rx), power in scaled.items():
            interference = sum(
                gains[otx, rx] * p
                for (otx, orx), p in scaled.items()
                if (otx, orx) != (tx, rx)
            )
            if gains[tx, rx] * power / (1e-10 + interference) < 1.0 - 1e-9:
                ok = False
        assert not ok


def _linear_scan(link_tx, link_rx, gains, noise_power_w, sinr_threshold, caps, priorities):
    """Oracle: re-solve the surviving set after every single drop.

    Joint infeasibility (failed solve or a non-positive power) drops the
    first link of lowest priority; otherwise the first link with the
    lexicographically largest ``(power / cap, -priority)`` goes.
    """
    direct = gains[link_tx, link_rx]
    cross = gains[link_tx[:, None], link_rx[None, :]].T.copy()
    np.fill_diagonal(cross, 0.0)
    coupling = sinr_threshold * cross / direct[:, None]
    noise = sinr_threshold * noise_power_w / direct
    sel = np.arange(link_tx.shape[0])
    dropped = []
    while sel.size:
        system = np.eye(sel.size) - coupling[np.ix_(sel, sel)]
        try:
            powers = np.linalg.solve(system, noise[sel])
        except np.linalg.LinAlgError:
            powers = np.full(sel.size, np.inf)
        if np.any(powers <= 0) or not np.all(np.isfinite(powers)):
            powers = np.full(sel.size, np.inf)
        over = powers / caps[sel]
        if np.all(over <= 1.0 + 1e-12):
            return sel, powers, dropped
        worst = max(range(sel.size), key=lambda l: (over[l], -priorities[sel[l]]))
        if np.isinf(over[worst]):
            worst = int(np.argmin(priorities[sel]))
        dropped.append(int(sel[worst]))
        sel = np.delete(sel, worst)
    return sel, np.zeros(0), dropped


def _assert_matches_oracle(link_tx, link_rx, gains, *rest):
    kept, powers, dropped = minimal_power_assignment_vec(
        link_tx, link_rx, DensePairGains(gains), *rest
    )
    want_kept, want_powers, want_dropped = _linear_scan(link_tx, link_rx, gains, *rest)
    assert dropped == want_dropped
    assert kept.tolist() == want_kept.tolist()
    assert powers.tobytes() == want_powers.tobytes()
    return kept, dropped


def _clustered_links(rng, n):
    """``n`` short links packed into a few clusters: dense co-band
    interference, the shape of a loaded S1 band."""
    centers = rng.uniform(0.0, 3000.0, (int(rng.integers(2, 6)), 2))
    tx = centers[rng.integers(0, len(centers), n)] + rng.normal(0.0, 250.0, (n, 2))
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    length = rng.uniform(20.0, 150.0, n)
    rx = tx + np.stack([np.cos(angle), np.sin(angle)], axis=1) * length[:, None]
    gains = TestPowerControl._gains(np.concatenate([tx, rx]))
    return np.arange(n, dtype=np.intp), np.arange(n, 2 * n, dtype=np.intp), gains


def _spectral_radius(matrix):
    return float(np.max(np.abs(np.linalg.eigvals(matrix)))) if matrix.size else 0.0


def _unit_coupling(link_tx, link_rx, gains):
    """``F``: the coupling matrix at ``Gamma = 1``."""
    direct = gains[link_tx, link_rx]
    cross = gains[link_tx[:, None], link_rx[None, :]].T.copy()
    np.fill_diagonal(cross, 0.0)
    return cross / direct[:, None]


class TestPowerControlVec:
    """minimal_power_assignment_vec vs the one-solve-per-drop oracle, bitwise."""

    def test_fuzz_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            num_nodes = int(rng.integers(4, 12))
            positions = rng.uniform(0.0, 2000.0, (num_nodes, 2))
            gains = TestPowerControl._gains(positions)
            n_links = int(rng.integers(1, 7))
            pairs = set()
            while len(pairs) < n_links:
                tx, rx = rng.integers(0, num_nodes, 2)
                if tx != rx:
                    pairs.add((int(tx), int(rx)))
            links = sorted(pairs)
            caps_map = {i: float(rng.uniform(0.01, 5.0)) for i in range(num_nodes)}
            priority = {link: float(rng.uniform(0.0, 10.0)) for link in links}
            threshold = float(rng.uniform(0.5, 4.0))

            link_tx = np.array([tx for tx, _ in links], dtype=np.intp)
            link_rx = np.array([rx for _, rx in links], dtype=np.intp)
            caps = np.array([caps_map[tx] for tx, _ in links])
            priorities = np.array([priority[link] for link in links])
            kept, dropped = _assert_matches_oracle(
                link_tx, link_rx, gains, 1e-10, threshold, caps, priorities
            )
            # The dict adapter is a view of the same call.
            scalar = minimal_power_assignment(
                links, DensePairGains(gains), 1e-10, threshold, caps_map, priority
            )
            assert scalar.dropped == [links[i] for i in dropped]
            assert list(scalar.scheduled) == [links[i] for i in kept]

    @pytest.mark.parametrize("seed", range(12))
    def test_near_critical_sets_match_oracle(self, seed):
        # Large clustered sets with Gamma set so that the subset left
        # after dropping ``k`` lowest-priority links sits within
        # ``delta`` of rho(Gamma F) = 1: the bisection's boundary lands
        # exactly where floating point is least sure of the sign.
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(50, 401)) if seed % 3 else int(rng.integers(300, 401))
        link_tx, link_rx, gains = _clustered_links(rng, n)
        priority_kind = seed % 4
        if priority_kind == 0:
            priorities = rng.uniform(0.0, 10.0, n)
        elif priority_kind == 1:
            priorities = rng.integers(0, 4, n).astype(float)  # many ties
        elif priority_kind == 2:
            priorities = np.zeros(n)
        else:
            priorities = np.round(rng.exponential(50.0, n))
        order = np.argsort(priorities, kind="stable")
        sub = np.sort(order[int(rng.integers(0, max(1, n // 6))):])
        rho = _spectral_radius(_unit_coupling(link_tx, link_rx, gains)[np.ix_(sub, sub)])
        delta = [-1e-3, 1e-3, -1e-9, 1e-9, -1e-13, 1e-13][seed % 6]
        threshold = (1.0 + delta) / rho
        noise = 1e-10
        direct = gains[link_tx, link_rx]
        # Caps around the zero-interference power so a few links also
        # go over cap once the set turns feasible.
        caps = threshold * noise / direct * rng.uniform(1.0, 50.0, n)
        _assert_matches_oracle(link_tx, link_rx, gains, noise, threshold, caps, priorities)

    def test_every_link_dropped_jointly(self):
        # No noise: every solve returns p = 0, which is not positive, so
        # every subset is infeasible and the drop order is the priority
        # order itself.
        rng = np.random.default_rng(5)
        link_tx, link_rx, gains = _clustered_links(rng, 60)
        priorities = rng.integers(0, 3, 60).astype(float)
        kept, dropped = _assert_matches_oracle(
            link_tx, link_rx, gains, 0.0, 1.0, np.ones(60), priorities
        )
        assert kept.size == 0
        assert dropped == np.argsort(priorities, kind="stable").tolist()

    def test_every_link_dropped_over_cap(self):
        rng = np.random.default_rng(6)
        link_tx, link_rx, gains = _clustered_links(rng, 50)
        kept, dropped = _assert_matches_oracle(
            link_tx, link_rx, gains, 1e-10, 1.0, np.full(50, 1e-30), np.zeros(50)
        )
        assert kept.size == 0 and sorted(dropped) == list(range(50))

    def test_singular_system(self):
        # Links 2j and 2j+1 couple at exactly Gamma * F = 1 both ways, so
        # every system holding both links of a pair is exactly singular
        # and np.linalg.solve raises LinAlgError.
        n = 8
        gains = np.zeros((2 * n, 2 * n))
        link_tx = np.arange(n, dtype=np.intp)
        link_rx = np.arange(n, 2 * n, dtype=np.intp)
        gains[link_tx, link_rx] = 1.0
        for j in range(0, n, 2):
            gains[link_tx[j], link_rx[j + 1]] = 0.5
            gains[link_tx[j + 1], link_rx[j]] = 0.5
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.eye(n) - 2.0 * _unit_coupling(link_tx, link_rx, gains), np.ones(n))
        priorities = np.array([3.0, 1.0, 0.0, 2.0, 5.0, 4.0, 1.0, 1.0])
        kept, dropped = _assert_matches_oracle(
            link_tx, link_rx, gains, 1e-10, 2.0, np.ones(n), priorities
        )
        # The set stays singular until the last pair, (4, 5), loses its
        # weaker link, so every lower-priority link goes first.
        assert dropped == [2, 1, 6, 7, 3, 0, 5] and kept.tolist() == [4]

    def test_empty_set(self):
        gains = TestPowerControl._gains([[0, 0], [10, 0]])
        kept, powers, dropped = minimal_power_assignment_vec(
            np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
            DensePairGains(gains), 1e-10, 1.0, np.zeros(0), np.zeros(0),
        )
        assert kept.size == 0 and powers.size == 0 and dropped == []


def _ix_system(coupling, eye, sel):
    """The open-mesh system form: one fancy index, then ``eye`` minus it."""
    return eye[: sel.size, : sel.size] - coupling[np.ix_(sel, sel)]


class TestSubsetSystem:
    """The two-``take`` system gather equals the ``np.ix_`` form byte for byte."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sets(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 351))
        link_tx, link_rx, gains = _clustered_links(rng, n)
        coupling = rng.uniform(0.2, 4.0) * _unit_coupling(link_tx, link_rx, gains)
        # Signed zeros off the diagonal: the subtraction must meet them
        # in both forms alike.
        flat = coupling.reshape(-1)
        flat[rng.choice(flat.size, flat.size // 10)] = -0.0
        flat[rng.choice(flat.size, flat.size // 10)] = 0.0
        eye = np.eye(n)
        for size in (0, 1, n // 3, n):
            sel = np.sort(rng.choice(n, size, replace=False))
            got = _subset_system(coupling, eye, sel)
            assert got.tobytes() == _ix_system(coupling, eye, sel).tobytes()
        # The unsorted selection order is kept too.
        sel = rng.permutation(n)
        got = _subset_system(coupling, eye, sel)
        assert got.tobytes() == _ix_system(coupling, eye, sel).tobytes()

    def test_captured_probes(self, monkeypatch):
        # Every probe of a short GREEDY run, co-band sets of up to ~50
        # links, rebuilt both ways; the solve reads the same bytes.
        probes = []
        solve = power_control._solve_subset

        def recording(coupling, noise, eye, sel):
            probes.append((coupling, noise, eye, sel))
            return solve(coupling, noise, eye, sel)

        monkeypatch.setattr(power_control, "_solve_subset", recording)
        params = paper_scenario(num_users=200, num_slots=12, seed=7)
        SlotSimulator.integral(params, scheduler_kind=SchedulerKind.GREEDY).run()
        assert max(sel.size for *_, sel in probes) >= 20
        for coupling, noise, eye, sel in probes:
            want = _ix_system(coupling, eye, sel)
            assert _subset_system(coupling, eye, sel).tobytes() == want.tobytes()
            powers = solve(coupling, noise, eye, sel)
            if powers is not None:
                assert powers.tobytes() == np.linalg.solve(want, noise[sel]).tobytes()


class TestFeasibilityMonotone:
    """The Perron–Frobenius argument the drop-prefix bisection rests on."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 14),
        scale=st.floats(0.2, 4.0),
        ties=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_feasibility_never_returns_along_priority_order(self, seed, n, scale, ties):
        rng = np.random.default_rng(seed)
        link_tx, link_rx, gains = _clustered_links(rng, n)
        unit = _unit_coupling(link_tx, link_rx, gains)
        # Scale Gamma around the full set's critical value so the flip
        # from infeasible to feasible falls inside the removal order.
        rho_full = _spectral_radius(unit)
        threshold = scale / rho_full if rho_full > 0 else scale
        priorities = rng.integers(0, 3, n).astype(float) if ties else rng.uniform(0, 1, n)
        order = np.argsort(priorities, kind="stable")
        coupling = threshold * unit
        noise = threshold * 1e-10 / gains[link_tx, link_rx]
        eye = np.eye(n)
        feasible = []
        for k in range(n + 1):
            sel = np.sort(order[k:])
            solved = _solve_subset(coupling, noise, eye, sel) is not None
            rho = _spectral_radius(coupling[np.ix_(sel, sel)])
            if sel.size and abs(rho - 1.0) > 1e-6:
                assert solved == (rho < 1.0)
            feasible.append(solved or not sel.size)
        # Once feasible, every further removal stays feasible.
        first = feasible.index(True)
        assert all(feasible[first:])
