"""Reduced-scale golden regression for the sweep-backed figure tables.

These pins freeze the *numbers* the rewired figure runners produce, so
a change anywhere in the executor / runner / simulator stack that
perturbs the historical result stream fails loudly.  Scales are tiny
(tens of slots) to keep tier-1 fast; fuller-scale checks of the same
claims run nightly under the ``slow`` marker.

Tolerance policy: the integral controller is pure numpy and is pinned
near machine precision; the relaxed LP (and anything derived from it)
goes through HiGHS, whose pivot order may vary across versions, so
those columns get ``rel=1e-6``.
"""

import pytest

from repro.config import small_scenario, tiny_scenario
from repro.experiments import run_fig2a, run_fig2f
from repro.experiments.fig2f import ARCHITECTURES
from repro.network import topology
from repro.types import Architecture

#: Fig. 2(a) at tiny scale: V -> (upper, empirical_lower, formal_lower).
GOLDEN_FIG2A = {
    1e4: (430.9718163693313, 423.5964646767796, -18848746355.51606),
    5e4: (652.445565334959, 584.0461605219646, -3769748771.7763443),
}

#: Fig. 2(f) at small scale, V=1e5: architecture -> (cost, steady cost).
GOLDEN_FIG2F = {
    Architecture.MULTI_HOP_RENEWABLE: (2186.0253854666853, 1.876974938852516),
    Architecture.MULTI_HOP_NO_RENEWABLE: (2220.522588552956, 4.393374375943997),
    Architecture.ONE_HOP_RENEWABLE: (2187.68207472247, 2.575826950871533),
    Architecture.ONE_HOP_NO_RENEWABLE: (2206.1600734557896, 2.9520014620672743),
}


@pytest.fixture(scope="module")
def fig2a_tiny():
    return run_fig2a(tiny_scenario(num_slots=10), tuple(sorted(GOLDEN_FIG2A)))


@pytest.fixture(scope="module")
def fig2f_small():
    return run_fig2f(small_scenario(num_slots=30), (1e5,))


class TestFig2aGolden:
    def test_sweep_points(self, fig2a_tiny):
        assert fig2a_tiny.v_values() == sorted(GOLDEN_FIG2A)

    @pytest.mark.parametrize("v", sorted(GOLDEN_FIG2A))
    def test_bound_table_pinned(self, fig2a_tiny, v):
        upper, emp_lower, formal_lower = GOLDEN_FIG2A[v]
        (report,) = [r for r in fig2a_tiny.reports if r.control_v == v]
        assert report.upper == pytest.approx(upper, rel=1e-9)
        assert report.relaxed_penalty == pytest.approx(emp_lower, rel=1e-6)
        assert report.lower == pytest.approx(formal_lower, rel=1e-6)

    @pytest.mark.parametrize("v", sorted(GOLDEN_FIG2A))
    def test_bounds_bracket(self, fig2a_tiny, v):
        (report,) = [r for r in fig2a_tiny.reports if r.control_v == v]
        assert report.lower <= report.upper
        assert report.relaxed_penalty <= report.upper + 1e-9

    def test_parallel_reproduces_golden_table(self):
        parallel = run_fig2a(
            tiny_scenario(num_slots=10),
            tuple(sorted(GOLDEN_FIG2A)),
            max_workers=2,
        )
        for report in parallel.reports:
            upper, emp_lower, _ = GOLDEN_FIG2A[report.control_v]
            assert report.upper == pytest.approx(upper, rel=1e-9)
            assert report.relaxed_penalty == pytest.approx(emp_lower, rel=1e-6)


class TestFig2fGolden:
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_costs_pinned(self, fig2f_small, architecture):
        cost, steady = GOLDEN_FIG2F[architecture]
        assert fig2f_small.cost(architecture, 1e5) == pytest.approx(
            cost, rel=1e-9
        )
        assert fig2f_small.steady_cost(architecture, 1e5) == pytest.approx(
            steady, rel=1e-9
        )

    def test_proposed_architecture_cheapest(self, fig2f_small):
        assert fig2f_small.ordering_holds(1e5)
        assert fig2f_small.steady_ordering_holds(1e5)

    @pytest.mark.parametrize(
        "renewable,fossil",
        [
            (Architecture.MULTI_HOP_RENEWABLE, Architecture.MULTI_HOP_NO_RENEWABLE),
            (Architecture.ONE_HOP_RENEWABLE, Architecture.ONE_HOP_NO_RENEWABLE),
        ],
    )
    def test_renewables_cut_steady_cost(self, fig2f_small, renewable, fossil):
        # Within each hop class, harvesting strictly reduces the
        # settled (second-half) energy cost — the paper's Fig. 2(f)
        # mechanism at reduced scale.
        assert fig2f_small.steady_cost(renewable, 1e5) < fig2f_small.steady_cost(
            fossil, 1e5
        )


class TestSweepTopologyModes:
    def test_fig2a_pins_hold_in_sparse_mode(self, monkeypatch):
        # The sweep-backed figure pipeline must reproduce the same
        # pinned table when the topology computes gains from positions
        # instead of caching the (N, N) matrix (in-process, one worker).
        monkeypatch.setattr(topology, "DENSE_MATERIALIZE_MAX", 0)
        sparse = run_fig2a(
            tiny_scenario(num_slots=10), tuple(sorted(GOLDEN_FIG2A))
        )
        for report in sparse.reports:
            upper, emp_lower, _ = GOLDEN_FIG2A[report.control_v]
            assert report.upper == pytest.approx(upper, rel=1e-9)
            assert report.relaxed_penalty == pytest.approx(emp_lower, rel=1e-6)


@pytest.mark.slow
class TestNightlyScale:
    """Fuller-horizon checks of the same claims (``pytest -m slow``)."""

    def test_fig2a_bounds_tighten_with_v(self):
        result = run_fig2a(
            small_scenario(num_slots=150), (1e4, 1e5, 1e6), max_workers=2
        )
        # Theorem 5: the formal floor psi*_P3bar - B/V sits below the
        # achieved cost everywhere and improves like 1/V.
        for report in result.reports:
            assert report.lower <= report.upper
        lowers = [r.lower for r in result.reports]
        assert lowers == sorted(lowers)
        # At large V the empirical anchor brackets the controller to
        # within a few percent (at V=1e4 the short horizon lets the
        # integral controller undercut the LP's penalty, so the
        # relative-gap check starts at 1e5).
        for report in result.reports[1:]:
            gap = report.upper - report.relaxed_penalty
            assert 0.0 <= gap < 0.05 * abs(report.upper)

    def test_fig2f_ordering_at_scale(self):
        result = run_fig2f(small_scenario(num_slots=200), (1e5, 3e5), max_workers=2)
        for v in (1e5, 3e5):
            assert result.steady_ordering_holds(v)
