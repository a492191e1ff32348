"""Unit tests for S1 link scheduling (all three algorithms)."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import paper_scenario, small_scenario, tiny_scenario
from repro.control import LinkScheduler, scheduler as scheduler_module
from repro.control.decisions import appearance_groups
from repro.core import compute_constants
from repro.core.drift import compute_drift_terms  # noqa: F401  (import check)
from repro.model import build_network_model
from repro.sim import SlotSimulator
from repro.state import NetworkState
from repro.types import SchedulerKind
from tests.helpers import link_tuples, link_view


@pytest.fixture
def observation(tiny_state):
    return tiny_state.observe(0)


def _h_for(model, value=10.0, links=None):
    chosen = links if links is not None else link_tuples(model.topology)
    return link_view(model, {link: value for link in chosen})


def _random_h(model, rng, low, high):
    return link_view(
        model,
        {
            link: float(rng.uniform(low, high))
            for link in link_tuples(model.topology)
        },
    )


class TestCandidateConstruction:
    def test_zero_backlog_schedules_nothing(
        self, tiny_model, tiny_constants, observation
    ):
        scheduler = LinkScheduler(tiny_model, tiny_constants)
        h = link_view(tiny_model, {})
        decision = scheduler.schedule(observation, h, np.flatnonzero(h))
        assert not decision.transmissions
        assert not decision.link_service_pkts

    def test_positive_backlog_schedules_something(
        self, tiny_model, tiny_constants, observation
    ):
        scheduler = LinkScheduler(tiny_model, tiny_constants)
        h = _h_for(tiny_model)
        decision = scheduler.schedule(observation, h, np.flatnonzero(h))
        assert decision.transmissions

    def test_forbidden_links_respected(
        self, tiny_model, tiny_constants, observation
    ):
        scheduler = LinkScheduler(tiny_model, tiny_constants)
        none_allowed = np.zeros(len(link_tuples(tiny_model.topology)), bool)
        h = _h_for(tiny_model)
        decision = scheduler.schedule(
            observation, h, np.flatnonzero(h), allowed_mask=none_allowed
        )
        assert not decision.transmissions


class TestSingleRadioConstraint:
    @pytest.mark.parametrize("kind", list(SchedulerKind))
    def test_constraint_22_holds(
        self, tiny_model, tiny_constants, observation, kind
    ):
        scheduler = LinkScheduler(tiny_model, tiny_constants, kind=kind)
        rng = np.random.default_rng(4)
        h = _random_h(tiny_model, rng, 1, 100)
        decision = scheduler.schedule(observation, h, np.flatnonzero(h))
        busy = []
        for t in decision.transmissions:
            busy.extend([t.tx, t.rx])
        assert len(busy) == len(set(busy)), "a node appears in two transmissions"

    @pytest.mark.parametrize("kind", list(SchedulerKind))
    def test_all_transmissions_meet_sinr(
        self, tiny_model, tiny_constants, observation, kind
    ):
        scheduler = LinkScheduler(tiny_model, tiny_constants, kind=kind)
        h = _h_for(tiny_model, 50.0)
        decision = scheduler.schedule(observation, h, np.flatnonzero(h))
        params = tiny_model.params
        for target in decision.transmissions:
            noise = tiny_model.noise_power_w(
                observation.bands.bandwidth(target.band)
            )
            interference = sum(
                tiny_model.topology.pair_gains[other.tx, target.rx] * other.power_w
                for other in decision.transmissions
                if other.band == target.band and other.link != target.link
            )
            achieved = (
                tiny_model.topology.pair_gains[target.tx, target.rx]
                * target.power_w
                / (noise + interference)
            )
            assert achieved >= params.sinr_threshold * (1 - 1e-9)

    def test_powers_respect_caps(self, tiny_model, tiny_constants, observation):
        scheduler = LinkScheduler(tiny_model, tiny_constants)
        h = _h_for(tiny_model, 50.0)
        decision = scheduler.schedule(observation, h, np.flatnonzero(h))
        for t in decision.transmissions:
            assert 0 < t.power_w <= tiny_model.max_power_w[t.tx] * (1 + 1e-9)


class TestAlgorithmQuality:
    @staticmethod
    def _weight_of(decision, h, beta):
        return sum(
            beta * h[pos] * service
            for pos, service in zip(decision.service_pos, decision.service_pkts)
        )

    def test_matching_beats_or_equals_greedy(
        self, tiny_model, tiny_constants, observation
    ):
        rng = np.random.default_rng(7)
        for trial in range(5):
            h = _random_h(tiny_model, rng, 0, 100)
            exact = LinkScheduler(
                tiny_model, tiny_constants, kind=SchedulerKind.MAX_WEIGHT_MATCHING
            ).schedule(observation, h, np.flatnonzero(h))
            greedy = LinkScheduler(
                tiny_model, tiny_constants, kind=SchedulerKind.GREEDY
            ).schedule(observation, h, np.flatnonzero(h))
            # Compare pre-power-control activation weight: count only
            # served links (power control is shared).
            beta = tiny_constants.beta
            assert (
                self._weight_of(exact, h, beta)
                >= self._weight_of(greedy, h, beta) - 1e-6
            )

    def test_sequential_fix_close_to_matching(
        self, tiny_model, tiny_constants, observation
    ):
        rng = np.random.default_rng(11)
        h = _random_h(tiny_model, rng, 1, 100)
        exact = LinkScheduler(
            tiny_model, tiny_constants, kind=SchedulerKind.MAX_WEIGHT_MATCHING
        ).schedule(observation, h, np.flatnonzero(h))
        sf = LinkScheduler(
            tiny_model, tiny_constants, kind=SchedulerKind.SEQUENTIAL_FIX
        ).schedule(observation, h, np.flatnonzero(h))
        beta = tiny_constants.beta
        exact_weight = self._weight_of(exact, h, beta)
        sf_weight = self._weight_of(sf, h, beta)
        assert sf_weight >= 0.5 * exact_weight

    def test_greedy_picks_heaviest_link(
        self, tiny_model, tiny_constants, observation
    ):
        links = list(link_tuples(tiny_model.topology))
        heavy = links[0]
        values = {link: 1.0 for link in links}
        values[heavy] = 1e6
        h = link_view(tiny_model, values)
        decision = LinkScheduler(
            tiny_model, tiny_constants, kind=SchedulerKind.GREEDY
        ).schedule(observation, h, np.flatnonzero(h))
        scheduled_links = {t.link for t in decision.transmissions}
        assert heavy in scheduled_links


class TestEnergyAwareWeights:
    def test_high_price_suppresses_scheduling(
        self, tiny_model, tiny_constants, observation
    ):
        scheduler = LinkScheduler(tiny_model, tiny_constants)
        h = _h_for(tiny_model, 1.0)  # tiny backlog value
        expensive = np.full(tiny_model.num_nodes, 1e18)
        decision = scheduler.schedule(
            observation, h, np.flatnonzero(h), energy_prices=expensive
        )
        assert not decision.transmissions

    def test_zero_price_matches_paper_weights(
        self, tiny_model, tiny_constants, observation
    ):
        scheduler = LinkScheduler(tiny_model, tiny_constants)
        h = _h_for(tiny_model, 25.0)
        free = np.zeros(tiny_model.num_nodes)
        with_prices = scheduler.schedule(observation, h, np.flatnonzero(h), energy_prices=free)
        without = scheduler.schedule(observation, h, np.flatnonzero(h), energy_prices=None)
        assert with_prices.link_service_pkts == without.link_service_pkts

    def test_price_diverts_to_cheap_transmitter(
        self, tiny_model, tiny_constants, observation
    ):
        # Price only the base station: user-to-user links win ties.
        scheduler = LinkScheduler(tiny_model, tiny_constants)
        h = _h_for(tiny_model, 1e-3)
        prices = np.zeros(tiny_model.num_nodes)
        prices[list(tiny_model.bs_ids)] = 1e15
        decision = scheduler.schedule(observation, h, np.flatnonzero(h), energy_prices=prices)
        assert all(
            t.tx not in tiny_model.bs_ids and t.rx not in tiny_model.bs_ids
            for t in decision.transmissions
        )


class TestSinrAwareSequentialFix:
    def test_selection_survives_power_control(
        self, tiny_model, tiny_constants, observation
    ):
        """The interference-aware relaxation should not pick link sets
        that power control must then drop."""
        scheduler = LinkScheduler(
            tiny_model, tiny_constants, kind=SchedulerKind.SEQUENTIAL_FIX_SINR
        )
        rng = np.random.default_rng(8)
        for _ in range(3):
            h = _random_h(tiny_model, rng, 1, 100)
            decision = scheduler.schedule(observation, h, np.flatnonzero(h))
            assert not decision.dropped

    def test_matches_plain_sf_when_interference_free(
        self, tiny_model, tiny_constants, observation
    ):
        # A single backlogged link has no co-band coupling: both SF
        # variants must schedule it.
        link = link_tuples(tiny_model.topology)[0]
        h = link_view(tiny_model, {link: 50.0})
        plain = LinkScheduler(
            tiny_model, tiny_constants, kind=SchedulerKind.SEQUENTIAL_FIX
        ).schedule(observation, h, np.flatnonzero(h))
        aware = LinkScheduler(
            tiny_model, tiny_constants, kind=SchedulerKind.SEQUENTIAL_FIX_SINR
        ).schedule(observation, h, np.flatnonzero(h))
        assert {t.link for t in plain.transmissions} == {link}
        assert {t.link for t in aware.transmissions} == {link}

    @pytest.mark.slow
    def test_paper_scale_run_survives_a_late_tolerance_verdict(self):
        # Slot 38 of this run solves a relaxation that HiGHS declares
        # infeasible after a rejected trial fix, although it accepted
        # the same fixings one solve earlier (see ``sequential_fix``).
        params = paper_scenario(num_slots=100, seed=2014)
        simulator = SlotSimulator.integral(
            params, scheduler_kind=SchedulerKind.SEQUENTIAL_FIX_SINR
        )
        for slot in range(39):
            simulator.step(slot)


def _lexsort_greedy(model, active, keep, weight, links):
    """The unpruned GREEDY selector, kept as the oracle.

    Every ``(link, band)`` survivor in ``np.lexsort`` order on the four
    keys ``(-weight, tx, rx, band)``, then the radio-budget conflict
    scan.
    """
    link_tx, link_rx = model.topology.link_tx, model.topology.link_rx
    rows, bands = np.nonzero(keep.T)  # the grid is band-major
    link_pos = active[rows]
    tx_arr = link_tx[link_pos]
    rx_arr = link_rx[link_pos]
    order = np.lexsort((bands, rx_arr, tx_arr, -weight[bands, rows]))
    params = model.params
    radios = model.node_vector(
        params.bs_node.num_radios, params.user_node.num_radios, dtype=int
    ).tolist()
    usage = [0] * model.num_nodes
    band_used = set()
    chosen_pos, chosen_band = [], []
    for i in order.tolist():
        tx, rx, band = int(tx_arr[i]), int(rx_arr[i]), int(bands[i])
        if usage[tx] >= radios[tx] or usage[rx] >= radios[rx]:
            continue
        if (tx, band) in band_used or (rx, band) in band_used:
            continue
        chosen_pos.append(int(link_pos[i]))
        chosen_band.append(band)
        usage[tx] += 1
        usage[rx] += 1
        band_used.update(((tx, band), (rx, band)))
    return chosen_pos, chosen_band


#: Selection-equality models: the paper's single radio, a three-radio
#: base station beside single-radio users (pruning on some rows, not
#: others), and both with every band 1 MHz wide, so a row's bands tie;
#: then the 10-node ``small`` scenario, whose selections take several
#: rounds, with single radios and with three-radio stations beside
#: two-radio users (every row keeps its bands, so bands clash).
_GRID_CASES = (
    "single",
    "mixed",
    "single_flat",
    "mixed_flat",
    "small_single",
    "small_multi",
    "small_multi_flat",
)
_SMALL_CASES = tuple(case for case in _GRID_CASES if case.startswith("small"))


@functools.lru_cache(maxsize=None)
def _grid_case(name):
    words = name.split("_")
    params = small_scenario() if "small" in words else tiny_scenario()
    radios = {"mixed": (3, 1), "multi": (3, 2)}
    for word, (bs_radios, user_radios) in radios.items():
        if word in words:
            params = dataclasses.replace(
                params,
                bs_node=dataclasses.replace(params.bs_node, num_radios=bs_radios),
                user_node=dataclasses.replace(params.user_node, num_radios=user_radios),
            )
    if "flat" in words:
        params = dataclasses.replace(
            params,
            spectrum=dataclasses.replace(
                params.spectrum, random_bandwidth_range_hz=(1e6, 1e6)
            ),
        )
    model = build_network_model(params, np.random.default_rng(params.seed))
    constants = compute_constants(model)
    observation = NetworkState(
        model, constants, np.random.default_rng(99)
    ).observe(0)
    return model, constants, observation


def _greedy_grid(name, h_values, prices):
    """A GREEDY scheduler on case ``name`` and its candidate grid."""
    model, constants, observation = _grid_case(name)
    links = link_tuples(model.topology)
    scheduler = LinkScheduler(model, constants, kind=SchedulerKind.GREEDY)
    h = link_view(model, dict(zip(links, h_values)))
    return scheduler, scheduler._candidate_grid(
        observation, h, np.flatnonzero(h), prices
    )


class TestGreedySelectionEquality:
    """Pruning single-radio rows to their best band changes no selection."""

    @settings(max_examples=80, deadline=None)
    @given(case=st.sampled_from(_GRID_CASES), data=st.data())
    def test_matches_lexsort_scan(self, case, data):
        model, _, _ = _grid_case(case)
        links = link_tuples(model.topology)
        # A few repeated values force exact weight ties across links;
        # prices this size cut some bands, or every band, of a row.
        h_values = data.draw(
            st.lists(
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                min_size=len(links),
                max_size=len(links),
            )
        )
        prices = data.draw(
            st.none()
            | st.lists(
                st.sampled_from([0.0, 3e4, 1e5, 3e5]),
                min_size=model.num_nodes,
                max_size=model.num_nodes,
            ).map(np.array)
        )
        scheduler, grid = _greedy_grid(case, h_values, prices)
        if grid is None:
            return
        active, keep, weight = grid
        assert scheduler._select_greedy(
            active, keep, weight
        ) == _lexsort_greedy(model, active, keep, weight, links)

    @pytest.mark.parametrize("case", _GRID_CASES)
    def test_cases_exercise_the_pruning(self, case):
        model, _, _ = _grid_case(case)
        links = link_tuples(model.topology)
        _, grid = _greedy_grid(case, [1.0] * len(links), None)
        active, keep, weight = grid
        link_tx, link_rx = model.topology.link_tx, model.topology.link_rx
        params = model.params
        radios = model.node_vector(
            params.bs_node.num_radios, params.user_node.num_radios, dtype=int
        )
        single = (radios[link_tx[active]] == 1) & (radios[link_rx[active]] == 1)
        several = keep.sum(axis=0) > 1
        words = case.split("_")
        assert (single & several).any() == ("multi" not in words)
        assert (~single & several).any() == ("single" not in words)
        if case.endswith("flat"):
            kept = np.where(keep, weight, np.nan)
            assert (np.nanmax(kept, axis=0) == np.nanmin(kept, axis=0)).all()


    @pytest.mark.parametrize("case", _SMALL_CASES)
    def test_small_cases_take_several_rounds(self, case, monkeypatch):
        model, _, _ = _grid_case(case)
        links = link_tuples(model.topology)
        rounds = []
        kernel = scheduler_module._greedy_rounds

        def counting(*args):
            picks, taken = kernel(*args)
            rounds.append(taken)
            return picks, taken

        monkeypatch.setattr(scheduler_module, "_greedy_rounds", counting)
        rng = np.random.default_rng(5)
        for _ in range(20):
            h_values = rng.choice([0.5, 1.0, 2.0, 3.0], len(links)).tolist()
            scheduler, grid = _greedy_grid(case, h_values, None)
            active, keep, weight = grid
            assert scheduler._select_greedy(
                active, keep, weight
            ) == _lexsort_greedy(model, active, keep, weight, links)
        assert max(rounds) >= 3


def _scan_greedy(tx, rx, band, weight, key, radios):
    """The conflict scan over ``np.lexsort((key, -weight))`` (the oracle)."""
    usage = [0] * len(radios)
    band_used = set()
    picks = []
    for i in np.lexsort((key, -weight)).tolist():
        t, r, b = int(tx[i]), int(rx[i]), int(band[i])
        if usage[t] >= radios[t] or usage[r] >= radios[r]:
            continue
        if (t, b) in band_used or (r, b) in band_used:
            continue
        picks.append(i)
        usage[t] += 1
        usage[r] += 1
        band_used.update(((t, b), (r, b)))
    return picks


def _kernel_case(num_nodes, triples, weight, radios, num_bands):
    """Candidate arrays for ``_greedy_rounds`` with the scheduler's key."""
    tx, rx, band = (np.array(column, dtype=np.intp) for column in zip(*triples))
    key = (tx * np.int64(num_nodes) + rx) * num_bands + band
    return tx, rx, band, np.asarray(weight, dtype=float), key, np.asarray(radios)


class TestGreedyRounds:
    """The round kernel against the scan, on hand-made candidate sets."""

    @pytest.mark.parametrize("num_nodes", [2, 3, 8, 41])
    def test_falling_weight_path_takes_one_pick_per_round(self, num_nodes):
        # Link i joins nodes i and i + 1 and outweighs link i + 1: only
        # the path's head is first at both ends, so each round settles
        # one pick and drops its successor.
        triples = [(i, i + 1, 0) for i in range(num_nodes - 1)]
        weight = np.arange(num_nodes - 1, 0, -1)
        case = _kernel_case(num_nodes, triples, weight, [1] * num_nodes, 1)
        picks, rounds = scheduler_module._greedy_rounds(*case, 1)
        assert picks.tolist() == list(range(0, num_nodes - 1, 2))
        assert picks.tolist() == _scan_greedy(*case)
        assert rounds == picks.size

    @pytest.mark.parametrize("seed", range(6))
    def test_equal_weights_break_ties_by_key(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes, num_bands = 12, 3
        triples = sorted(
            {
                (int(t), int(r), int(b))
                for t, r, b in zip(
                    rng.integers(0, num_nodes, 60),
                    rng.integers(0, num_nodes, 60),
                    rng.integers(0, num_bands, 60),
                )
                if t != r
            }
        )
        order = rng.permutation(len(triples))
        triples = [triples[i] for i in order]
        radios = rng.integers(1, 4, num_nodes)
        case = _kernel_case(num_nodes, triples, np.ones(len(triples)), radios, num_bands)
        picks, _ = scheduler_module._greedy_rounds(*case, num_bands)
        want = _scan_greedy(*case)
        assert picks.tolist() == want
        # Equal weights: the scan's order is the key order itself.
        assert np.all(np.diff(case[4][picks]) > 0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_graphs_match_the_scan(self, data):
        num_nodes = data.draw(st.integers(2, 10))
        num_bands = data.draw(st.integers(1, 3))
        node = st.integers(0, num_nodes - 1)
        triples = data.draw(
            st.lists(
                st.tuples(node, node, st.integers(0, num_bands - 1)).filter(
                    lambda c: c[0] != c[1]
                ),
                min_size=1,
                max_size=40,
                unique=True,
            )
        )
        weight = data.draw(
            st.lists(st.integers(1, 4), min_size=len(triples), max_size=len(triples))
        )
        radios = data.draw(
            st.lists(st.integers(1, 3), min_size=num_nodes, max_size=num_nodes)
        )
        case = _kernel_case(num_nodes, triples, weight, radios, num_bands)
        picks, rounds = scheduler_module._greedy_rounds(*case, num_bands)
        assert picks.tolist() == _scan_greedy(*case)
        assert 1 <= rounds <= picks.size

    def test_no_candidates(self):
        empty = np.zeros(0, dtype=np.intp)
        picks, rounds = scheduler_module._greedy_rounds(
            empty, empty, empty, np.zeros(0), empty.astype(np.int64), np.ones(3, np.intp), 2
        )
        assert picks.size == 0 and rounds == 0


def _unique_groups(values):
    """``appearance_groups`` as ``np.unique`` computes it (the oracle)."""
    uniq, first, inverse, counts = np.unique(
        values, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    group = np.empty_like(order)
    group[order] = np.arange(order.size)
    return group[inverse], uniq[order], counts[order]


class TestAppearanceGroups:
    """Sort plus neighbour compare groups exactly as ``np.unique`` does."""

    @pytest.mark.parametrize(
        "values",
        [[], [7], [4, 4, 4, 4], [3, 1, 3, 2, 1, 0], [-2, 5, -2, 9, 5]],
        ids=["empty", "single", "all_equal", "mixed", "negative"],
    )
    def test_edge_cases_match_np_unique(self, values):
        values = np.array(values, dtype=np.intp)
        got = appearance_groups(values)
        expected = _unique_groups(values)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            assert a.tolist() == b.tolist()

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(0, 12), max_size=60))
    def test_random_inputs_match_np_unique(self, values):
        values = np.array(values, dtype=np.intp)
        for a, b in zip(appearance_groups(values), _unique_groups(values)):
            assert a.tolist() == b.tolist()


def _string_rank(triples):
    """Rank of each ``repr((tx, rx, band))`` in string order (the oracle
    the SF tie-break was recorded with)."""
    text = [repr(tuple(triple)) for triple in triples]
    rank = np.empty(len(text), dtype=np.intp)
    rank[np.argsort(np.array(text))] = np.arange(len(text))
    return rank.tolist()


def _integer_rank(triples):
    tx, rx, band = (
        np.array([triple[i] for triple in triples], dtype=np.intp) for i in range(3)
    )
    cand = scheduler_module._Candidates(
        np.arange(tx.size), tx, rx, band, np.zeros(tx.size)
    )
    return scheduler_module._repr_rank(cand).tolist()


class TestReprRank:
    """The integer SF tie-break key orders as the ``repr`` strings do."""

    @pytest.mark.parametrize(
        "triples",
        [
            [],
            [(3, 4, 0)],
            [(1, 0, 0), (10, 0, 0), (100, 0, 0), (12, 0, 0), (2, 0, 0)],
            [(0, 10, 1), (0, 1, 10), (0, 1, 1), (0, 100, 0), (0, 0, 0)],
            [(9, 9, 9), (10, 9, 9), (99, 0, 0), (100, 0, 0), (999, 1, 0), (1000, 1, 0)],
            [(5, 1, 2), (5, 12, 0), (5, 1, 10), (5, 10, 1), (51, 0, 0), (5, 0, 9)],
            [(123456, 7, 3), (12345, 70, 3), (1234567, 0, 3), (2, 999999, 4)],
        ],
        ids=["empty", "single", "tx-prefixes", "rx-band-prefixes", "powers-of-ten",
             "mixed-widths", "wide"],
    )
    def test_edge_cases_match_strings(self, triples):
        assert _integer_rank(triples) == _string_rank(triples)

    def test_random_candidate_sets_match_strings(self):
        rng = np.random.default_rng(2014)
        for _ in range(500):
            high = int(rng.choice([10, 100, 1000, 10**6]))
            size = int(rng.integers(0, 40))
            fields = rng.integers(0, high, (size, 2)), rng.integers(0, 12, (size, 1))
            triples = list({tuple(row) for row in np.hstack(fields).tolist()})
            assert _integer_rank(triples) == _string_rank(triples)
