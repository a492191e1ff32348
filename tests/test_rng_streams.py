"""Tests for the named RNG streams and replication child-seed derivation.

Two families of guarantees are pinned here:

* **independence** — the ``topology`` / ``environment`` / ``controller``
  streams of one seed are statistically independent (no
  cross-correlation), so drawing more tie-break variates can never
  shift the environment sample path;
* **stability** — the stream layout and the ``SeedSequence.spawn``
  child-key derivation are part of the reproducibility contract, so
  first-draw values are pinned as goldens (numpy documents the
  ``SeedSequence`` hashing algorithm as stable across versions, and
  these tests turn that promise into a regression gate).

:func:`~repro.sim.rng.spawn_child` must build exactly the generator
``Generator.spawn`` would, for any child index and spawn key.
"""

import numpy as np
import pytest

from repro.sim.rng import STREAM_NAMES, RngStreams, spawn_child, spawn_child_keys

#: Golden first draws of ``RngStreams(2014)`` (regenerate with
#: ``RngStreams(2014).<stream>.random()`` and update alongside a
#: changelog note if the stream layout ever changes deliberately).
GOLDEN_FIRST_DRAWS = {
    "topology": 0.4922568935522571,
    "environment": 0.7511680748899902,
    "controller": 0.22630656886350253,
}

#: Golden first environment draws of the first two replication children
#: of seed 2014 (spawn keys ``(0,)`` and ``(1,)``).
GOLDEN_CHILD_ENV_DRAWS = {
    (0,): 0.4240437866685328,
    (1,): 0.11833046332840025,
}


class TestStreamIndependence:
    def test_streams_are_distinct(self):
        streams = RngStreams(123)
        draws = {
            name: streams.stream(name).random(8).tolist()
            for name in STREAM_NAMES
        }
        assert draws["topology"] != draws["environment"]
        assert draws["environment"] != draws["controller"]
        assert draws["topology"] != draws["controller"]

    @pytest.mark.parametrize(
        "a,b",
        [
            ("topology", "environment"),
            ("topology", "controller"),
            ("environment", "controller"),
        ],
    )
    def test_no_cross_correlation(self, a, b):
        streams = RngStreams(2014)
        x = streams.stream(a).random(4096)
        y = streams.stream(b).random(4096)
        corr = float(np.corrcoef(x, y)[0, 1])
        assert abs(corr) < 0.05, f"{a}/{b} draws correlate: {corr:.4f}"

    def test_environment_path_immune_to_controller_draws(self):
        # The paired-comparison property: consuming a different number
        # of controller variates must not move the environment stream.
        one = RngStreams(7)
        two = RngStreams(7)
        two.controller.random(1000)
        assert one.environment.random(16).tolist() == two.environment.random(16).tolist()

    def test_unknown_stream_rejected(self):
        with pytest.raises(KeyError):
            RngStreams(1).stream("nonexistent")


class TestGoldenDraws:
    @pytest.mark.parametrize("name", STREAM_NAMES)
    def test_root_first_draw(self, name):
        # Exact equality on purpose: any drift in numpy's SeedSequence
        # hashing or in our spawn layout must fail loudly.
        assert RngStreams(2014).stream(name).random() == GOLDEN_FIRST_DRAWS[name]

    @pytest.mark.parametrize("key", sorted(GOLDEN_CHILD_ENV_DRAWS))
    def test_child_first_draw(self, key):
        streams = RngStreams(2014, key)
        assert streams.environment.random() == GOLDEN_CHILD_ENV_DRAWS[key]


class TestChildSeedDerivation:
    def test_child_keys_match_spawn_paths(self):
        assert spawn_child_keys(2014, 3) == ((0,), (1,), (2,))
        assert spawn_child_keys(2014, 2, (1,)) == ((1, 0), (1, 1))

    def test_child_keys_independent_of_seed_value(self):
        # Spawn keys are path indices; the seed selects the entropy,
        # not the key layout.
        assert spawn_child_keys(1, 4) == spawn_child_keys(999, 4)

    def test_children_are_deterministic(self):
        a = RngStreams(42, (3,)).environment.random(16)
        b = RngStreams(42, (3,)).environment.random(16)
        assert a.tolist() == b.tolist()

    def test_children_are_distinct(self):
        draws = {
            key: RngStreams(42, key).environment.random(4).tolist()
            for key in spawn_child_keys(42, 5)
        }
        unique = {tuple(d) for d in draws.values()}
        assert len(unique) == len(draws)

    def test_child_differs_from_root(self):
        root = RngStreams(42).environment.random(8).tolist()
        child = RngStreams(42, (0,)).environment.random(8).tolist()
        assert root != child

    def test_spawn_key_normalised_to_int_tuple(self):
        streams = RngStreams(5, [np.int64(2), np.int64(7)])
        assert streams.spawn_key == (2, 7)

    def test_default_spawn_key_is_root(self):
        # ``SeedSequence(seed)`` and ``SeedSequence(seed, spawn_key=())``
        # are the same sequence; the two-argument form must not perturb
        # historical single-argument behaviour.
        assert (
            RngStreams(2014).environment.random(16).tolist()
            == RngStreams(2014, ()).environment.random(16).tolist()
        )

    def test_negative_child_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_child_keys(1, -1)


class TestSpawnChild:
    """One child built alone equals the same child of ``Generator.spawn``."""

    @staticmethod
    def _parent(seed, key):
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))
        )

    @pytest.mark.parametrize("key", [(), (3,), (0, 7), (2, 1, 5)])
    @pytest.mark.parametrize("index", [0, 1, 9, 40])
    def test_matches_generator_spawn(self, key, index):
        expected = self._parent(2014, key).spawn(index + 3)[index]
        child = spawn_child(self._parent(2014, key), index)
        assert type(child.bit_generator) is type(expected.bit_generator)
        assert child.bit_generator.state == expected.bit_generator.state
        assert child.random(8).tobytes() == expected.random(8).tobytes()

    def test_counts_from_the_parents_spawn_counter(self):
        parent = self._parent(11, (4,))
        built = spawn_child(parent, 2)
        parent.spawn(5)  # children 0-4 taken: the next spawn starts at 5
        later = spawn_child(parent, 2)
        expected = self._parent(11, (4,)).spawn(8)
        assert built.random() == expected[2].random()
        assert later.random() == expected[7].random()

    def test_keeps_the_bit_generator_type(self):
        parent = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
        expected = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
        child = spawn_child(parent, 3)
        assert isinstance(child.bit_generator, np.random.Philox)
        assert child.random() == expected.spawn(4)[3].random()

    def test_parent_unchanged(self):
        parent = self._parent(2014, ())
        before = parent.bit_generator.state
        spawn_child(parent, 6)
        assert parent.bit_generator.state == before
        assert parent.bit_generator.seed_seq.n_children_spawned == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            spawn_child(self._parent(1, ()), -1)
