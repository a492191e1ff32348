"""Deterministic, stream-separated random number generation.

A single scenario seed fans out into independent named streams — one
for topology/placement, one for the stochastic environment (bandwidths,
renewables, grid connectivity), one for controller tie-breaking — via
``numpy``'s ``SeedSequence.spawn``.  Two runs that share a seed see the
*identical* environment sample path even if their controllers draw a
different number of tie-break variates, which is what makes the
upper/lower bound and architecture comparisons paired comparisons.

Replication (many independent environments per scenario) reuses the
same machinery one level up: a replication's streams are rooted at
``SeedSequence(seed, spawn_key=key)`` where ``key`` is the spawn key of
a child spawned from the scenario's root sequence
(:func:`spawn_child_keys`).  Spawn keys are plain integer tuples, so a
replication is fully described by ``(seed, spawn_key)`` — pickle-safe,
order-independent, and stable across processes, Python versions and
numpy versions (the ``SeedSequence`` hashing algorithm is part of
numpy's public stability contract).

:func:`spawn_child` builds one child of a generator's spawn family
without building its siblings, so a component that never draws costs
no stream.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

#: The canonical stream names, in spawn order (order is part of the
#: reproducibility contract — do not reorder).
STREAM_NAMES = ("topology", "environment", "controller")

#: A ``SeedSequence`` spawn key: the path of child indices from the
#: root sequence.  ``()`` is the root itself.
SpawnKey = Tuple[int, ...]


def spawn_child_keys(
    seed: int, num_children: int, base: Sequence[int] = ()
) -> Tuple[SpawnKey, ...]:
    """Spawn keys of the first ``num_children`` children of a root.

    Derives the children through an actual ``SeedSequence.spawn`` call
    (not arithmetic on tuples) so the derivation is exactly numpy's:
    child ``i`` of ``SeedSequence(seed, spawn_key=base)`` carries
    ``spawn_key == tuple(base) + (i,)``.  The returned keys feed
    :class:`RngStreams` via its ``spawn_key`` argument.
    """
    if num_children < 0:
        raise ValueError(f"num_children must be >= 0, got {num_children}")
    root = np.random.SeedSequence(seed, spawn_key=tuple(base))
    return tuple(tuple(child.spawn_key) for child in root.spawn(num_children))


def spawn_child(parent: np.random.Generator, index: int) -> np.random.Generator:
    """Child ``index`` of ``parent``'s next spawn call, built alone.

    Bit for bit ``parent.spawn(n)[index]`` for any ``n > index``: the
    child is seeded by ``SeedSequence(entropy, spawn_key=key + (k,),
    pool_size=...)`` with ``k`` the parent's spawn counter plus
    ``index``, and has the parent's bit-generator type.  The parent's
    counter does not advance, so building children ``0`` and ``5``
    costs two streams, not six.
    """
    if index < 0:
        raise ValueError(f"child index must be >= 0, got {index}")
    bit_generator = parent.bit_generator
    seed = bit_generator.seed_seq
    child = np.random.SeedSequence(
        seed.entropy,
        spawn_key=tuple(seed.spawn_key) + (seed.n_children_spawned + index,),
        pool_size=seed.pool_size,
    )
    return np.random.Generator(type(bit_generator)(child))


class RngStreams:
    """Named, independent RNG streams derived from one seed.

    Args:
        seed: the scenario seed.
        spawn_key: optional ``SeedSequence`` spawn key selecting a
            derived child root (replication).  The default ``()`` is
            the root sequence itself, byte-identical to the historical
            single-argument behaviour.
    """

    def __init__(self, seed: int, spawn_key: Sequence[int] = ()) -> None:
        self.seed = seed
        self.spawn_key: SpawnKey = tuple(int(k) for k in spawn_key)
        root = np.random.SeedSequence(seed, spawn_key=self.spawn_key)
        children = root.spawn(len(STREAM_NAMES))
        self._streams: Dict[str, np.random.Generator] = {
            name: np.random.default_rng(child)
            for name, child in zip(STREAM_NAMES, children)
        }

    @property
    def topology(self) -> np.random.Generator:
        """Placement, spectrum access sets, session destinations."""
        return self._streams["topology"]

    @property
    def environment(self) -> np.random.Generator:
        """Bandwidths, renewable outputs, grid connectivity."""
        return self._streams["environment"]

    @property
    def controller(self) -> np.random.Generator:
        """Controller tie-breaking (source/session random picks)."""
        return self._streams["controller"]

    def stream(self, name: str) -> np.random.Generator:
        """A stream by name; raises ``KeyError`` for unknown names."""
        return self._streams[name]
