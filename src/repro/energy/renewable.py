"""Renewable-generation processes.

The paper models each node's renewable output ``R_i(t)`` as an i.i.d.
process bounded by ``R_max`` (uniform in the evaluation).  Besides the
paper's :class:`UniformRenewableProcess`, this module provides a
deterministic-profile solar process and a Markov-modulated wind process
for the example scenarios.  All processes return *energy per slot* in
joules.  A node without renewables (``RenewableKind.ZERO``, the
"without renewable energy" baselines) gets no process: it reads 0 J
and owns no stream.

Each process draws from its node's own stream, one sample per observed
slot, and can draw ahead: :meth:`RenewableProcess.block` returns the
stream's part of the next ``k`` samples as one array, and
:meth:`RenewableProcess.slot_scale` the slot's factor on it (None when
the draws are the samples).  ``scale(slot) * block[j]`` is the float
that the ``j``-th later :meth:`~RenewableProcess.sample` call returns,
bit for bit, so a caller may draw every node's samples in blocks and
read one column per slot.  The uniform and solar blocks are one numpy
draw; the wind chain's next regime depends on its last, so its block
runs the chain draw by draw.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Sequence

import numpy as np

from repro.axes import AnyArray
from repro.constants import watts_over_slot_to_joules
from repro.units import Joules, Seconds, Watts


class RenewableProcess(abc.ABC):
    """Interface: per-slot renewable energy output of one node."""

    @abc.abstractmethod
    def sample(self, slot: int) -> Joules:
        """Energy harvested in ``slot`` (J), in ``[0, max_output_j]``."""

    @abc.abstractmethod
    def block(self, k: int) -> AnyArray:
        """The stream's part of the next ``k`` samples, as a ``(k,)`` array.

        Advances the stream exactly as ``k`` :meth:`sample` calls do.
        """

    def slot_scale(self, slot: int) -> Optional[float]:
        """The factor on a :meth:`block` draw read in ``slot``.

        None (the default) when the draws are the samples.
        """
        del slot
        return None

    @property
    @abc.abstractmethod
    def max_output_j(self) -> Joules:
        """The a.s. upper bound ``R_max * slot_seconds`` (J)."""


class UniformRenewableProcess(RenewableProcess):
    """I.i.d. uniform output on ``[0, max_power_w]`` (the paper's model)."""

    def __init__(
        self, max_power_w: Watts, slot_seconds: Seconds, rng: np.random.Generator
    ) -> None:
        if max_power_w < 0:
            raise ValueError(f"max power must be non-negative, got {max_power_w}")
        if slot_seconds <= 0:
            raise ValueError(f"slot length must be positive, got {slot_seconds}")
        self._max_output_j = watts_over_slot_to_joules(max_power_w, slot_seconds)
        self._rng = rng

    def sample(self, slot: int) -> Joules:
        del slot  # i.i.d. process
        return float(self._rng.uniform(0.0, self._max_output_j))

    def block(self, k: int) -> AnyArray:
        return self._rng.uniform(0.0, self._max_output_j, size=k)

    @property
    def max_output_j(self) -> Joules:
        return self._max_output_j


class DiurnalSolarProcess(RenewableProcess):
    """Solar output following a clipped-sine day/night profile.

    Output peaks at ``peak_power_w`` at mid-day and is zero at night;
    multiplicative uniform noise on ``[1 - noise, 1]`` models cloud
    cover.  One "day" spans ``slots_per_day`` slots.
    """

    def __init__(
        self,
        peak_power_w: Watts,
        slot_seconds: Seconds,
        rng: np.random.Generator,
        slots_per_day: int = 1440,
        noise: float = 0.3,
    ) -> None:
        if peak_power_w < 0:
            raise ValueError(f"peak power must be non-negative, got {peak_power_w}")
        if slot_seconds <= 0:
            raise ValueError(f"slot length must be positive, got {slot_seconds}")
        if slots_per_day < 1:
            raise ValueError(f"slots_per_day must be >= 1, got {slots_per_day}")
        if not 0.0 <= noise <= 1.0:
            raise ValueError(f"noise must be in [0, 1], got {noise}")
        self._max_output_j = watts_over_slot_to_joules(peak_power_w, slot_seconds)
        self._slots_per_day = slots_per_day
        self._noise = noise
        self._rng = rng

    def sample(self, slot: int) -> Joules:
        return self.slot_scale(slot) * self._rng.uniform(1.0 - self._noise, 1.0)

    def block(self, k: int) -> AnyArray:
        """The next ``k`` cloud factors; the irradiance is the slot's."""
        return self._rng.uniform(1.0 - self._noise, 1.0, size=k)

    def slot_scale(self, slot: int) -> float:
        """``max_output_j * irradiance(slot)``, the clear-sky output."""
        phase = 2.0 * math.pi * (slot % self._slots_per_day) / self._slots_per_day
        return self._max_output_j * max(0.0, math.sin(phase))

    @property
    def max_output_j(self) -> Joules:
        return self._max_output_j


class MarkovWindProcess(RenewableProcess):
    """Wind output driven by a small Markov chain over wind regimes.

    States are fractions of ``max_power_w`` (e.g. calm / breezy /
    windy); the chain adds temporal correlation that the i.i.d. model
    lacks, which matters for battery sizing studies.
    """

    def __init__(
        self,
        max_power_w: Watts,
        slot_seconds: Seconds,
        rng: np.random.Generator,
        levels: Sequence[float] = (0.1, 0.5, 0.9),
        persistence: float = 0.8,
    ) -> None:
        if max_power_w < 0:
            raise ValueError(f"max power must be non-negative, got {max_power_w}")
        if slot_seconds <= 0:
            raise ValueError(f"slot length must be positive, got {slot_seconds}")
        if not levels:
            raise ValueError("at least one wind level is required")
        if any(not 0.0 <= lv <= 1.0 for lv in levels):
            raise ValueError(f"levels must lie in [0, 1], got {levels!r}")
        if not 0.0 <= persistence <= 1.0:
            raise ValueError(f"persistence must be in [0, 1], got {persistence}")
        self._max_output_j = watts_over_slot_to_joules(max_power_w, slot_seconds)
        self._levels = list(levels)
        self._persistence = persistence
        self._rng = rng
        self._state = int(rng.integers(0, len(self._levels)))

    def sample(self, slot: int) -> Joules:
        del slot  # the chain carries its own state
        if self._rng.random() > self._persistence:
            self._state = int(self._rng.integers(0, len(self._levels)))
        # Small intra-state jitter so output is not piecewise constant.
        jitter = self._rng.uniform(0.9, 1.0)
        return self._max_output_j * self._levels[self._state] * jitter

    def block(self, k: int) -> AnyArray:
        # Each regime depends on the last, so the chain runs step by
        # step (``sample`` ignores its slot).
        return np.array([self.sample(0) for _ in range(k)])

    @property
    def max_output_j(self) -> Joules:
        return self._max_output_j
