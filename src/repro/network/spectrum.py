"""Spectrum bands: static access sets and stochastic bandwidths.

The paper models each band's bandwidth ``W_m(t)`` as a random process
observed at the start of every slot.  Band 0 is the fixed-bandwidth
cellular band that every node can access; the remaining bands have
i.i.d. uniform bandwidths, and each mobile user is granted access to a
random (static) subset of them, while base stations access all bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.axes import NodeBandMat
from repro.config.parameters import ScenarioParameters
from repro.exceptions import SpectrumError
from repro.types import BandId, NodeId


@dataclass(frozen=True)
class SpectrumBand:
    """Static description of one spectrum band.

    Attributes:
        band_id: dense integer id; 0 is the cellular band.
        fixed_bandwidth_hz: bandwidth if deterministic, else None.
        bandwidth_range_hz: (low, high) of the uniform draw if random.
    """

    band_id: BandId
    fixed_bandwidth_hz: float = 0.0
    bandwidth_range_hz: Tuple[float, float] = (0.0, 0.0)

    @property
    def is_random(self) -> bool:
        """True when the bandwidth is redrawn every slot."""
        return self.fixed_bandwidth_hz <= 0.0

    @property
    def max_bandwidth_hz(self) -> float:
        """Largest bandwidth this band can take in any slot."""
        if self.is_random:
            return self.bandwidth_range_hz[1]
        return self.fixed_bandwidth_hz


@dataclass(frozen=True)
class BandState:
    """Realised bandwidths ``W_m(t)`` for one slot."""

    slot: int
    bandwidths_hz: Tuple[float, ...]

    def bandwidth(self, band: BandId) -> float:
        """Bandwidth of ``band`` in this slot (Hz)."""
        if not 0 <= band < len(self.bandwidths_hz):
            raise SpectrumError(f"unknown band id {band}")
        return self.bandwidths_hz[band]


class MarkovBandAvailability:
    """Per-(user, band) Markov on/off availability (extension).

    The paper keeps each node's accessible set ``M_i`` static; its
    cognitive-radio references model primary-user activity that
    blocks a band at a location for stretches of time.  Each (user,
    random band) pair carries a two-state Markov chain: with
    probability ``persistence`` the state survives a slot, otherwise
    it resamples to "on" with probability ``on_prob``.  Base stations
    and the cellular band are never blocked.

    The chains are one ``(U, M-1)`` bool table: row ``u`` is node
    ``first_user + u``, column ``b`` is band ``1 + b``.

    Args:
        first_user: node row of the first user (users hold the rows
            ``first_user .. first_user + num_users - 1``).
        num_users: user count ``U``.
        num_bands: band count ``M``, the cellular band 0 included.
        rng: generator for the initial states and the transitions.
    """

    def __init__(
        self,
        first_user: NodeId,
        num_users: int,
        num_bands: int,
        rng: np.random.Generator,
        on_prob: float = 0.7,
        persistence: float = 0.9,
    ) -> None:
        if not 0.0 <= on_prob <= 1.0:
            raise SpectrumError(f"on_prob must be in [0, 1], got {on_prob}")
        if not 0.0 <= persistence <= 1.0:
            raise SpectrumError(
                f"persistence must be in [0, 1], got {persistence}"
            )
        self._users = slice(first_user, first_user + num_users)
        self._rng = rng
        self._on_prob = on_prob
        self._persistence = persistence
        # One draw per chain in C order: user by user, band by band.
        self._on = rng.random((num_users, num_bands - 1)) < on_prob
        self._last_slot = 0

    def advance_to(self, slot: int) -> None:
        """Step every chain forward to ``slot`` (monotone slots only).

        The chains step one by one in C order: each draws once, and
        again only if it resamples, so the draw count depends on each
        chain's own outcome.
        """
        if slot < self._last_slot:
            raise SpectrumError(
                f"availability cannot rewind: slot {slot} after {self._last_slot}"
            )
        chains = self._on.reshape(-1)
        while self._last_slot < slot:
            self._last_slot += 1
            for k in range(chains.shape[0]):
                if self._rng.random() >= self._persistence:
                    chains[k] = self._rng.random() < self._on_prob

    def mask(self, access: NodeBandMat) -> NodeBandMat:
        """Apply the current blocks to an ``(N, M)`` access table.

        Returns a copy whose user rows and random-band columns are
        ANDed with the chains; base-station rows and the cellular band
        keep their cells.
        """
        out = access.copy()
        out[self._users, 1:] &= self._on
        return out


class SpectrumModel:
    """Band population, per-node access sets, and the bandwidth process.

    Access sets are drawn once at construction (geography is static in
    the paper's model) and stored as one ``(N, M)`` bool table, row
    ``i`` being node ``i``'s set ``M_i``; bandwidths are redrawn from
    ``rng`` each slot.
    """

    def __init__(
        self,
        bands: List[SpectrumBand],
        access: NodeBandMat,
        rng: np.random.Generator,
    ) -> None:
        if not bands:
            raise SpectrumError("at least one band is required")
        self._bands = tuple(bands)
        self._access = access
        self._rng = rng

    @property
    def bands(self) -> Tuple[SpectrumBand, ...]:
        """All bands ordered by id."""
        return self._bands

    @property
    def num_bands(self) -> int:
        """Number of bands ``M``."""
        return len(self._bands)

    @property
    def band_access(self) -> NodeBandMat:
        """The ``(N, M)`` bool table of the static access sets ``M_i``.

        Shared, not copied: readers must not write to it.
        """
        return self._access

    def max_bandwidth_hz(self) -> float:
        """The largest bandwidth any band can realise (for ``beta``)."""
        return max(band.max_bandwidth_hz for band in self._bands)

    def reseed(self, rng: np.random.Generator) -> None:
        """Swap the generator driving the per-slot bandwidth draws.

        The model is built with the topology stream (which also draws
        the static access sets); the simulator re-seeds it with a
        dedicated environment child stream so band realisations stay
        aligned across configuration variants.
        """
        self._rng = rng

    def sample(self, slot: int) -> BandState:
        """Draw ``W_m(t)`` for one slot."""
        bandwidths = []
        for band in self._bands:
            if band.is_random:
                low, high = band.bandwidth_range_hz
                bandwidths.append(float(self._rng.uniform(low, high)))
            else:
                bandwidths.append(band.fixed_bandwidth_hz)
        return BandState(slot=slot, bandwidths_hz=tuple(bandwidths))


def build_spectrum_model(
    params: ScenarioParameters, rng: np.random.Generator
) -> SpectrumModel:
    """Construct the paper's spectrum population.

    Band 0 is the always-available cellular band; bands 1..M-1 are the
    random bands.  Base stations (rows ``0..B-1``) access every band;
    each user draws an independent Bernoulli(``user_band_access_prob``)
    access indicator per random band.
    """
    spectrum = params.spectrum
    bands: List[SpectrumBand] = [
        SpectrumBand(band_id=0, fixed_bandwidth_hz=spectrum.cellular_bandwidth_hz)
    ]
    for k in range(spectrum.num_random_bands):
        bands.append(
            SpectrumBand(
                band_id=1 + k,
                bandwidth_range_hz=spectrum.random_bandwidth_range_hz,
            )
        )

    # One (U, M-1) draw, row-major: user by user, band by band, the
    # order (and so the doubles and the generator state) of one scalar
    # draw per (user, random band).
    num_bs = params.num_base_stations
    access = np.zeros((num_bs + params.num_users, len(bands)), dtype=bool)
    access[:num_bs] = True
    access[num_bs:, 0] = True
    access[num_bs:, 1:] = (
        rng.random((params.num_users, len(bands) - 1)) < spectrum.user_band_access_prob
    )
    return SpectrumModel(bands=bands, access=access, rng=rng)
