"""Unit-annotation vocabulary for the library's signatures.

The library computes internally in SI units (watts, joules, bits,
seconds — see ``repro.constants``), but the paper states parameters in
kWh, Kbps and per-minute slots, and the per-slot machinery constantly
crosses the power/energy and per-second/per-slot boundaries.  This
module gives those physical quantities *names* that are zero-cost at
runtime: each alias is ``Annotated[float, Unit(...)]``, so annotated
code still passes and returns plain floats, while a signature states
the unit of every argument and result (``typing.get_type_hints(...,
include_extras=True)`` recovers the :class:`Unit` at runtime).

Annotate the *boundaries* — public function signatures and dataclass
fields — with the most specific alias that applies::

    from repro.units import Joules, Seconds, Watts

    def slot_energy(power: Watts, slot_seconds: Seconds) -> Joules:
        ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Optional


@dataclass(frozen=True)
class Unit:
    """Static metadata carried by one ``Annotated`` unit alias.

    Attributes:
        symbol: canonical short symbol (``"J"``, ``"bit/slot"``, ...).
        dimension: physical dimension group; two units sharing a
            dimension (e.g. ``J`` and ``kWh``) measure the same thing
            at different scales and still must not be mixed without an
            explicit conversion.
        per: for rate units, the time base — ``"slot"`` or ``"s"``;
            the two bases differ by ``slot_seconds``.
    """

    symbol: str
    dimension: str
    per: Optional[str] = None


_JOULES = Unit("J", "energy")
_WATT_HOURS = Unit("Wh", "energy")
_KILOWATT_HOURS = Unit("kWh", "energy")
_WATTS = Unit("W", "power")
_BITS = Unit("bit", "data")
_PACKETS = Unit("packet", "packets")
_BITS_PER_SLOT = Unit("bit/slot", "data_rate", per="slot")
_BITS_PER_SECOND = Unit("bit/s", "data_rate", per="s")
_KBPS = Unit("kbit/s", "data_rate", per="s")
_LINEAR = Unit("lin", "dimensionless")
_DOLLARS = Unit("$", "money")
_DOLLARS_PER_JOULE = Unit("$/J", "tariff")
_SECONDS = Unit("s", "time")
_HERTZ = Unit("Hz", "frequency")
_METERS = Unit("m", "length")

#: Battery/grid energy and every per-slot energy quantity (SI).
Joules = Annotated[float, _JOULES]
#: Watt-hours — configuration-boundary storage sizes.
WattHours = Annotated[float, _WATT_HOURS]
#: Kilowatt-hours — the paper's storage and tariff unit.
KilowattHours = Annotated[float, _KILOWATT_HOURS]
#: Instantaneous power (transmit, receive, renewable output).
Watts = Annotated[float, _WATTS]
#: Raw traffic volume.
Bits = Annotated[float, _BITS]
#: Queue backlogs and routed amounts (the paper's packet unit delta).
Packets = Annotated[float, _PACKETS]
#: Traffic volume per slot (after a ``slot_seconds`` conversion).
BitsPerSlot = Annotated[float, _BITS_PER_SLOT]
#: Link rate in bits per second (Eq. 1 capacities).
BitsPerSecond = Annotated[float, _BITS_PER_SECOND]
#: Session demand as stated by the paper (100 Kbps).
Kbps = Annotated[float, _KBPS]
#: Linear (dimensionless) ratio, e.g. SINR values and thresholds.
Linear = Annotated[float, _LINEAR]
#: Monetary cost (the currency of ``f(P)``).
Dollars = Annotated[float, _DOLLARS]
#: Tariff in SI terms ($ per joule) — the library-internal form.
DollarsPerJoule = Annotated[float, _DOLLARS_PER_JOULE]
#: Durations, including the slot length ``delta_t``.
Seconds = Annotated[float, _SECONDS]
#: Bandwidths ``W_m(t)``.
Hertz = Annotated[float, _HERTZ]
#: Distances in the propagation model.
Meters = Annotated[float, _METERS]
