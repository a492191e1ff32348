"""Physical and unit-conversion constants shared across the library.

All internal computation uses SI units: watts, joules, hertz, seconds,
bits.  The ICDCS'14 paper states several parameters in kWh and minutes;
these helpers convert at the configuration boundary so the rest of the
code never mixes unit systems.
"""

from __future__ import annotations

import math

from repro.units import (
    BitsPerSlot,
    Joules,
    Kbps,
    KilowattHours,
    Seconds,
    WattHours,
    Watts,
)

#: Seconds in one minute (the paper's slot duration is one minute).
SECONDS_PER_MINUTE: float = 60.0

#: Seconds in one hour, used for Wh/kWh conversions.
SECONDS_PER_HOUR: float = 3600.0

#: Joules in one watt-hour.
JOULES_PER_WH: float = 3600.0

#: Joules in one kilowatt-hour.
JOULES_PER_KWH: float = 3.6e6

#: Default thermal-noise power spectral density used by the paper (W/Hz).
PAPER_NOISE_DENSITY_W_PER_HZ: float = 1e-20

#: Default antenna/wavelength constant ``C`` in the propagation model.
PAPER_PROPAGATION_CONSTANT: float = 62.5

#: Default path-loss exponent ``gamma`` used by the paper.
PAPER_PATH_LOSS_EXPONENT: float = 4.0

#: Default SINR decoding threshold ``Gamma`` used by the paper.
PAPER_SINR_THRESHOLD: float = 1.0

#: A tolerance for floating-point feasibility checks throughout the
#: library (queue non-negativity, battery bounds, LP round-off, ...).
FEASIBILITY_EPS: float = 1e-9


def approx_eq(
    a: float,
    b: float,
    rel_tol: float = 1e-9,
    abs_tol: float = FEASIBILITY_EPS,
) -> bool:
    """Tolerant float equality for energy/queue quantities.

    Exact ``==`` on computed floats is forbidden by lint rule R002;
    energy balances and queue backlogs accumulate round-off, so
    comparisons must carry an explicit tolerance.
    """
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def approx_zero(x: float, abs_tol: float = FEASIBILITY_EPS) -> bool:
    """Tolerant zero test for energy/queue quantities (see R002)."""
    return abs(x) <= abs_tol


def kwh_to_joules(kwh: KilowattHours) -> Joules:
    """Convert kilowatt-hours to joules."""
    return kwh * JOULES_PER_KWH


def wh_to_joules(wh: WattHours) -> Joules:
    """Convert watt-hours to joules."""
    return wh * JOULES_PER_WH


def watts_over_slot_to_joules(watts: Watts, slot_seconds: Seconds) -> Joules:
    """Energy in joules delivered by a constant power over one slot."""
    return watts * slot_seconds


def kbps_to_bits_per_slot(kbps: Kbps, slot_seconds: Seconds) -> BitsPerSlot:
    """Convert a rate in kilobits/second to bits per slot."""
    return kbps * 1e3 * slot_seconds
