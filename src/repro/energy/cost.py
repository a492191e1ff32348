"""Convex energy-generation cost functions ``f(P)``.

The paper assumes ``f`` is non-negative, non-decreasing, and convex, and
evaluates with a quadratic ``f(P) = 0.8 P^2 + 0.2 P`` (coefficients in
kWh terms).  Internally the library works in joules, so
:class:`QuadraticCost` offers a ``from_kwh_coefficients`` constructor
that converts, and :class:`TimeOfUseCost` scales it slot by slot.

Both expose the maximum derivative over ``[0, cap]`` — the
``gamma_max`` constant that shifts the battery queues (Section IV-B).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.constants import JOULES_PER_KWH
from repro.units import Dollars, DollarsPerJoule, Joules


class QuadraticCost:
    """``f(P) = a P^2 + b P + c`` with ``P`` in joules."""

    def __init__(self, a: float, b: float, c: float = 0.0) -> None:
        if a < 0:
            raise ValueError(f"quadratic coefficient must be >= 0, got {a}")
        if b < 0:
            raise ValueError(f"linear coefficient must be >= 0, got {b}")
        if c < 0:
            raise ValueError(f"constant coefficient must be >= 0, got {c}")
        self.a = a
        self.b = b
        self.c = c

    @classmethod
    def from_unit_coefficients(
        cls, a: float, b: float, c: float = 0.0, unit_j: float = 1.0
    ) -> "QuadraticCost":
        """Build from coefficients stated for ``P`` in units of ``unit_j``.

        ``f(P) = a (P/u)^2 + b (P/u) + c`` with ``u = unit_j`` joules.
        """
        if unit_j <= 0:
            raise ValueError(f"unit must be positive, got {unit_j}")
        return cls(a=a / (unit_j**2), b=b / unit_j, c=c)

    @classmethod
    def from_kwh_coefficients(
        cls, a_kwh: float, b_kwh: float, c_kwh: float = 0.0
    ) -> "QuadraticCost":
        """Build from coefficients stated for ``P`` in kWh (the paper's)."""
        return cls.from_unit_coefficients(a_kwh, b_kwh, c_kwh, JOULES_PER_KWH)

    def value(self, energy_j: Joules) -> Dollars:
        """Cost of drawing ``energy_j`` joules from the grid in a slot."""
        if energy_j < 0:
            raise ValueError(f"energy must be non-negative, got {energy_j}")
        return self.a * energy_j**2 + self.b * energy_j + self.c

    def derivative(self, energy_j: Joules) -> DollarsPerJoule:
        """Marginal cost ``f'(P)`` at ``energy_j``."""
        if energy_j < 0:
            raise ValueError(f"energy must be non-negative, got {energy_j}")
        return 2.0 * self.a * energy_j + self.b

    def max_derivative(self, cap_j: Joules) -> DollarsPerJoule:
        """``gamma_max``: the largest marginal cost on ``[0, cap_j]``.

        Convexity makes ``f'`` non-decreasing, so the maximum sits at
        the cap.
        """
        if cap_j < 0:
            raise ValueError(f"cap must be non-negative, got {cap_j}")
        return self.derivative(cap_j)

    def inverse_derivative(self, price: DollarsPerJoule) -> Joules:
        """The ``P >= 0`` with ``f'(P) = price`` (0 if price <= b)."""
        if self.a == 0:
            raise ValueError("inverse derivative undefined for linear cost")
        return max(0.0, (price - self.b) / (2.0 * self.a))


class TimeOfUseCost:
    """A slot-dependent wrapper: peak hours cost more than off-peak.

    Call :meth:`at_slot` to obtain the quadratic cost in force for one
    slot.  The multiplier schedule repeats with period
    ``len(multipliers)``.
    """

    def __init__(
        self, base: QuadraticCost, multipliers: Sequence[float]
    ) -> None:
        if not multipliers:
            raise ValueError("at least one multiplier is required")
        if any(m <= 0 for m in multipliers):
            raise ValueError("multipliers must be positive")
        self.base = base
        self.multipliers: Tuple[float, ...] = tuple(multipliers)

    def at_slot(self, slot: int) -> QuadraticCost:
        """The scaled quadratic cost in force during ``slot``."""
        m = self.multipliers[slot % len(self.multipliers)]
        return QuadraticCost(self.base.a * m, self.base.b * m, self.base.c * m)

    def max_derivative(self, cap_j: Joules) -> DollarsPerJoule:
        """``gamma_max`` across all slots (worst multiplier at the cap)."""
        return max(self.at_slot(s).max_derivative(cap_j) for s in range(len(self.multipliers)))
