"""Energy substrate: renewables, cost, consumption.

Batteries, storage caps and grid connections are ``(N,)`` vectors of
:class:`~repro.core.arraystate.ArrayState`."""

from repro.energy.renewable import (
    DiurnalSolarProcess,
    MarkovWindProcess,
    RenewableProcess,
    UniformRenewableProcess,
)
from repro.energy.cost import (
    QuadraticCost,
    TimeOfUseCost,
)
from repro.energy.consumption import all_node_demands_array

__all__ = [
    "DiurnalSolarProcess",
    "MarkovWindProcess",
    "RenewableProcess",
    "UniformRenewableProcess",
    "QuadraticCost",
    "TimeOfUseCost",
    "all_node_demands_array",
]
