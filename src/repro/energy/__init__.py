"""Energy substrate: batteries, renewables, grid, cost, consumption."""

from repro.energy.battery import Battery, BatteryAction
from repro.energy.renewable import (
    DiurnalSolarProcess,
    MarkovWindProcess,
    RenewableProcess,
    UniformRenewableProcess,
    ZeroRenewableProcess,
)
from repro.energy.grid import GridConnection, ScriptedGridConnection
from repro.energy.cost import (
    CostFunction,
    LinearCost,
    PiecewiseLinearCost,
    QuadraticCost,
    TimeOfUseCost,
)
from repro.energy.consumption import all_node_demands_array

__all__ = [
    "Battery",
    "BatteryAction",
    "DiurnalSolarProcess",
    "MarkovWindProcess",
    "RenewableProcess",
    "UniformRenewableProcess",
    "ZeroRenewableProcess",
    "GridConnection",
    "ScriptedGridConnection",
    "CostFunction",
    "LinearCost",
    "PiecewiseLinearCost",
    "QuadraticCost",
    "TimeOfUseCost",
    "all_node_demands_array",
]
