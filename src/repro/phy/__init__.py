"""PHY substrate: propagation, SINR, capacity, power control."""

from repro.phy.propagation import gain_matrix, propagation_gain
from repro.phy.sinr import sinr, total_interference
from repro.phy.capacity import link_capacity_bps, max_link_capacity_bps
from repro.phy.power_control import (
    PowerControlResult,
    minimal_power_assignment,
    minimal_power_assignment_vec,
)

__all__ = [
    "gain_matrix",
    "propagation_gain",
    "sinr",
    "total_interference",
    "link_capacity_bps",
    "max_link_capacity_bps",
    "PowerControlResult",
    "minimal_power_assignment",
    "minimal_power_assignment_vec",
]
