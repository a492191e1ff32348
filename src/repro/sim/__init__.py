"""Slot-based simulator: engine, RNG streams, metrics, results."""

from repro.sim.rng import RngStreams
from repro.sim.metrics import MetricsCollector
from repro.sim.results import SimulationResult
from repro.sim.engine import SlotSimulator, run_simulation

__all__ = [
    "RngStreams",
    "MetricsCollector",
    "SimulationResult",
    "SlotSimulator",
    "run_simulation",
]
