"""Network model: node placement, topology, spectrum, sessions."""

from repro.network.geometry import (
    clustered_placement,
    grid_placement,
    node_positions,
    uniform_random_placement,
)
from repro.network.topology import Topology, build_topology
from repro.network.spectrum import (
    BandState,
    SpectrumBand,
    SpectrumModel,
    build_spectrum_model,
)
from repro.network.session import Session, build_sessions

__all__ = [
    "clustered_placement",
    "grid_placement",
    "node_positions",
    "uniform_random_placement",
    "Topology",
    "build_topology",
    "BandState",
    "SpectrumBand",
    "SpectrumModel",
    "build_spectrum_model",
    "Session",
    "build_sessions",
]
