"""repro — Optimal Energy Cost for Strongly Stable Multi-hop Green
Cellular Networks (ICDCS 2014), reproduced as a Python library.

The package implements the paper's complete stack from scratch: the
multi-hop cellular network model, the PHY substrate (path loss, SINR,
physical-model interference, power control), the energy substrate
(renewables, batteries, grid, convex generation cost), the queueing
substrate (data/virtual/shifted-energy queues), the Lyapunov
drift-plus-penalty controller with its four per-slot subproblems
(S1 link scheduling, S2 resource allocation, S3 routing, S4 energy
management), the relaxed-LP lower-bound machinery, the baseline
architectures, a slot-based simulator, and one experiment driver per
evaluation figure.

Quickstart::

    from repro import paper_scenario, run_simulation

    result = run_simulation(paper_scenario(control_v=2e5, num_slots=50))
    print(result.summary())
"""

from repro.config import (
    ScenarioParameters,
    paper_scenario,
    small_scenario,
    tiny_scenario,
    validate_parameters,
)
from repro.model import NetworkModel, build_network_model
from repro.core import (
    BoundReport,
    LyapunovConstants,
    RelaxedLpController,
    compute_constants,
    lower_bound_cost,
)
from repro.control import DriftPlusPenaltyController
from repro.sim import SimulationResult, SlotSimulator, run_simulation
from repro.state import NetworkState
from repro.types import (
    Architecture,
    EnergySolverKind,
    QueueSemantics,
    SchedulerKind,
)

__version__ = "1.0.0"

__all__ = [
    "ScenarioParameters",
    "paper_scenario",
    "small_scenario",
    "tiny_scenario",
    "validate_parameters",
    "NetworkModel",
    "build_network_model",
    "BoundReport",
    "LyapunovConstants",
    "RelaxedLpController",
    "compute_constants",
    "lower_bound_cost",
    "DriftPlusPenaltyController",
    "SimulationResult",
    "SlotSimulator",
    "run_simulation",
    "NetworkState",
    "Architecture",
    "EnergySolverKind",
    "QueueSemantics",
    "SchedulerKind",
    "__version__",
]
