"""Exception taxonomy for the repro library.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A scenario or parameter set is inconsistent or out of range."""


class TopologyError(ReproError):
    """The network topology is malformed (unknown node, no links, ...)."""


class SpectrumError(ReproError):
    """A spectrum band is referenced that a node cannot access."""


class QueueError(ReproError):
    """A queueing-law invariant was violated (negative backlog, ...)."""


class EnergyError(ReproError):
    """An energy-storage invariant was violated (overcharge, ...)."""


class InfeasibleError(ReproError):
    """An optimization subproblem has no feasible point."""


class SolverError(ReproError):
    """A numerical solver failed to converge or returned garbage."""
