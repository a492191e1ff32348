"""Shared lightweight types and identifiers.

Nodes, bands, and sessions are referred to by small integer ids
throughout the library.  Links are ``(tx, rx)`` node-id pairs, and a
scheduled transmission is a ``(tx, rx, band)`` triple.  These aliases and
tiny frozen dataclasses give the rest of the code a common vocabulary
without imposing heavyweight objects on the hot simulation loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

#: Integer identifier of a node (user or base station).
NodeId = int

#: Integer identifier of a spectrum band.
BandId = int

#: Integer identifier of a service session.
SessionId = int

#: Directed link between two nodes.
Link = Tuple[NodeId, NodeId]

#: Directed link with an assigned spectrum band.
LinkBand = Tuple[NodeId, NodeId, BandId]


class NodeKind(enum.Enum):
    """The two node roles in the paper's system model."""

    BASE_STATION = "base_station"
    MOBILE_USER = "mobile_user"


class QueueSemantics(enum.Enum):
    """How packet transfers are accounted in the data-queue law.

    ``PAPER`` follows Eq. (15) literally: the receiver is credited with
    the full scheduled rate even when the transmitter had fewer packets
    (the standard "null packet" idealisation used in Lyapunov analyses).
    ``PACKET_ACCURATE`` caps transfers by the transmitter's real backlog.
    """

    PAPER = "paper"
    PACKET_ACCURATE = "packet_accurate"


class SchedulerKind(enum.Enum):
    """Available S1 link-scheduling algorithms.

    ``SEQUENTIAL_FIX`` relaxes only the single-radio constraint (22),
    as the paper's S1 states; ``SEQUENTIAL_FIX_SINR`` additionally
    carries the big-M SINR constraints (24) with explicit power
    variables inside the relaxation (the formulation of the paper's
    references [31]/[35]), making the fix order interference-aware.
    """

    SEQUENTIAL_FIX = "sequential_fix"
    SEQUENTIAL_FIX_SINR = "sequential_fix_sinr"
    MAX_WEIGHT_MATCHING = "max_weight_matching"
    GREEDY = "greedy"


class EnergySolverKind(enum.Enum):
    """Available S4 energy-management solvers."""

    PRICE_DECOMPOSITION = "price_decomposition"
    GRID_ONLY = "grid_only"


class TrafficPattern(enum.Enum):
    """Per-session demand profiles ``v_s(t)``.

    ``CONSTANT`` is the paper's model; the others keep the same mean
    rate but modulate it over time (bursty on/off, smooth diurnal).
    """

    CONSTANT = "constant"
    ON_OFF = "on_off"
    DIURNAL = "diurnal"


class DestinationStrategy(enum.Enum):
    """How session destinations are drawn from the user population."""

    RANDOM = "random"
    CELL_EDGE = "cell_edge"


class MobilityKind(enum.Enum):
    """User mobility models (the paper evaluates static users)."""

    STATIC = "static"
    RANDOM_WAYPOINT = "random_waypoint"


class RenewableKind(enum.Enum):
    """Which renewable-generation process drives a node class."""

    UNIFORM = "uniform"
    SOLAR = "solar"
    WIND = "wind"
    ZERO = "zero"


class Architecture(enum.Enum):
    """The four network architectures compared in Fig. 2(f)."""

    MULTI_HOP_RENEWABLE = "multi_hop_renewable"
    MULTI_HOP_NO_RENEWABLE = "multi_hop_no_renewable"
    ONE_HOP_RENEWABLE = "one_hop_renewable"
    ONE_HOP_NO_RENEWABLE = "one_hop_no_renewable"


@dataclass(frozen=True)
class Point:
    """A point in the 2-D deployment plane, in metres."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in metres."""
        dx = self.x - other.x
        dy = self.y - other.y
        return (dx * dx + dy * dy) ** 0.5


@dataclass(frozen=True)
class Transmission:
    """One scheduled transmission: link, band and transmit power."""

    tx: NodeId
    rx: NodeId
    band: BandId
    power_w: float

    @property
    def link(self) -> Link:
        """The ``(tx, rx)`` pair of this transmission."""
        return (self.tx, self.rx)

    @property
    def link_band(self) -> LinkBand:
        """The ``(tx, rx, band)`` triple of this transmission."""
        return (self.tx, self.rx, self.band)
