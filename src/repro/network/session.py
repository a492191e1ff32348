"""Downlink service sessions.

Each session ``s`` is a tuple ``{d_s, v_s(t), s_s(t)}``: a fixed
destination user, a per-slot throughput requirement in packets, and a
per-slot source base station chosen by the S2 resource-allocation
subproblem (the source may move between base stations each slot).

The paper's demand is constant-rate; :class:`~repro.types.TrafficPattern`
adds mean-preserving on/off and diurnal profiles for the example
scenarios, and :class:`~repro.types.DestinationStrategy` optionally
places destinations at the cell edge (the regime where multi-hop
relaying matters most).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.config.parameters import ScenarioParameters
from repro.exceptions import ConfigurationError
from repro.types import DestinationStrategy, NodeId, SessionId, TrafficPattern


@dataclass(frozen=True)
class Session:
    """A downlink Internet service session.

    Attributes:
        session_id: dense integer id.
        destination: destination user node id ``d_s``.
        demand_packets: mean throughput ``v_s(t)`` in packets/slot.
        k_max: admission cap ``K_max`` in packets/slot.
        pattern: the demand profile shape.
        period_slots: period of the non-constant profiles.
    """

    session_id: SessionId
    destination: NodeId
    demand_packets: int
    k_max: int
    pattern: TrafficPattern = TrafficPattern.CONSTANT
    period_slots: int = 20

    def demand(self, slot: int) -> int:
        """``v_s(t)``: per-slot demand under the configured profile.

        All profiles have mean ``demand_packets`` over one period:
        on/off doubles the rate for the first half-period and is silent
        for the second; diurnal follows ``1 + sin`` scaled to the mean.
        """
        if self.pattern is TrafficPattern.CONSTANT:
            return self.demand_packets
        phase = slot % self.period_slots
        if self.pattern is TrafficPattern.ON_OFF:
            if phase < self.period_slots / 2:
                return 2 * self.demand_packets
            return 0
        # DIURNAL: rate in [0, 2*mean], sinusoidal over the period.
        factor = 1.0 + math.sin(2.0 * math.pi * phase / self.period_slots)
        return int(round(self.demand_packets * factor))

    def max_demand(self) -> int:
        """The largest ``v_s(t)`` the profile can emit (for bounds)."""
        if self.pattern is TrafficPattern.CONSTANT:
            return self.demand_packets
        return 2 * self.demand_packets


def _cell_edge_destinations(
    params: ScenarioParameters, positions: np.ndarray, count: int
) -> List[NodeId]:
    """The ``count`` users farthest from every base station.

    Each distance is :meth:`~repro.types.Point.distance_to`'s
    ``(dx*dx + dy*dy) ** 0.5`` (``float_power`` is libm ``pow``, as
    Python's ``**``); ties keep user-id order.
    """
    num_bs = params.num_base_stations
    users = positions[num_bs:]
    nearest = np.full(users.shape[0], np.inf)
    for x, y in positions[:num_bs]:
        dx = users[:, 0] - x
        dy = users[:, 1] - y
        np.minimum(nearest, np.float_power(dx * dx + dy * dy, 0.5), out=nearest)
    farthest = np.argsort(-nearest, kind="stable")[:count]
    return (farthest + num_bs).tolist()


def build_sessions(
    params: ScenarioParameters,
    rng: np.random.Generator,
    positions: Optional[np.ndarray] = None,
) -> List[Session]:
    """Create the scenario's sessions with distinct user destinations.

    ``RANDOM`` draws destinations without replacement from the users
    (the paper's setup); ``CELL_EDGE`` picks the users farthest from
    every base station and requires the ``(N, 2)`` node ``positions``.

    Raises:
        ConfigurationError: more sessions than users, or a cell-edge
            strategy without node positions.
    """
    num_sessions = params.sessions.num_sessions
    users = list(params.user_ids())
    if num_sessions > len(users):
        raise ConfigurationError(
            f"cannot pick {num_sessions} distinct destinations from "
            f"{len(users)} users"
        )

    strategy = params.sessions.destination_strategy
    if strategy is DestinationStrategy.CELL_EDGE:
        if positions is None:
            raise ConfigurationError(
                "cell-edge destinations need node positions; pass positions="
            )
        destinations = _cell_edge_destinations(params, positions, num_sessions)
    else:
        destinations = [
            int(d) for d in rng.choice(users, size=num_sessions, replace=False)
        ]

    demand = params.sessions.demand_packets_per_slot(params.slot_seconds)
    k_max = params.sessions.k_max(params.slot_seconds)
    return [
        Session(
            session_id=s,
            destination=destinations[s],
            demand_packets=demand,
            k_max=k_max,
            pattern=params.sessions.traffic_pattern,
            period_slots=params.sessions.pattern_period_slots,
        )
        for s in range(num_sessions)
    ]
