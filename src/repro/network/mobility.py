"""User mobility.

The paper's evaluation keeps users static (the state then holds no
mobility model at all); :class:`RandomWaypointMobility` adds motion as
an extension (the system model explicitly targets *mobile* users).
Mobility is quasi-static with respect to the candidate-link set: the
pruned links are fixed from the initial placement, but the propagation
gains follow the current positions, so link quality — and through power
control, link feasibility — tracks the motion.  The state serves each
slot's gains as a :class:`~repro.phy.propagation.ComputedPairGains`
view over that slot's positions: only the gains a consumer reads are
computed, each bit-identical to the all-pairs matrix entry, and no
``(N, N)`` array is ever built.

``RandomWaypointMobility`` is the classical model: each user picks a
uniform waypoint in the area and a uniform speed, walks there in
straight-line per-slot steps, then repeats.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.constants import approx_zero
from repro.types import NodeId, Point


class RandomWaypointMobility:
    """Random-waypoint motion for users; base stations stay fixed.

    Args:
        initial: starting positions of all nodes.
        mobile: ids of the nodes that move (users).
        area_side_m: the square deployment area.
        speed_range_mps: uniform speed draw per leg (m/s).
        slot_seconds: slot duration (step length = speed * slot).
        rng: generator for waypoints and speeds.
    """

    def __init__(
        self,
        initial: Sequence[Point],
        mobile: Sequence[NodeId],
        area_side_m: float,
        speed_range_mps: Tuple[float, float],
        slot_seconds: float,
        rng: np.random.Generator,
    ) -> None:
        low, high = speed_range_mps
        if not 0 <= low <= high:
            raise ValueError(f"bad speed range {speed_range_mps!r}")
        if area_side_m <= 0:
            raise ValueError(f"area must be positive, got {area_side_m}")
        self._positions = list(initial)
        self._mobile = list(mobile)
        self._area = area_side_m
        self._speeds = speed_range_mps
        self._slot_seconds = slot_seconds
        self._rng = rng
        self._last_slot = -1
        #: Per-mobile-node (waypoint, speed) legs.
        self._legs: Dict[NodeId, Tuple[Point, float]] = {}
        for node in self._mobile:
            self._legs[node] = self._new_leg()

    def _new_leg(self) -> Tuple[Point, float]:
        waypoint = Point(
            float(self._rng.uniform(0.0, self._area)),
            float(self._rng.uniform(0.0, self._area)),
        )
        speed = float(self._rng.uniform(*self._speeds))
        return waypoint, speed

    def _step_node(self, node: NodeId) -> None:
        waypoint, speed = self._legs[node]
        position = self._positions[node]
        step = speed * self._slot_seconds
        distance = position.distance_to(waypoint)
        if distance <= step or approx_zero(distance):
            self._positions[node] = waypoint
            self._legs[node] = self._new_leg()
            return
        fraction = step / distance
        self._positions[node] = Point(
            position.x + fraction * (waypoint.x - position.x),
            position.y + fraction * (waypoint.y - position.y),
        )

    def positions_at(self, slot: int) -> List[Point]:
        """Positions of all nodes at the start of ``slot``.

        Must be called with non-decreasing slots; calling twice with
        the same slot returns identical positions.
        """
        if slot < self._last_slot:
            raise ValueError(
                f"mobility cannot rewind: asked for slot {slot} after "
                f"{self._last_slot}"
            )
        while self._last_slot < slot:
            self._last_slot += 1
            if self._last_slot == 0:
                continue  # slot 0 uses the initial placement
            for node in self._mobile:
                self._step_node(node)
        return list(self._positions)
