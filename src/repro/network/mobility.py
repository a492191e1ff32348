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

from typing import Tuple

import numpy as np

from repro.axes import AnyArray
from repro.constants import FEASIBILITY_EPS


class RandomWaypointMobility:
    """Random-waypoint motion for users; base stations stay fixed.

    Nodes are rows: the first ``num_fixed`` rows (the base stations)
    never move, and row ``num_fixed + u`` walks leg ``u`` of the
    ``(U, 2)`` waypoints and ``(U,)`` speeds.  Each slot is one
    vectorized step; the users that reach their waypoint draw their
    next legs as one ``(k, 3)`` block of ``(x, y, speed)`` rows in row
    order, the doubles (and generator state) of one ``x, y, speed``
    draw per arriving user in turn.

    Args:
        initial: ``(N, 2)`` starting positions of all nodes (copied).
        num_fixed: leading rows that stay put (the base stations).
        area_side_m: the square deployment area.
        speed_range_mps: uniform speed draw per leg (m/s).
        slot_seconds: slot duration (step length = speed * slot).
        rng: generator for waypoints and speeds.
    """

    def __init__(
        self,
        initial: AnyArray,
        num_fixed: int,
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
        self._positions = np.array(initial, dtype=float)
        self._positions.flags.writeable = False
        self._first = num_fixed
        self._leg_low = np.array([0.0, 0.0, low])
        self._leg_high = np.array([area_side_m, area_side_m, high])
        self._slot_seconds = slot_seconds
        self._rng = rng
        self._last_slot = -1
        legs = self._new_legs(self._positions.shape[0] - num_fixed)
        self._waypoints = legs[:, :2]
        self._speeds = legs[:, 2].copy()

    def _new_legs(self, count: int) -> AnyArray:
        """``(count, 3)`` fresh ``(x, y, speed)`` legs, drawn row by row."""
        return self._rng.uniform(self._leg_low, self._leg_high, size=(count, 3))

    def _step(self) -> None:
        """Move every user one slot towards its waypoint.

        A user within one step of its waypoint (or on it) lands there
        and draws a new leg; any other moves ``step / distance`` of the
        way, with the distance ``(dx*dx + dy*dy) ** 0.5`` of
        :meth:`~repro.types.Point.distance_to`.
        """
        moved = self._positions.copy()
        users = moved[self._first :]
        waypoints = self._waypoints
        gap = waypoints - users
        dx, dy = gap[:, 0], gap[:, 1]
        distance = np.float_power(dx * dx + dy * dy, 0.5)
        step = self._speeds * self._slot_seconds
        arrived = (distance <= step) | (distance <= FEASIBILITY_EPS)
        fraction = np.divide(step, distance, out=np.zeros_like(step), where=~arrived)
        users += fraction[:, None] * gap
        users[arrived] = waypoints[arrived]
        count = int(np.count_nonzero(arrived))
        if count:
            legs = self._new_legs(count)
            waypoints[arrived] = legs[:, :2]
            self._speeds[arrived] = legs[:, 2]
        moved.flags.writeable = False
        self._positions = moved

    def positions_at(self, slot: int) -> AnyArray:
        """Read-only ``(N, 2)`` positions of all nodes at the start of ``slot``.

        Must be called with non-decreasing slots; calling twice with
        the same slot returns the same array.  Each slot's array is new,
        so a view over one slot never moves when a later slot steps.
        """
        if slot < self._last_slot:
            raise ValueError(
                f"mobility cannot rewind: asked for slot {slot} after "
                f"{self._last_slot}"
            )
        while self._last_slot < slot:
            self._last_slot += 1
            if self._last_slot > 0:  # slot 0 uses the initial placement
                self._step()
        return self._positions
