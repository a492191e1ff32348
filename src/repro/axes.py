"""Axis-annotation vocabulary for the struct-of-arrays core.

The struct-of-arrays core (``repro.core.arraystate``) fixes four axis
meanings for the whole hot path:

====== ==============================================================
Axis   Meaning
====== ==============================================================
``N``  nodes, in node-id order (BS rows ``0..B-1`` first)
``S``  sessions, in ``NetworkModel.sessions`` order
``L``  directed links, in the frozen ``Topology.link_tx`` order
``M``  spectrum bands, in ``bands_hz`` key order
``1``  a broadcast axis inserted with ``None``/``np.newaxis``
====== ==============================================================

Every alias below is ``Annotated[np.ndarray, Axes(...)]`` — zero cost
at runtime (annotated code passes and returns plain ``ndarray``) and
plain ``np.ndarray`` to a type checker.  The axis names document each
array's layout at the signature, where a transposed ``(M, L)`` operand
would otherwise broadcast silently into an ``(L, M)`` kernel whenever
the runtime sizes coincide; ``typing.get_type_hints(...,
include_extras=True)`` recovers them at runtime.

Index arrays carry a second piece of metadata, ``IndexInto(axis)``:
``LinkToNode`` is a ``(L,)`` array whose *values* are node ids, so it
may subscript axis-``N`` arrays (``q[link_tx]`` gathers ``(L, S)``)
but never axis-``L`` arrays (``g[link_tx]`` is the classic
node-id/link-id confusion the frozen link index exists to prevent).

Aliases that also carry a :class:`repro.units.Unit` (``NodeJoules``,
``QueuePackets``, ``LinkPackets``) state the unit of every entry too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Dict, Tuple, get_args

import numpy as np

from repro.units import Joules, Packets

#: Sentinel axis name: the array is intentionally shape-agnostic
#: (e.g. ``seq_sum`` reduces anything).
ANY_AXIS = "?"

#: Canonical axis name -> meaning, mirrored in ``docs/analysis.md``.
AXIS_MEANINGS: Dict[str, str] = {
    "N": "nodes (node-id order, BS rows 0..B-1 first)",
    "S": "sessions (NetworkModel.sessions order)",
    "L": "directed links (frozen Topology.link_tx order)",
    "M": "spectrum bands (bands_hz key order)",
    "1": "broadcast axis inserted with None/np.newaxis",
    ANY_AXIS: "intentionally shape-agnostic",
}


@dataclass(frozen=True)
class Axes:
    """Static axis names carried by one ``Annotated`` array alias.

    ``Axes("L", "M")`` declares a rank-2 array whose rows follow the
    frozen link order and whose columns follow the band order.  Axis
    names must come from :data:`AXIS_MEANINGS`; ``Axes(ANY_AXIS)``
    declares a shape-agnostic array.
    """

    names: Tuple[str, ...] = field(default=())

    def __init__(self, *names: str) -> None:
        for name in names:
            if name not in AXIS_MEANINGS:
                raise ValueError(
                    f"unknown axis name {name!r}; expected one of "
                    f"{sorted(AXIS_MEANINGS)}"
                )
        object.__setattr__(self, "names", tuple(names))

    def __str__(self) -> str:
        return "(" + ", ".join(self.names) + ")"


@dataclass(frozen=True)
class IndexInto:
    """Marks an integer array whose *values* index the named axis.

    ``Annotated[np.ndarray, Axes("L"), IndexInto("N")]`` is a
    link-indexed array of node ids: positions follow the link order,
    values subscript node-axis arrays, never arrays whose leading
    axis is not ``axis``.
    """

    axis: str

    def __post_init__(self) -> None:
        if self.axis not in AXIS_MEANINGS:
            raise ValueError(
                f"unknown axis name {self.axis!r}; expected one of "
                f"{sorted(AXIS_MEANINGS)}"
            )


_JOULES = get_args(Joules)[1]
_PACKETS = get_args(Packets)[1]

# -- Axes-only aliases (dimensionless or mixed-unit arrays) -----------

#: ``(N,)`` per-node vector (efficiencies, masks, generic scratch).
NodeVec = Annotated[np.ndarray, Axes("N")]
#: ``(L,)`` per-link vector (powers, rates, weights).
LinkVec = Annotated[np.ndarray, Axes("L")]
#: ``(S,)`` per-session vector.
SessionVec = Annotated[np.ndarray, Axes("S")]
#: ``(M,)`` per-band vector (capacities, bandwidths).
BandVec = Annotated[np.ndarray, Axes("M")]
#: ``(N, S)`` node x session matrix (the Q backlog layout).
NodeSessionMat = Annotated[np.ndarray, Axes("N", "S")]
#: ``(N, S)`` boolean mask over the Q layout (valid/invalid cells).
QueueMask = Annotated[np.ndarray, Axes("N", "S")]
#: ``(L, S)`` link x session matrix (routing coefficients, eligibility).
LinkSessionMat = Annotated[np.ndarray, Axes("L", "S")]
#: ``(L, M)`` link x band matrix (band membership, per-band rates).
LinkBandMat = Annotated[np.ndarray, Axes("L", "M")]
#: ``(M, L)`` band x link matrix (band-major S1 candidate weights).
BandLinkMat = Annotated[np.ndarray, Axes("M", "L")]
#: ``(N, M)`` node x band matrix (per-slot spectrum access).
NodeBandMat = Annotated[np.ndarray, Axes("N", "M")]
#: Shape-agnostic array — annotated, but without a rank.
AnyArray = Annotated[np.ndarray, Axes(ANY_AXIS)]

# -- Frozen-index aliases (integer arrays indexing another axis) ------

#: ``(L,)`` node ids: ``link_tx``/``link_rx`` gather node-axis arrays.
LinkToNode = Annotated[np.ndarray, Axes("L"), IndexInto("N")]
#: ``(S,)`` node ids: per-session sources/destinations.
SessionToNode = Annotated[np.ndarray, Axes("S"), IndexInto("N")]
#: Variable-length node-id index (e.g. the session destinations).
NodeIds = Annotated[np.ndarray, Axes(ANY_AXIS), IndexInto("N")]
#: Variable-length link-position index.
LinkIds = Annotated[np.ndarray, Axes(ANY_AXIS), IndexInto("L")]

# -- Combined axis + unit aliases -------------------------------------

#: ``(N,)`` joules: battery levels, caps, shifts (Eqs. 9-13).
NodeJoules = Annotated[np.ndarray, Axes("N"), _JOULES]
#: ``(N, S)`` packets: the Q backlog matrix (Eq. 15).
QueuePackets = Annotated[np.ndarray, Axes("N", "S"), _PACKETS]
#: ``(L,)`` packets: G/H virtual backlogs (Eqs. 28, 30-31).
LinkPackets = Annotated[np.ndarray, Axes("L"), _PACKETS]
