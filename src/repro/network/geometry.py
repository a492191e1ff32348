"""Node-placement geometry helpers and the uniform-grid spatial index.

:func:`node_positions` lays out a scenario's nodes as one ``(N, 2)``
array: the configured base-station positions on rows ``0..B-1``, then
the users.  The paper places users uniformly at random in a square; the
grid and clustered variants support the example scenarios and tests
that need reproducible or structured layouts.
:class:`UniformGridIndex` is the cell-bucket neighbor index (the
classic WSN trick) that makes link enumeration sub-quadratic: with the
bucket edge at least the query radius, every neighbor of a point lies
in the 3x3 block of buckets around it, so radius queries touch
O(density * r^2) candidates instead of all N points.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

import numpy as np

from repro.config.parameters import ScenarioParameters
from repro.types import Point

#: Cap on grid cells per axis so a tiny cell size over a huge area can
#: never allocate an unbounded bucket table; the index stays exact (the
#: covering-cell computation adapts), only bucket occupancy grows.
MAX_CELLS_PER_AXIS: int = 4096


class UniformGridIndex:
    """Uniform-grid (cell-bucket) spatial index over 2-D positions.

    Points are hashed into square buckets of edge ``cell_size_m``; each
    bucket stores its member indices in ascending order.  Queries are
    *exact*: candidate buckets always cover the query disc (the cover
    widens automatically when the radius exceeds the bucket edge), and
    the final distance filter uses the same elementwise float64 chain
    ``sqrt((dx^2 + dy^2))`` as a brute-force scan, so results match a
    dense all-pairs computation bit for bit.
    """

    def __init__(self, positions: np.ndarray, cell_size_m: float) -> None:
        """Bucket ``positions`` (an ``(N, 2)`` array) once, up front.

        Args:
            positions: node coordinates in metres.
            cell_size_m: bucket edge; clamped to a positive floor and
                widened if needed to respect :data:`MAX_CELLS_PER_AXIS`.
        """
        pos = np.asarray(positions, dtype=float)
        if pos.ndim != 2 or (pos.size and pos.shape[1] != 2):
            raise ValueError(f"positions must be (N, 2), got {pos.shape}")
        if not cell_size_m > 0:
            raise ValueError(f"cell_size_m must be positive, got {cell_size_m}")
        self._pos = pos
        count = pos.shape[0]
        if count == 0:
            self._origin = np.zeros(2)
            self._cell = float(cell_size_m)
            self._shape = (1, 1)
            self._order = np.zeros(0, dtype=np.intp)
            self._starts = np.zeros(2, dtype=np.intp)
            return
        origin = pos.min(axis=0)
        extent = pos.max(axis=0) - origin
        cell = max(
            float(cell_size_m), float(extent.max()) / MAX_CELLS_PER_AXIS
        )
        cols = min(int(extent[0] // cell) + 1, MAX_CELLS_PER_AXIS)
        rows = min(int(extent[1] // cell) + 1, MAX_CELLS_PER_AXIS)
        cx = np.clip(((pos[:, 0] - origin[0]) // cell).astype(np.intp), 0, cols - 1)
        cy = np.clip(((pos[:, 1] - origin[1]) // cell).astype(np.intp), 0, rows - 1)
        cell_id = cy * cols + cx
        # Stable sort keeps members of each bucket in ascending node
        # order — the enumeration order the topology builder relies on.
        order = np.argsort(cell_id, kind="stable")
        counts = np.bincount(cell_id, minlength=rows * cols)
        starts = np.zeros(rows * cols + 1, dtype=np.intp)
        np.cumsum(counts, out=starts[1:])
        self._origin = origin
        self._cell = cell
        self._shape = (rows, cols)
        self._order = order
        self._starts = starts

    @property
    def cell_size_m(self) -> float:
        """The effective bucket edge after clamping (m)."""
        return self._cell

    @property
    def shape(self) -> Tuple[int, int]:
        """Bucket-table shape ``(rows, cols)``."""
        return self._shape

    def cell_members(self, row: int, col: int) -> np.ndarray:
        """Member indices of one bucket, ascending."""
        rows, cols = self._shape
        if not (0 <= row < rows and 0 <= col < cols):
            return np.zeros(0, dtype=np.intp)
        cell_id = row * cols + col
        return self._order[self._starts[cell_id] : self._starts[cell_id + 1]]

    def block_members(
        self, row: int, col: int, reach: int = 1
    ) -> np.ndarray:
        """Members of the ``(2 reach + 1)^2`` bucket block, ascending.

        With ``reach = 1`` and a bucket edge >= the query radius this is
        a superset of every point within the radius of *any* point in
        bucket ``(row, col)``.
        """
        rows, cols = self._shape
        chunks = [
            self.cell_members(r, c)
            for r in range(max(row - reach, 0), min(row + reach + 1, rows))
            for c in range(max(col - reach, 0), min(col + reach + 1, cols))
        ]
        merged = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.intp)
        merged.sort()
        return merged

    def nonempty_cells(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(row, col, members)`` for every occupied bucket."""
        rows, cols = self._shape
        starts = self._starts
        for cell_id in np.flatnonzero(np.diff(starts)):
            row, col = divmod(int(cell_id), cols)
            yield row, col, self._order[starts[cell_id] : starts[cell_id + 1]]

    def query_radius(self, x: float, y: float, radius_m: float) -> np.ndarray:
        """Indices of all points within ``radius_m`` of ``(x, y)``, ascending.

        Exact (closed ball, ``d <= radius``): candidate buckets are the
        ones intersecting the disc's bounding square, then the distance
        filter applies the brute-force float64 chain.
        """
        if radius_m < 0:
            raise ValueError(f"radius_m must be non-negative, got {radius_m}")
        if self._pos.shape[0] == 0:
            return np.zeros(0, dtype=np.intp)
        rows, cols = self._shape
        col_lo = max(int((x - radius_m - self._origin[0]) // self._cell), 0)
        col_hi = min(int((x + radius_m - self._origin[0]) // self._cell), cols - 1)
        row_lo = max(int((y - radius_m - self._origin[1]) // self._cell), 0)
        row_hi = min(int((y + radius_m - self._origin[1]) // self._cell), rows - 1)
        if col_hi < col_lo or row_hi < row_lo:
            return np.zeros(0, dtype=np.intp)
        # Cells of one row are contiguous in cell id and the member
        # table is sorted by cell id, so the whole covering block
        # gathers as one slice per row — O(rows), not O(cells).
        chunks = [
            self._order[
                self._starts[r * cols + col_lo] : self._starts[
                    r * cols + col_hi + 1
                ]
            ]
            for r in range(row_lo, row_hi + 1)
        ]
        candidates = np.concatenate(chunks)
        if candidates.size == 0:
            return candidates
        candidates.sort()
        diffs = self._pos[candidates] - np.array([x, y])
        dist = np.sqrt((diffs**2).sum(axis=1))
        return candidates[dist <= radius_m]


def brute_force_radius_query(
    positions: np.ndarray, x: float, y: float, radius_m: float
) -> np.ndarray:
    """O(N) reference for :meth:`UniformGridIndex.query_radius`.

    Applies the identical elementwise float64 chain over *all* points;
    the property suite asserts exact equality against the grid index.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.shape[0] == 0:
        return np.zeros(0, dtype=np.intp)
    diffs = pos - np.array([x, y])
    dist = np.sqrt((diffs**2).sum(axis=1))
    return np.flatnonzero(dist <= radius_m).astype(np.intp)


def _uniform_coords(
    count: int, side_m: float, rng: np.random.Generator
) -> np.ndarray:
    """``(count, 2)`` coordinates i.i.d. uniform on the ``side_m`` square."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return rng.uniform(0.0, side_m, size=(count, 2))


def uniform_random_placement(
    count: int, side_m: float, rng: np.random.Generator
) -> List[Point]:
    """``count`` points i.i.d. uniform on the ``side_m`` square."""
    return [Point(float(x), float(y)) for x, y in _uniform_coords(count, side_m, rng)]


def node_positions(
    params: ScenarioParameters, rng: np.random.Generator
) -> np.ndarray:
    """``(N, 2)`` coordinates (m) of every node, ordered by node id.

    Base stations take the configured fixed positions on rows
    ``0..B-1``; users take ``params.user_positions`` when given, else
    the :func:`uniform_random_placement` draw from ``rng``.
    """
    num_bs = params.num_base_stations
    positions = np.empty((num_bs + params.num_users, 2))
    positions[:num_bs] = [(p.x, p.y) for p in params.base_station_positions]
    if params.user_positions is not None:
        positions[num_bs:] = [(p.x, p.y) for p in params.user_positions]
    else:
        positions[num_bs:] = _uniform_coords(params.num_users, params.area_side_m, rng)
    return positions


def grid_placement(count: int, side_m: float) -> List[Point]:
    """``count`` points on a near-square grid with half-cell margins.

    Deterministic; useful for tests that need known pairwise distances.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return []
    cols = int(math.ceil(math.sqrt(count)))
    rows = int(math.ceil(count / cols))
    dx = side_m / cols
    dy = side_m / rows
    points: List[Point] = []
    for k in range(count):
        row, col = divmod(k, cols)
        points.append(Point((col + 0.5) * dx, (row + 0.5) * dy))
    return points


def clustered_placement(
    count: int,
    side_m: float,
    rng: np.random.Generator,
    num_clusters: int = 3,
    cluster_std_m: float = 150.0,
) -> List[Point]:
    """Points drawn around random cluster centres (hot-spot traffic).

    Cluster centres are uniform in the area; each point picks a centre
    uniformly and adds Gaussian jitter, clipped to the area.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    centres = rng.uniform(0.0, side_m, size=(num_clusters, 2))
    assignments = rng.integers(0, num_clusters, size=count)
    jitter = rng.normal(0.0, cluster_std_m, size=(count, 2))
    coords = np.clip(centres[assignments] + jitter, 0.0, side_m)
    return [Point(float(x), float(y)) for x, y in coords]
