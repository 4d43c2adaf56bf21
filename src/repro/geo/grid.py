"""Uniform-grid spatial hash for radius and nearest-neighbour queries.

This is the point index used throughout the library (road-node lookup,
landmark lookup, DBSCAN region queries).  Items are bucketed by the cell
that contains them; a radius query scans the ring of cells overlapping the
query disc.  Map-matching candidate edges come from the road network's own
edge index (:meth:`repro.roadnet.RoadNetwork.edges_near`), not from here.
"""

from __future__ import annotations

import math
from typing import Generic, Iterable, Iterator, TypeVar

from repro.exceptions import GeometryError
from repro.geo.distance import LocalProjector
from repro.geo.point import GeoPoint

T = TypeVar("T")

#: Side of a grid cell, metres.  The road network's edge index uses the
#: same cells.
CELL_SIZE_M = 250.0


class GridIndex(Generic[T]):
    """Spatial hash of ``(GeoPoint, item)`` pairs with metric queries."""

    def __init__(self, projector: LocalProjector, cell_size_m: float = CELL_SIZE_M) -> None:
        if cell_size_m <= 0.0:
            raise GeometryError(f"cell size must be positive, got {cell_size_m}")
        self._projector = projector
        self._cell = cell_size_m
        self._buckets: dict[tuple[int, int], list[tuple[float, float, T]]] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _key(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self._cell), math.floor(y / self._cell))

    def insert(self, point: GeoPoint, item: T) -> None:
        """Add *item* at *point*."""
        x, y = self._projector.to_xy(point)
        self._buckets.setdefault(self._key(x, y), []).append((x, y, item))
        self._count += 1

    def extend(self, pairs: Iterable[tuple[GeoPoint, T]]) -> None:
        """Bulk-insert ``(point, item)`` pairs."""
        for point, item in pairs:
            self.insert(point, item)

    def query_radius(self, point: GeoPoint, radius_m: float) -> list[tuple[float, T]]:
        """All items within *radius_m* of *point*, as ``(distance_m, item)``.

        Results are not sorted; callers that need ordering sort explicitly.
        """
        if radius_m < 0.0:
            raise GeometryError(f"radius must be non-negative, got {radius_m}")
        px, py = self._projector.to_xy(point)
        reach = int(math.ceil(radius_m / self._cell))
        cx, cy = self._key(px, py)
        out: list[tuple[float, T]] = []
        for ix in range(cx - reach, cx + reach + 1):
            for iy in range(cy - reach, cy + reach + 1):
                bucket = self._buckets.get((ix, iy))
                if not bucket:
                    continue
                for x, y, item in bucket:
                    d = math.hypot(px - x, py - y)
                    if d <= radius_m:
                        out.append((d, item))
        return out

    def nearest(
        self, point: GeoPoint, max_radius_m: float = 5_000.0
    ) -> tuple[float, T] | None:
        """Closest item to *point* within *max_radius_m*, or ``None``.

        Expands the search ring outward one cell layer at a time, stopping as
        soon as the best hit cannot be beaten by any unexplored cell.
        """
        if self._count == 0:
            return None
        px, py = self._projector.to_xy(point)
        cx, cy = self._key(px, py)
        max_reach = int(math.ceil(max_radius_m / self._cell)) + 1
        best: tuple[float, T] | None = None
        for ring in range(max_reach + 1):
            for ix, iy in self._ring_cells(cx, cy, ring):
                bucket = self._buckets.get((ix, iy))
                if not bucket:
                    continue
                for x, y, item in bucket:
                    d = math.hypot(px - x, py - y)
                    if d <= max_radius_m and (best is None or d < best[0]):
                        best = (d, item)
            # Any item in ring r+1 is at least r * cell metres away from the
            # query cell, so once the best hit beats that bound we can stop.
            if best is not None and best[0] <= ring * self._cell:
                break
        return best

    @staticmethod
    def _ring_cells(cx: int, cy: int, ring: int) -> Iterator[tuple[int, int]]:
        if ring == 0:
            yield (cx, cy)
            return
        for ix in range(cx - ring, cx + ring + 1):
            yield (ix, cy - ring)
            yield (ix, cy + ring)
        for iy in range(cy - ring + 1, cy + ring):
            yield (cx - ring, iy)
            yield (cx + ring, iy)
