"""Landmark model and spatial index.

A landmark (paper Definition 2) is a stable geographic point independent of
any trajectory — either a POI-cluster centre or a road-network turning
point.  Landmarks carry a significance score ``l.s`` (Sec. IV-B) assigned by
the HITS-like algorithm in :mod:`repro.landmarks.significance`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.exceptions import GeometryError
from repro.geo import GeoPoint, GridIndex, LocalProjector

LandmarkId = int


class LandmarkKind(Enum):
    """Origin of a landmark: POI cluster centre or road turning point."""

    POI_CLUSTER = "poi_cluster"
    TURNING_POINT = "turning_point"


@dataclass(slots=True)
class Landmark:
    """A named, significance-scored anchor point in the city."""

    landmark_id: LandmarkId
    point: GeoPoint
    name: str
    kind: LandmarkKind
    significance: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.significance <= 1.0:
            raise GeometryError(
                f"landmark significance must lie in [0, 1], got {self.significance}"
            )


#: Scans :meth:`LandmarkIndex.scan_xy` keeps before it starts afresh.  A
#: key is a ``(cx, cy, reach)`` that a leg started in; the perfbench city
#: (18 x 18 cells of 250 m) gives 333 distinct keys over 400 trips at 5 s
#: and 724 at 30 s (reach 1 to 4), so the cap is several times what a city
#: of that size fills and only bounds memory on much larger maps.
_SCAN_MEMO_MAX = 4096


class LandmarkIndex:
    """Spatially indexed landmark collection with id and metric lookups.

    The collection never changes after construction, so the grid scans
    behind :meth:`scan_xy` are memoised per ``(cell, reach)``.
    """

    def __init__(self, landmarks: list[Landmark], projector: LocalProjector) -> None:
        self.projector = projector
        self._by_id: dict[LandmarkId, Landmark] = {}
        self._grid: GridIndex[LandmarkId] = GridIndex(projector)
        self._scans: dict[
            tuple[int, int, int], tuple[tuple[float, float, LandmarkId], ...]
        ] = {}
        for landmark in landmarks:
            if landmark.landmark_id in self._by_id:
                raise GeometryError(f"duplicate landmark id {landmark.landmark_id}")
            self._by_id[landmark.landmark_id] = landmark
            self._grid.insert(landmark.point, landmark.landmark_id)

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id.values())

    def __contains__(self, landmark_id: LandmarkId) -> bool:
        return landmark_id in self._by_id

    def get(self, landmark_id: LandmarkId) -> Landmark:
        """Landmark by id; raises :class:`GeometryError` if unknown."""
        try:
            return self._by_id[landmark_id]
        except KeyError:
            raise GeometryError(f"unknown landmark id {landmark_id}") from None

    def nearest(
        self, point: GeoPoint, max_radius_m: float = 2_000.0
    ) -> tuple[float, Landmark] | None:
        """Closest landmark within *max_radius_m* of *point*, or ``None``."""
        hit = self._grid.nearest(point, max_radius_m)
        if hit is None:
            return None
        return (hit[0], self._by_id[hit[1]])

    def scan_xy(
        self, x: float, y: float, radius_m: float
    ) -> tuple[tuple[float, float, LandmarkId], ...]:
        """``(x, y, landmark_id)`` of every landmark in the grid cells that a
        query of *radius_m* at projected ``(x, y)`` scans, in scan order.

        A superset of the hits: callers keep the entries whose
        ``hypot(x - ex, y - ey)`` is at most *radius_m*.  The stored ``ex``,
        ``ey`` are exactly ``projector.to_xy(landmark.point)``.  The tuple
        is memoised and shared between callers.  Raises
        :class:`GeometryError` unless *radius_m* is finite and non-negative.

        Consecutive legs of one trip mostly start in the same cell: over
        400 perfbench trips from an empty memo, 99.1 % of calibration's
        lookups hit the memo at 5 s sampling and 88.4 % at 30 s.  On a
        2-vCPU host the memo takes calibrating those 5 s trips from
        1.1-1.3 ms per trip to 0.76-0.79 ms.
        """
        key = self._grid.scan_key(x, y, radius_m)
        scan = self._scans.get(key)
        if scan is None:
            # Threads that race here each build an equal scan, and one may
            # clear another's entry: either way every caller gets a
            # complete scan, so the memo needs no lock.
            if len(self._scans) >= _SCAN_MEMO_MAX:
                self._scans.clear()
            scan = self._scans[key] = tuple(self._grid.scan(*key))
        return scan

    def within(self, point: GeoPoint, radius_m: float) -> list[tuple[float, Landmark]]:
        """All landmarks within *radius_m* of *point*, sorted by distance
        (stable: landmarks at equal distance keep :meth:`scan_xy` order)."""
        hits = self._grid.query_radius(point, radius_m)
        hits.sort(key=lambda pair: pair[0])
        return [(d, self._by_id[lid]) for d, lid in hits]

    def ids(self) -> list[LandmarkId]:
        """All landmark ids."""
        return list(self._by_id)
