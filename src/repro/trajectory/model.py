"""Trajectory data model (paper Definitions 1, 3 and 4).

* :class:`RawTrajectory` — the database representation: a time-ordered
  sequence of sampled GPS locations.
* :class:`SymbolicTrajectory` — the calibrated representation: a sequence of
  ``(landmark, timestamp)`` anchors produced by
  :mod:`repro.calibration`.
* :class:`TrajectorySegment` — the sub-trajectory connecting two consecutive
  landmarks; the atomic unit that features are extracted from and that the
  partitioner labels.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.exceptions import TrajectoryError
from repro.geo import BoundingBox, GeoPoint, LocalProjector
from repro.landmarks import LandmarkId


@dataclass(frozen=True, slots=True)
class TrajectoryPoint:
    """One GPS sample: a location and its timestamp (seconds, epoch-like)."""

    point: GeoPoint
    t: float


class RawTrajectory:
    """A raw trajectory ``T = [(p1, t1), ..., (pn, tn)]`` (Definition 1).

    Pickles as its id and three float columns (latitudes, longitudes,
    timestamps) and is rebuilt on load through the public constructors,
    so a copy in a worker process passes every check the original did.
    """

    def __init__(
        self, points: Sequence[TrajectoryPoint], trajectory_id: str = ""
    ) -> None:
        if len(points) < 2:
            raise TrajectoryError(
                f"a raw trajectory needs at least 2 samples, got {len(points)}"
            )
        times = [p.t for p in points]
        if any(b < a for a, b in zip(times, times[1:])):
            raise TrajectoryError("trajectory timestamps must be non-decreasing")
        self.points: tuple[TrajectoryPoint, ...] = tuple(points)
        self.trajectory_id = trajectory_id
        self._times = times

    def __reduce__(self) -> tuple:
        points = self.points
        return (
            _raw_from_columns,
            (
                self.trajectory_id,
                tuple([p.point.lat for p in points]),
                tuple([p.point.lon for p in points]),
                tuple(self._times),
            ),
        )

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[TrajectoryPoint]:
        return iter(self.points)

    def __getitem__(self, index: int) -> TrajectoryPoint:
        return self.points[index]

    @property
    def start_time(self) -> float:
        return self.points[0].t

    @property
    def end_time(self) -> float:
        return self.points[-1].t

    @property
    def duration_s(self) -> float:
        """Elapsed time between the first and last sample."""
        return self.end_time - self.start_time

    def coordinates(self) -> list[GeoPoint]:
        """The bare location sequence."""
        return [p.point for p in self.points]

    def bounding_box(self) -> BoundingBox:
        """Spatial extent of the trajectory."""
        return BoundingBox.from_points(self.coordinates())

    def length_m(self, projector: LocalProjector) -> float:
        """Travelled distance: the sum of consecutive sample gaps."""
        return sum(
            projector.distance_m(a.point, b.point)
            for a, b in zip(self.points, self.points[1:])
        )

    def slice_time(self, t_start: float, t_end: float) -> list[TrajectoryPoint]:
        """Samples with ``t_start <= t <= t_end`` (boundary inclusive)."""
        if t_end < t_start:
            raise TrajectoryError(f"empty time slice: [{t_start}, {t_end}]")
        lo = bisect.bisect_left(self._times, t_start)
        hi = bisect.bisect_right(self._times, t_end)
        return list(self.points[lo:hi])

    def __repr__(self) -> str:
        return (
            f"RawTrajectory(id={self.trajectory_id!r}, samples={len(self.points)}, "
            f"duration={self.duration_s:.0f}s)"
        )


def _raw_from_columns(
    trajectory_id: str,
    lats: Sequence[float],
    lons: Sequence[float],
    ts: Sequence[float],
) -> RawTrajectory:
    """Rebuild a pickled :class:`RawTrajectory` from its float columns."""
    return RawTrajectory(
        [
            TrajectoryPoint(GeoPoint(lat, lon), t)
            for lat, lon, t in zip(lats, lons, ts, strict=True)
        ],
        trajectory_id,
    )


@dataclass(frozen=True, slots=True)
class SymbolicEntry:
    """One anchor of a symbolic trajectory: a landmark and its pass time."""

    landmark: LandmarkId
    t: float


@dataclass(frozen=True, slots=True)
class TrajectorySegment:
    """Sub-trajectory between consecutive landmarks ``l_i`` and ``l_{i+1}``.

    ``index`` is the position of the segment in its symbolic trajectory
    (``TS_i`` in the paper).
    """

    index: int
    start_landmark: LandmarkId
    end_landmark: LandmarkId
    t_start: float
    t_end: float

    @property
    def duration_s(self) -> float:
        return self.t_end - self.t_start


class SymbolicTrajectory:
    """A calibrated trajectory: landmarks with timestamps (Definition 3)."""

    def __init__(
        self, entries: Sequence[SymbolicEntry], trajectory_id: str = ""
    ) -> None:
        if len(entries) < 2:
            raise TrajectoryError(
                f"a symbolic trajectory needs at least 2 landmarks, got {len(entries)}"
            )
        times = [e.t for e in entries]
        if any(b < a for a, b in zip(times, times[1:])):
            raise TrajectoryError("symbolic timestamps must be non-decreasing")
        if any(a.landmark == b.landmark for a, b in zip(entries, entries[1:])):
            raise TrajectoryError("consecutive anchors must be distinct landmarks")
        self.entries: tuple[SymbolicEntry, ...] = tuple(entries)
        self.trajectory_id = trajectory_id

    def __len__(self) -> int:
        """Number of landmarks, ``|T|`` in the paper."""
        return len(self.entries)

    def __iter__(self) -> Iterator[SymbolicEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> SymbolicEntry:
        return self.entries[index]

    def landmark_ids(self) -> list[LandmarkId]:
        """The landmark sequence."""
        return [e.landmark for e in self.entries]

    def segments(self) -> list[TrajectorySegment]:
        """The ``|T| - 1`` trajectory segments (Definition 4)."""
        return [
            TrajectorySegment(i, a.landmark, b.landmark, a.t, b.t)
            for i, (a, b) in enumerate(zip(self.entries, self.entries[1:]))
        ]

    @property
    def segment_count(self) -> int:
        return len(self.entries) - 1

    def __repr__(self) -> str:
        return (
            f"SymbolicTrajectory(id={self.trajectory_id!r}, "
            f"landmarks={len(self.entries)})"
        )
