"""Moving-feature extraction: speed, stay points, U-turns, speed changes.

Moving features are extracted from the *sample-based* (raw) trajectory, not
the symbolic one (paper Sec. III-B).  Besides the numeric feature values,
the detectors return by-products — where the stay points happened and for
how long, where the U-turns occurred — which the templates embed into the
summary text (Sec. VI-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.exceptions import FeatureError
from repro.geo import GeoPoint, LocalProjector, bearing_deg_latlon, heading_change_deg
from repro.trajectory import TrajectoryPoint, average_speed_ms, instantaneous_speeds_ms


@dataclass(frozen=True, slots=True)
class StayPoint:
    """A place where the object lingered: centre and dwell interval."""

    center: GeoPoint
    t_start: float
    t_end: float

    @property
    def duration_s(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True, slots=True)
class StayPointConfig:
    """Stay-point detection parameters (Li et al. / Zheng et al. style)."""

    radius_m: float = 40.0
    min_duration_s: float = 45.0

    def __post_init__(self) -> None:
        if not (
            0.0 < self.radius_m < math.inf and 0.0 < self.min_duration_s < math.inf
        ):
            raise FeatureError("stay-point radius and duration must be positive and finite")


def detect_stay_points(
    points: Sequence[TrajectoryPoint],
    projector: LocalProjector,
    config: StayPointConfig | None = None,
) -> list[StayPoint]:
    """Stay points of a sample sequence.

    Classic two-pointer sweep: starting at anchor ``i``, extend ``j`` while
    every sample stays within ``radius_m`` of sample ``i``; if the dwell
    time reaches ``min_duration_s`` the window becomes a stay point and the
    sweep restarts after it.
    """
    config = config or StayPointConfig()
    out: list[StayPoint] = []
    n = len(points)
    i = 0
    while i < n - 1:
        j = i + 1
        while j < n and (
            projector.distance_m(points[i].point, points[j].point) <= config.radius_m
        ):
            j += 1
        duration = points[j - 1].t - points[i].t
        if duration >= config.min_duration_s and j - 1 > i:
            xs, ys = zip(*(projector.to_xy(p.point) for p in points[i:j]))
            center = projector.to_point(sum(xs) / len(xs), sum(ys) / len(ys))
            out.append(StayPoint(center, points[i].t, points[j - 1].t))
            i = j
        else:
            i += 1
    return out


@dataclass(frozen=True, slots=True)
class UTurn:
    """A sharp direction reversal: where and when it happened."""

    location: GeoPoint
    t: float
    heading_change_deg: float


@dataclass(frozen=True, slots=True)
class UTurnConfig:
    """U-turn detection parameters."""

    #: Heading reversal (degrees) that qualifies as a U-turn.
    angle_threshold_deg: float = 150.0
    #: Headings are estimated over displacement windows of this length, which
    #: filters GPS jitter.
    window_m: float = 30.0
    #: Two reversals within this many seconds merge into one event.
    merge_gap_s: float = 30.0
    #: Steps shorter than this carry no heading information.
    min_step_m: float = 2.0
    #: Minimum windowed speed (m/s): below this the object is effectively
    #: parked and headings are GPS-noise artifacts.
    min_window_speed_ms: float = 1.5
    #: Positions are smoothed with a centred moving average of this many
    #: samples before heading estimation (suppresses GPS jitter).
    smoothing_samples: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.angle_threshold_deg <= 180.0:
            raise FeatureError("angle threshold must lie in (0, 180]")
        if not (0.0 < self.window_m < math.inf and 0.0 <= self.merge_gap_s < math.inf):
            raise FeatureError(
                "window must be positive and finite, merge gap non-negative and finite"
            )
        if not (
            0.0 <= self.min_step_m < math.inf and 0.0 <= self.min_window_speed_ms < math.inf
        ):
            raise FeatureError("minimum step and window speed must be non-negative and finite")


def detect_u_turns(
    points: Sequence[TrajectoryPoint],
    projector: LocalProjector,
    config: UTurnConfig | None = None,
) -> list[UTurn]:
    """U-turns of a sample sequence.

    The heading at each sample is measured over a trailing displacement
    window of ``window_m`` metres; a U-turn is flagged where the windowed
    heading before and after a sample differ by at least the threshold.
    Nearby reversals (a multi-point turn) merge into a single event.

    Each step between smoothed samples is measured once, and each window
    ``(first sample, last sample)`` gets its heading once: the window
    leaving one sample is often the window entering the next.  Positions
    stay ``lat``/``lon`` floats: steps and nets come from
    :meth:`LocalProjector.distance_latlon`, headings from
    :func:`~repro.geo.bearing_deg_latlon`, and a :class:`GeoPoint` is built
    only for an emitted event.
    """
    config = config or UTurnConfig()
    n = len(points)
    if n < 3:
        return []
    lats, lons = _smooth_positions(points, projector, config.smoothing_samples)
    times = [p.t for p in points]
    distance = projector.distance_latlon
    # The distance is symmetric to the bit, so one measure serves both
    # walking directions.
    steps = [distance(lats[k], lons[k], lats[k + 1], lons[k + 1]) for k in range(n - 1)]
    window = config.window_m
    min_net = max(config.min_step_m, 0.5 * window)
    headings: dict[tuple[int, int], float | None] = {}

    def heading(first: int, last: int) -> float | None:
        """Bearing from sample *first* to sample *last*, or ``None``."""
        key = (first, last)
        if key in headings:
            return headings[key]
        # Guard against the classic false positive at stay points: while
        # parked, GPS jitter accumulates path length but no displacement and
        # no speed, and the resulting headings are pure noise.  A genuine
        # U-turn has both a substantial net displacement across the window
        # and sustained movement through it.
        net = distance(lats[first], lons[first], lats[last], lons[last])
        elapsed = abs(times[last] - times[first])
        if net < min_net or (
            elapsed > 0.0 and net / elapsed < config.min_window_speed_ms
        ):
            bearing = None
        else:
            bearing = bearing_deg_latlon(lats[first], lons[first], lats[last], lons[last])
        headings[key] = bearing
        return bearing

    events: list[UTurn] = []
    for i in range(1, n - 1):
        # The window entering sample i: walk back until window_m is covered.
        walked = 0.0
        first = i
        while first > 0:
            first -= 1
            walked += steps[first]
            if walked >= window:
                break
        before = heading(first, i)
        if before is None:
            continue
        # The window leaving sample i.
        walked = 0.0
        last = i
        while last < n - 1:
            walked += steps[last]
            last += 1
            if walked >= window:
                break
        after = heading(i, last)
        if after is None:
            continue
        change = heading_change_deg(before, after)
        if change < config.angle_threshold_deg:
            continue
        if events and times[i] - events[-1].t <= config.merge_gap_s:
            # Same physical turn: keep the sharpest sample as the event.
            if change > events[-1].heading_change_deg:
                events[-1] = UTurn(GeoPoint(lats[i], lons[i]), times[i], change)
            continue
        events.append(UTurn(GeoPoint(lats[i], lons[i]), times[i], change))
    return events


def _smooth_positions(
    points: Sequence[TrajectoryPoint],
    projector: LocalProjector,
    window: int,
) -> tuple[list[float], list[float]]:
    """Centred moving average over positions, one ``(lat, lon)`` per sample,
    as a list of latitudes and a list of longitudes.

    Averaging ``w`` samples shrinks GPS noise by ``sqrt(w)``, which is what
    makes heading estimation usable near stay points.  The floats are
    those of :meth:`LocalProjector.to_point` on the averaged metres,
    without building (and validating) a :class:`GeoPoint` per sample.
    """
    if window <= 1 or len(points) < 3:
        return [p.point.lat for p in points], [p.point.lon for p in points]
    xys = [projector.to_xy(p.point) for p in points]
    xs = [x for x, _ in xys]
    ys = [y for _, y in xys]
    n = len(points)
    half = window // 2
    to_latlon = projector.to_latlon
    lats: list[float] = []
    lons: list[float] = []
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        width = hi - lo
        lat, lon = to_latlon(sum(xs[lo:hi]) / width, sum(ys[lo:hi]) / width)
        lats.append(lat)
        lons.append(lon)
    return lats, lons


@dataclass(frozen=True, slots=True)
class SpeedChangeConfig:
    """Sharp-speed-change (SpeC) detection parameters."""

    #: Minimum speed jump (m/s) between consecutive gaps to count an event.
    #: At 5-second sampling this corresponds to sustained hard braking or
    #: flooring it — routine decelerations into intersections stay below it.
    threshold_ms: float = 6.5
    #: Consecutive events within this gap merge into one.
    merge_gap_s: float = 20.0

    def __post_init__(self) -> None:
        if self.threshold_ms <= 0.0:
            raise FeatureError("speed-change threshold must be positive")


def count_speed_changes(
    points: Sequence[TrajectoryPoint],
    projector: LocalProjector,
    config: SpeedChangeConfig | None = None,
) -> int:
    """Number of sharp accelerations/brakes along the sample sequence."""
    config = config or SpeedChangeConfig()
    speeds = instantaneous_speeds_ms(points, projector)
    if len(speeds) < 2:
        return 0
    count = 0
    last_event_t = -float("inf")
    for k in range(1, len(speeds)):
        if abs(speeds[k] - speeds[k - 1]) >= config.threshold_ms:
            t = points[k].t
            if t - last_event_t > config.merge_gap_s:
                count += 1
            last_event_t = t
    return count


@dataclass(frozen=True, slots=True)
class MovingFeatures:
    """Moving-feature values and template by-products for one segment."""

    speed_kmh: float
    stay_points: list[StayPoint]
    u_turns: list[UTurn]
    speed_change_count: int

    @property
    def stay_count(self) -> int:
        return len(self.stay_points)

    @property
    def stay_total_s(self) -> float:
        return sum(s.duration_s for s in self.stay_points)

    @property
    def u_turn_count(self) -> int:
        return len(self.u_turns)


@dataclass(frozen=True, slots=True)
class MovingFeatureExtractor:
    """Bundles the moving-feature detectors behind one call."""

    projector: LocalProjector
    stay_config: StayPointConfig = field(default_factory=StayPointConfig)
    u_turn_config: UTurnConfig = field(default_factory=UTurnConfig)
    speed_change_config: SpeedChangeConfig = field(default_factory=SpeedChangeConfig)

    def extract(self, points: Sequence[TrajectoryPoint]) -> MovingFeatures:
        """Moving features of one segment's raw samples."""
        speed_kmh = average_speed_ms(points, self.projector) * 3.6
        return MovingFeatures(
            speed_kmh=speed_kmh,
            stay_points=detect_stay_points(points, self.projector, self.stay_config),
            u_turns=detect_u_turns(points, self.projector, self.u_turn_config),
            speed_change_count=count_speed_changes(
                points, self.projector, self.speed_change_config
            ),
        )
