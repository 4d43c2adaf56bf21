"""Exactness of anchor calibration's projected-metre candidate scan.

``AnchorCalibrator._collect_candidates`` projects every sample once and
reads landmark projections from the grid's memoised cell scans.  It must
return exactly the candidates of the code as first written: one
``LandmarkIndex.within`` radius query per leg, sorted by distance from the
leg's start, then ``point_segment_distance_m`` per hit.  The order matters
on exact ties, because ``_cluster_passes`` keeps the first of equal
distances and the anchors are sorted stably by time.
"""

import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import AnchorCalibrator, CalibrationConfig
from repro.calibration.anchor import _Candidate
from repro.exceptions import CalibrationError
from repro.geo import GeoPoint, LocalProjector, point_segment_distance_m
from repro.geo.grid import CELL_SIZE_M
from repro.landmarks import Landmark, LandmarkIndex, LandmarkKind
from repro.landmarks import model as landmarks_model
from repro.trajectory import RawTrajectory, TrajectoryPoint, take_every


class RadiusQueryCalibrator(AnchorCalibrator):
    """Candidate collection as first written, the reference for
    ``AnchorCalibrator._collect_candidates``: per leg, a radius query of
    ``search_radius_m`` plus the leg length around the leg's start over
    landmarks bucketed in 250 m cells (cells scanned ``ix`` outer, ``iy``
    inner, hits stably sorted by distance), then the point-to-segment
    distance of each hit from its geographic points."""

    def __init__(self, landmarks, config=None):
        super().__init__(landmarks, config)
        self.buckets = {}
        for landmark in landmarks:
            x, y = landmarks.projector.to_xy(landmark.point)
            key = (math.floor(x / CELL_SIZE_M), math.floor(y / CELL_SIZE_M))
            self.buckets.setdefault(key, []).append((x, y, landmark))

    def within(self, point, radius_m):
        px, py = self.landmarks.projector.to_xy(point)
        reach = int(math.ceil(radius_m / CELL_SIZE_M))
        cx, cy = math.floor(px / CELL_SIZE_M), math.floor(py / CELL_SIZE_M)
        hits = []
        for ix in range(cx - reach, cx + reach + 1):
            for iy in range(cy - reach, cy + reach + 1):
                for x, y, landmark in self.buckets.get((ix, iy), ()):
                    d = math.hypot(px - x, py - y)
                    if d <= radius_m:
                        hits.append((d, landmark))
        hits.sort(key=lambda pair: pair[0])
        return hits

    def _collect_candidates(self, trajectory):
        projector = self.landmarks.projector
        radius = self.config.search_radius_m
        out = []
        for a, b in zip(trajectory.points, trajectory.points[1:]):
            leg_m = projector.distance_m(a.point, b.point)
            for _, landmark in self.within(a.point, radius + leg_m):
                dist, frac = point_segment_distance_m(
                    landmark.point, a.point, b.point, projector
                )
                if dist > radius:
                    continue
                t = a.t + frac * (b.t - a.t)
                out.append(_Candidate(landmark.landmark_id, t, dist))
        return out


def calibrated(calibrator, raw):
    """``(landmark, t)`` anchors and the id of *raw*, or the error's text."""
    try:
        symbolic = calibrator.calibrate(raw)
    except CalibrationError as exc:
        return str(exc)
    return ([(e.landmark, e.t) for e in symbolic], symbolic.trajectory_id)


def tie_counts(calibrator, raw, counts):
    """Counts legs whose in-radius hits tie on distance from the leg's
    start, and anchors of different landmarks at equal times."""
    projector = calibrator.landmarks.projector
    radius = calibrator.config.search_radius_m
    for a, b in zip(raw.points, raw.points[1:]):
        reach = radius + projector.distance_m(a.point, b.point)
        hits = calibrator.within(a.point, reach)
        distances = [
            d for d, landmark in hits
            if point_segment_distance_m(landmark.point, a.point, b.point, projector)[0]
            <= radius
        ]
        counts["tied_d"] += len(set(distances)) < len(distances)
    anchors = calibrator._cluster_passes(calibrator._collect_candidates(raw))
    by_t = {}
    for anchor in anchors:
        by_t.setdefault(anchor.t, set()).add(anchor.landmark)
    counts["tied_t"] += sum(len(ids) > 1 for ids in by_t.values())


@pytest.fixture(scope="module")
def scenario_trips(scenario):
    """60 scenario trips at their 5 s sampling and thinned to 30 s."""
    trips = scenario.simulate_trips(60, rng=np.random.default_rng(26))
    return {5: [t.raw for t in trips], 30: [take_every(t.raw, 6) for t in trips]}


@pytest.mark.parametrize("period", [5, 30])
def test_scenario_candidates_and_anchors_are_unchanged(scenario, scenario_trips, period):
    calibrator = scenario.stmaker.calibrator
    reference = RadiusQueryCalibrator(calibrator.landmarks, calibrator.config)
    counts = Counter()
    for raw in scenario_trips[period]:
        assert calibrator._collect_candidates(raw) == reference._collect_candidates(raw)
        assert calibrated(calibrator, raw) == calibrated(reference, raw)
        counts["anchored"] += isinstance(calibrated(reference, raw), tuple)
    # Scenario trips almost never tie exactly on distance or anchor time;
    # the constructed and generated cases below do.
    assert counts["anchored"] > 0.9 * len(scenario_trips[period])


def test_scenario_within_is_unchanged(scenario, scenario_trips):
    index = scenario.stmaker.calibrator.landmarks
    reference = RadiusQueryCalibrator(index)
    points = [p.point for raw in scenario_trips[5][:10] for p in raw.points]
    for radius in (0.0, 80.0, 300.0, 900.0):
        for point in points:
            assert index.within(point, radius) == reference.within(point, radius)


#: A projector at (0, 0): projection is a product by a scale, so points
#: mirrored in longitude project to x coordinates of exactly opposite sign.
ORIGIN = LocalProjector(GeoPoint(0.0, 0.0))
M_LON, M_LAT = ORIGIN.to_xy(GeoPoint(1.0, 1.0))  # metres per degree


def at(x, y):
    """The point whose projection is (about) ``(x, y)`` metres."""
    return GeoPoint(y / M_LAT, x / M_LON)


def make_index(points):
    return LandmarkIndex(
        [
            Landmark(i, point, f"L{i}", LandmarkKind.TURNING_POINT)
            for i, point in enumerate(points)
        ],
        ORIGIN,
    )


def make_trip(points, dt=5.0):
    return RawTrajectory(
        [TrajectoryPoint(point, i * dt) for i, point in enumerate(points)], "trip"
    )


def test_constructed_ties_keep_the_reference_order():
    """Equal distances across cells (mirrored landmarks, the east one
    inserted first) and within a cell (two landmarks on one point) give
    candidates tied on distance and anchors tied on time; both orders must
    be the reference's."""
    east, west = GeoPoint(0.0, 100.0 / M_LON), GeoPoint(0.0, -100.0 / M_LON)
    assert ORIGIN.to_xy(east)[0] == -ORIGIN.to_xy(west)[0]
    index = make_index([east, west, at(0.0, 600.0), at(0.0, 600.0), at(0.0, -600.0)])
    calibrator = AnchorCalibrator(index, CalibrationConfig(search_radius_m=150.0))
    reference = RadiusQueryCalibrator(index, calibrator.config)
    trip = make_trip([at(0.0, -700.0 + 100.0 * i) for i in range(15)])
    candidates = calibrator._collect_candidates(trip)
    assert candidates == reference._collect_candidates(trip)
    assert calibrated(calibrator, trip) == calibrated(reference, trip)
    counts = Counter()
    tie_counts(reference, trip, counts)
    assert counts["tied_d"] > 0 and counts["tied_t"] > 0
    # The scan reaches the west cell first, whatever the insertion order.
    assert [lm.landmark_id for _, lm in index.within(at(0.0, 0.0), 150.0)] == [1, 0]


def test_scan_memo_is_keyed_by_cell_and_reach():
    index = make_index([at(x, y) for x in range(-900, 901, 300) for y in (-400, 0, 400)])
    grid_scan = RadiusQueryCalibrator(index).within
    first = index.scan_xy(10.0, 10.0, 200.0)
    assert index.scan_xy(240.0, 5.0, 249.0) is first  # same cell, same reach
    wider = index.scan_xy(10.0, 10.0, 400.0)  # same cell, reach 2
    assert wider is not first and len(wider) > len(first)
    assert index.scan_xy(10.0, 10.0, 200.0) is first
    for x, y, radius in ((10.0, 10.0, 200.0), (240.0, 5.0, 249.0), (10.0, 10.0, 400.0)):
        point = ORIGIN.to_point(x, y)
        assert index.within(point, radius) == grid_scan(point, radius)


#: Cell corners and edges, and points just off them, in metres.
ON_GRID = st.sampled_from([-500.0, -250.0, -125.0, 0.0, 125.0, 250.0, 500.0])
NEAR_GRID = st.builds(
    lambda base, off: base + off, ON_GRID, st.sampled_from([-1e-9, 0.0, 1e-9, 0.5])
)
COORD = st.one_of(NEAR_GRID, st.floats(-800.0, 800.0, allow_nan=False))
#: Landmarks: single points on or off the grid, and pairs mirrored in
#: longitude (exactly equidistant from any sample on x = 0).
LANDMARKS = st.lists(
    st.one_of(
        st.tuples(COORD, COORD).map(lambda xy: [at(*xy)]),
        st.tuples(st.floats(1.0, 600.0), COORD).map(
            lambda xy: [GeoPoint(xy[1] / M_LAT, xy[0] / M_LON),
                        GeoPoint(xy[1] / M_LAT, -xy[0] / M_LON)]
        ),
    ),
    min_size=1,
    max_size=8,
).map(lambda groups: [point for group in groups for point in group])
#: Samples: repeated ones make zero-length legs; far ones make legs long
#: enough for a reach of 2 cells or more.
SAMPLE = st.one_of(
    st.tuples(COORD, COORD),
    st.tuples(st.just(0.0), COORD),
    st.tuples(st.floats(-2000.0, 2000.0), st.floats(-2000.0, 2000.0)),
)
SAMPLES = st.lists(SAMPLE, min_size=2, max_size=12).flatmap(
    lambda xys: st.lists(st.integers(1, 2), min_size=len(xys), max_size=len(xys)).map(
        lambda repeats: [at(*xy) for xy, r in zip(xys, repeats) for _ in range(r)]
    )
)


@settings(max_examples=300, deadline=None)
@given(
    landmarks=LANDMARKS,
    samples=SAMPLES,
    radius=st.sampled_from([1.0, 80.0, 249.0, 250.0, 400.0]),
    gap=st.sampled_from([1.0, 45.0]),
)
def test_candidates_match_the_reference(landmarks, samples, radius, gap):
    index = make_index(landmarks)
    config = CalibrationConfig(search_radius_m=radius, revisit_gap_s=gap)
    calibrator = AnchorCalibrator(index, config)
    reference = RadiusQueryCalibrator(index, config)
    trip = make_trip(samples)
    # Twice: the second pass reads every scan from the memo.
    for _ in range(2):
        assert calibrator._collect_candidates(trip) == reference._collect_candidates(trip)
        assert calibrated(calibrator, trip) == calibrated(reference, trip)


def test_threads_sharing_the_scan_memo_get_the_reference_anchors(
    scenario, scenario_trips, monkeypatch
):
    """Server consumers share one model, so threads fill, read and (with a
    tiny cap) clear one memo concurrently; every thread must still get the
    reference's anchors."""
    calibrator = scenario.stmaker.calibrator
    index = LandmarkIndex(list(calibrator.landmarks), calibrator.landmarks.projector)
    shared = AnchorCalibrator(index, calibrator.config)
    reference = RadiusQueryCalibrator(index, calibrator.config)
    trips = scenario_trips[5][:20] + scenario_trips[30][:20]
    expected = [calibrated(reference, raw) for raw in trips]
    monkeypatch.setattr(landmarks_model, "_SCAN_MEMO_MAX", 8)
    failures = []

    def work(offset):
        for k in range(len(trips)):
            j = (k + offset) % len(trips)
            if calibrated(shared, trips[j]) != expected[j]:
                failures.append(j)

    threads = [threading.Thread(target=work, args=(7 * n,)) for n in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
