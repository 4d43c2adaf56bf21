"""Tests for anchor-based calibration."""

import math

import pytest

from repro.calibration import AnchorCalibrator, CalibrationConfig
from repro.exceptions import CalibrationError
from repro.geo import GeoPoint, LocalProjector
from repro.landmarks import Landmark, LandmarkIndex, LandmarkKind
from repro.trajectory import RawTrajectory, TrajectoryPoint, downsample_by_time

CENTER = GeoPoint(39.91, 116.40)


@pytest.fixture(scope="module")
def projector():
    return LocalProjector(CENTER)


@pytest.fixture(scope="module")
def landmarks(projector):
    """Three landmarks on the x axis, 500 m apart, plus one far away."""
    coords = [(0.0, 0.0), (500.0, 0.0), (1000.0, 0.0), (5000.0, 5000.0)]
    lms = [
        Landmark(i, projector.to_point(x, y), f"L{i}", LandmarkKind.TURNING_POINT)
        for i, (x, y) in enumerate(coords)
    ]
    return LandmarkIndex(lms, projector)


def straight_trip(projector, speed_ms=10.0, spacing_m=50.0, length_m=1000.0, y_offset=5.0):
    """A trajectory driving east along y = y_offset."""
    n = int(length_m / spacing_m) + 1
    return RawTrajectory(
        [
            TrajectoryPoint(
                projector.to_point(i * spacing_m, y_offset), i * spacing_m / speed_ms
            )
            for i in range(n)
        ],
        "trip",
    )


class TestConfig:
    def test_invalid_values(self):
        with pytest.raises(CalibrationError):
            CalibrationConfig(search_radius_m=0.0)
        with pytest.raises(CalibrationError):
            CalibrationConfig(revisit_gap_s=-1.0)

    @pytest.mark.parametrize(
        "field", [{"search_radius_m": math.nan}, {"search_radius_m": math.inf},
                  {"revisit_gap_s": math.nan}, {"revisit_gap_s": math.inf}],
    )
    def test_non_finite_values_rejected(self, field):
        # A non-finite radius used to reach GridIndex.query_radius, whose
        # math.ceil raised a bare ValueError or OverflowError per trip.
        with pytest.raises(CalibrationError):
            CalibrationConfig(**field)


class TestCalibration:
    def test_anchors_in_order(self, landmarks, projector):
        calibrator = AnchorCalibrator(landmarks)
        symbolic = calibrator.calibrate(straight_trip(projector))
        assert symbolic.landmark_ids() == [0, 1, 2]

    def test_times_interpolated(self, landmarks, projector):
        calibrator = AnchorCalibrator(landmarks)
        symbolic = calibrator.calibrate(straight_trip(projector, speed_ms=10.0))
        times = [e.t for e in symbolic]
        # 500 m at 10 m/s: anchors at ~0, ~50, ~100 seconds.
        assert times[0] == pytest.approx(0.0, abs=1.0)
        assert times[1] == pytest.approx(50.0, abs=1.0)
        assert times[2] == pytest.approx(100.0, abs=1.0)

    def test_far_landmark_excluded(self, landmarks, projector):
        calibrator = AnchorCalibrator(landmarks)
        symbolic = calibrator.calibrate(straight_trip(projector))
        assert 3 not in symbolic.landmark_ids()

    def test_radius_controls_matching(self, landmarks, projector):
        tight = AnchorCalibrator(landmarks, CalibrationConfig(search_radius_m=3.0))
        # The trip runs at y = 5, so a 3 m radius sees no landmark.
        with pytest.raises(CalibrationError):
            tight.calibrate(straight_trip(projector, y_offset=5.0))

    def test_sampling_rate_invariance(self, landmarks, projector):
        """Paper Sec. II-A: different sampling, same symbolic trajectory."""
        calibrator = AnchorCalibrator(landmarks)
        dense = straight_trip(projector, spacing_m=10.0)
        sparse = downsample_by_time(dense, 20.0)  # every 200 m
        sym_dense = calibrator.calibrate(dense)
        sym_sparse = calibrator.calibrate(sparse)
        assert sym_dense.landmark_ids() == sym_sparse.landmark_ids()
        for a, b in zip(sym_dense, sym_sparse):
            assert a.t == pytest.approx(b.t, abs=2.0)

    def test_revisit_detected(self, landmarks, projector):
        # Drive 0 -> 1000 m then back to 0: landmarks 0,1,2 then 1,0 again.
        out = straight_trip(projector, spacing_m=50.0)
        back_points = [
            TrajectoryPoint(
                projector.to_point(1000.0 - i * 50.0, 5.0), 100.0 + i * 5.0
            )
            for i in range(1, 21)
        ]
        round_trip = RawTrajectory(list(out.points) + back_points, "round")
        calibrator = AnchorCalibrator(landmarks)
        symbolic = calibrator.calibrate(round_trip)
        assert symbolic.landmark_ids() == [0, 1, 2, 1, 0]

    def test_quick_jitter_not_a_revisit(self, landmarks, projector):
        # Hovering near landmark 1 for a few samples must yield one anchor.
        pts = [
            TrajectoryPoint(projector.to_point(480.0 + 5 * (i % 3), 5.0), i * 2.0)
            for i in range(10
            )
        ]
        pts.append(TrajectoryPoint(projector.to_point(1000.0, 5.0), 60.0))
        trip = RawTrajectory(pts, "jitter")
        symbolic = AnchorCalibrator(landmarks).calibrate(trip)
        assert symbolic.landmark_ids() == [1, 2]

    def test_too_few_anchors_raises(self, landmarks, projector):
        pts = [
            TrajectoryPoint(projector.to_point(3000.0, 3000.0), 0.0),
            TrajectoryPoint(projector.to_point(3100.0, 3000.0), 10.0),
        ]
        with pytest.raises(CalibrationError):
            AnchorCalibrator(landmarks).calibrate(RawTrajectory(pts, "lost"))

    def test_landmark_between_sparse_samples_found(self, landmarks, projector):
        # Samples at x = -200 and x = 700 only: landmarks 0 and 1 sit inside
        # the single long leg and must still be detected.
        pts = [
            TrajectoryPoint(projector.to_point(-200.0, 5.0), 0.0),
            TrajectoryPoint(projector.to_point(700.0, 5.0), 90.0),
            TrajectoryPoint(projector.to_point(1100.0, 5.0), 130.0),
        ]
        symbolic = AnchorCalibrator(landmarks).calibrate(RawTrajectory(pts, "sparse"))
        assert symbolic.landmark_ids() == [0, 1, 2]
