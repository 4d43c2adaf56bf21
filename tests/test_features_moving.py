"""Tests for moving-feature detectors: stays, U-turns, speed changes."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CalibrationError, FeatureError
from repro.features import (
    MovingFeatureExtractor,
    SpeedChangeConfig,
    StayPointConfig,
    UTurnConfig,
    count_speed_changes,
    detect_stay_points,
    detect_u_turns,
)
from repro.features.moving import UTurn
from repro.geo import GeoPoint, LocalProjector, bearing_deg, heading_change_deg
from repro.simulate import TripConfig, TripSimulator
from repro.trajectory import TrajectoryPoint, take_every

CENTER = GeoPoint(39.91, 116.40)


@pytest.fixture(scope="module")
def projector():
    return LocalProjector(CENTER)


def moving_east(projector, speed_ms=10.0, dt=5.0, n=20, start_t=0.0, start_x=0.0):
    return [
        TrajectoryPoint(projector.to_point(start_x + i * speed_ms * dt, 0.0), start_t + i * dt)
        for i in range(n)
    ]


def parked(projector, x, t0, duration, dt=5.0, jitter=0.0, rng=None):
    pts = []
    t = t0
    while t <= t0 + duration:
        dx = dy = 0.0
        if jitter and rng is not None:
            dx = float(rng.normal(0, jitter))
            dy = float(rng.normal(0, jitter))
        pts.append(TrajectoryPoint(projector.to_point(x + dx, dy), t))
        t += dt
    return pts


class TestStayPoints:
    def test_config_validation(self):
        with pytest.raises(FeatureError):
            StayPointConfig(radius_m=0.0)
        with pytest.raises(FeatureError):
            StayPointConfig(min_duration_s=-1.0)

    def test_no_stays_while_moving(self, projector):
        pts = moving_east(projector)
        assert detect_stay_points(pts, projector) == []

    def test_stop_detected(self, projector):
        pts = moving_east(projector, n=10)
        stop_start = pts[-1].t + 5.0
        pts += parked(projector, 450.0, stop_start, 120.0)
        pts += moving_east(projector, start_t=stop_start + 130.0, start_x=460.0, n=10)
        stays = detect_stay_points(pts, projector)
        assert len(stays) == 1
        assert stays[0].duration_s >= 100.0
        x, _ = projector.to_xy(stays[0].center)
        assert x == pytest.approx(450.0, abs=15.0)

    def test_short_pause_ignored(self, projector):
        pts = moving_east(projector, n=5)
        pts += parked(projector, 225.0, pts[-1].t + 5.0, 30.0)  # 30 s < 60 s
        pts += moving_east(projector, start_t=pts[-1].t + 5.0, start_x=230.0, n=5)
        assert detect_stay_points(pts, projector) == []

    def test_jittered_stop_still_detected(self, projector):
        rng = np.random.default_rng(0)
        pts = moving_east(projector, n=5)
        pts += parked(projector, 230.0, pts[-1].t + 5.0, 150.0, jitter=5.0, rng=rng)
        pts += moving_east(projector, start_t=pts[-1].t + 5.0, start_x=240.0, n=5)
        stays = detect_stay_points(pts, projector)
        assert len(stays) == 1

    def test_two_separate_stops(self, projector):
        pts = moving_east(projector, n=5)
        pts += parked(projector, 230.0, pts[-1].t + 5.0, 90.0)
        pts += moving_east(projector, start_t=pts[-1].t + 5.0, start_x=240.0, n=10)
        pts += parked(projector, 740.0, pts[-1].t + 5.0, 90.0)
        pts += moving_east(projector, start_t=pts[-1].t + 5.0, start_x=750.0, n=5)
        assert len(detect_stay_points(pts, projector)) == 2

    def test_empty_input(self, projector):
        assert detect_stay_points([], projector) == []


class TestUTurns:
    def test_config_validation(self):
        with pytest.raises(FeatureError):
            UTurnConfig(angle_threshold_deg=0.0)
        with pytest.raises(FeatureError):
            UTurnConfig(window_m=0.0)

    def make_u_turn_track(self, projector, out_m=300.0, speed=10.0, dt=5.0):
        """Drive east out_m metres, then back west to the origin."""
        pts = []
        t = 0.0
        x = 0.0
        while x < out_m:
            pts.append(TrajectoryPoint(projector.to_point(x, 0.0), t))
            x += speed * dt
            t += dt
        while x > 0:
            pts.append(TrajectoryPoint(projector.to_point(x, 0.0), t))
            x -= speed * dt
            t += dt
        return pts

    def test_single_u_turn_detected(self, projector):
        pts = self.make_u_turn_track(projector)
        turns = detect_u_turns(pts, projector)
        assert len(turns) == 1
        x, _ = projector.to_xy(turns[0].location)
        assert x == pytest.approx(300.0, abs=60.0)

    def test_straight_drive_no_u_turn(self, projector):
        assert detect_u_turns(moving_east(projector), projector) == []

    def test_right_angle_turn_not_a_u_turn(self, projector):
        pts = []
        t = 0.0
        for i in range(10):
            pts.append(TrajectoryPoint(projector.to_point(i * 50.0, 0.0), t))
            t += 5.0
        for j in range(1, 10):
            pts.append(TrajectoryPoint(projector.to_point(450.0, j * 50.0), t))
            t += 5.0
        assert detect_u_turns(pts, projector) == []

    def test_parked_jitter_is_not_a_u_turn(self, projector):
        # The classic false positive: GPS noise while stationary.
        rng = np.random.default_rng(1)
        pts = moving_east(projector, n=8)
        pts += parked(projector, 350.0, pts[-1].t + 5.0, 200.0, jitter=6.0, rng=rng)
        pts += moving_east(projector, start_t=pts[-1].t + 5.0, start_x=360.0, n=8)
        assert detect_u_turns(pts, projector) == []

    def test_short_input(self, projector):
        assert detect_u_turns(moving_east(projector, n=2), projector) == []

    def test_short_dense_turn_detected_once(self, projector):
        # A dense out-and-back over 150 m yields exactly one event (nearby
        # reversal samples merge via the merge gap).
        pts = self.make_u_turn_track(projector, out_m=150.0, dt=2.0)
        turns = detect_u_turns(pts, projector)
        assert len(turns) == 1


def reference_u_turns(points, projector, config=None, seen=None):
    """``detect_u_turns`` as first written, the reference for the one that
    measures each step and each window's heading once: every sample walks
    its two windows afresh, measuring each step as it goes.  *seen* counts
    the branches taken: windows longer than one step, windows the parked
    guard rejects, and reversals merged into the previous event."""
    config = config or UTurnConfig()
    seen = Counter() if seen is None else seen
    n = len(points)
    if n < 3:
        return []
    points = reference_smooth(points, projector, config.smoothing_samples)

    def window_heading(idx, forward):
        anchor = points[idx].point
        walked = 0.0
        step = 1 if forward else -1
        j = idx
        while 0 <= j + step < n:
            nxt = points[j + step]
            walked += projector.distance_m(points[j].point, nxt.point)
            j += step
            if walked >= config.window_m:
                break
        seen["multi_step"] += abs(j - idx) > 1
        net = projector.distance_m(anchor, points[j].point)
        if net < max(config.min_step_m, 0.5 * config.window_m):
            seen["parked"] += 1
            return None
        elapsed = abs(points[j].t - points[idx].t)
        if elapsed > 0.0 and net / elapsed < config.min_window_speed_ms:
            seen["parked"] += 1
            return None
        if forward:
            return bearing_deg(anchor, points[j].point)
        return bearing_deg(points[j].point, anchor)

    events = []
    for i in range(1, n - 1):
        before = window_heading(i, forward=False)
        after = window_heading(i, forward=True)
        if before is None or after is None:
            continue
        change = heading_change_deg(before, after)
        if change < config.angle_threshold_deg:
            continue
        if events and points[i].t - events[-1].t <= config.merge_gap_s:
            seen["merged"] += 1
            if change > events[-1].heading_change_deg:
                events[-1] = UTurn(points[i].point, points[i].t, change)
            continue
        events.append(UTurn(points[i].point, points[i].t, change))
    return events


def reference_smooth(points, projector, window):
    if window <= 1 or len(points) < 3:
        return list(points)
    xys = [projector.to_xy(p.point) for p in points]
    half = window // 2
    out = []
    for i, p in enumerate(points):
        lo = max(0, i - half)
        hi = min(len(points), i + half + 1)
        x = sum(xy[0] for xy in xys[lo:hi]) / (hi - lo)
        y = sum(xy[1] for xy in xys[lo:hi]) / (hi - lo)
        out.append(TrajectoryPoint(projector.to_point(x, y), p.t))
    return out


def back_and_forth(projector, legs, dt, seed):
    """A track along the x axis, one leg after another, with GPS jitter.

    Each leg is ``(velocity_ms, samples, jitter_m)``: a negative velocity
    drives back west, zero parks; jitter is drawn from a seeded normal.
    """
    rng = np.random.default_rng(seed)
    pts = []
    x = t = 0.0
    for velocity, samples, jitter in legs:
        for _ in range(samples):
            dx, dy = rng.normal(0.0, jitter, 2) if jitter else (0.0, 0.0)
            pts.append(TrajectoryPoint(projector.to_point(x + dx, dy), t))
            x += velocity * dt
            t += dt
    return pts


#: Leg velocities (m/s; zero parks), GPS jitters (m) and sampling periods (s)
#: of the generated tracks: slow dense legs give windows of several steps.
VELOCITIES = [-14.0, -6.0, -2.5, -1.0, 0.0, 0.0, 1.0, 2.5, 6.0, 14.0]
JITTERS = [0.0, 1.0, 4.0, 8.0]
PERIODS = [1.0, 2.0, 5.0, 30.0]
LEG = st.tuples(st.sampled_from(VELOCITIES), st.integers(1, 12), st.sampled_from(JITTERS))


class TestUTurnReference:
    """``detect_u_turns`` returns exactly the reference's events."""

    @pytest.fixture(scope="class")
    def scenario_segments(self, scenario):
        """Every trip and every calibrated segment's samples, for scenario
        trips (a third of them forced to U-turn) at 5 s and 30 s sampling."""
        rng = np.random.default_rng(2025)
        trips = [t.raw for t in scenario.simulate_trips(40, rng=rng)]
        lost = TripSimulator(
            scenario.network, scenario.traffic, TripConfig(u_turn_probability=1.0)
        )
        for i in range(20):
            origin, destination = scenario.fleet.sample_od(rng)
            trips.append(lost.simulate(
                origin, destination, (7.0 + 0.5 * i) * 3600.0, rng, f"lost-{i}"
            ).raw)
        tracks = {5: [], 30: []}
        for raw in trips:
            for period, sampled in ((5, raw), (30, take_every(raw, 6))):
                tracks[period].append(sampled.points)
                try:
                    symbolic = scenario.stmaker.calibrator.calibrate(sampled)
                except CalibrationError:
                    continue
                tracks[period].extend(
                    sampled.slice_time(seg.t_start, seg.t_end)
                    for seg in symbolic.segments()
                )
        return tracks

    def test_scenario_segments_match_the_reference(self, scenario, scenario_segments):
        projector = scenario.network.projector
        seen = Counter()
        turns = {}
        for period, tracks in scenario_segments.items():
            turns[period] = 0
            for points in tracks:
                expected = reference_u_turns(points, projector, seen=seen)
                assert detect_u_turns(points, projector) == expected, period
                turns[period] += len(expected)
        # U-turns must occur, or the comparison would check only "none".
        # At 30 s the smoothing window spans two minutes and flattens them.
        assert turns[5] > 0
        assert seen["parked"] > 0 and seen["merged"] > 0

    @settings(max_examples=200, deadline=None)
    @given(
        legs=st.lists(LEG, min_size=1, max_size=8),
        dt=st.sampled_from(PERIODS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_jittered_back_and_forth_matches_the_reference(
        self, projector, legs, dt, seed
    ):
        points = back_and_forth(projector, legs, dt, seed)
        assert detect_u_turns(points, projector) == reference_u_turns(points, projector)

    def test_generated_tracks_reach_every_branch(self, projector):
        """The generator behind the property reaches the windows longer
        than one step, the parked guard and the merge branch."""
        draw = np.random.default_rng(7)
        seen = Counter()
        for track in range(200):
            legs = [
                (
                    float(draw.choice(VELOCITIES)),
                    int(draw.integers(1, 13)),
                    float(draw.choice(JITTERS)),
                )
                for _ in range(int(draw.integers(1, 9)))
            ]
            dt = float(draw.choice(PERIODS))
            points = back_and_forth(projector, legs, dt, track)
            expected = reference_u_turns(points, projector, seen=seen)
            assert detect_u_turns(points, projector) == expected
        assert seen["multi_step"] > 0
        assert seen["parked"] > 0
        assert seen["merged"] > 0


class TestSpeedChanges:
    def test_config_validation(self):
        with pytest.raises(FeatureError):
            SpeedChangeConfig(threshold_ms=0.0)

    def test_constant_speed_no_events(self, projector):
        assert count_speed_changes(moving_east(projector), projector) == 0

    def test_hard_brake_counted(self, projector):
        pts = moving_east(projector, speed_ms=15.0, n=6)
        # Continue at crawling speed: 15 -> 1 m/s is a sharp change.
        t0 = pts[-1].t
        x0, _ = projector.to_xy(pts[-1].point)
        for i in range(1, 6):
            pts.append(TrajectoryPoint(projector.to_point(x0 + i * 5.0, 0.0), t0 + i * 5.0))
        assert count_speed_changes(pts, projector) == 1

    def test_events_merged_within_gap(self, projector):
        # Alternate fast/slow every sample: all events inside one merge gap.
        pts = []
        x, t = 0.0, 0.0
        for i in range(10):
            speed = 15.0 if i % 2 == 0 else 2.0
            x += speed * 2.0
            t += 2.0
            pts.append(TrajectoryPoint(projector.to_point(x, 0.0), t))
        count = count_speed_changes(
            pts, projector, SpeedChangeConfig(threshold_ms=4.0, merge_gap_s=60.0)
        )
        assert count == 1

    def test_short_input(self, projector):
        assert count_speed_changes(moving_east(projector, n=2), projector) == 0


class TestMovingFeatureExtractor:
    def test_bundle(self, projector):
        extractor = MovingFeatureExtractor(projector)
        pts = moving_east(projector, speed_ms=10.0, n=20)
        features = extractor.extract(pts)
        assert features.speed_kmh == pytest.approx(36.0, rel=0.01)
        assert features.stay_count == 0
        assert features.u_turn_count == 0
        assert features.speed_change_count == 0

    def test_stay_total(self, projector):
        extractor = MovingFeatureExtractor(projector)
        pts = moving_east(projector, n=5)
        pts += parked(projector, 230.0, pts[-1].t + 5.0, 100.0)
        pts += moving_east(projector, start_t=pts[-1].t + 5.0, start_x=240.0, n=5)
        features = extractor.extract(pts)
        assert features.stay_count == 1
        assert features.stay_total_s == pytest.approx(100.0, abs=15.0)
