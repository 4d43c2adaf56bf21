"""Failure-injection, sanitizer, chaos, and fuzz tests for the pipeline.

Real GPS corpora contain duplicate timestamps, dead zones, teleport
glitches, and absurd sampling rates; the pipeline must either produce a
valid summary or raise the library's typed exceptions — never crash with
an arbitrary error or emit malformed text.  The chaos tests additionally
inject a fault into each of the five stages and prove that the matching
fallback fires, is recorded in the degradation report, and is counted in
the metrics registry.
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.exceptions import CalibrationError, ReproError, TransientError
from repro.geo import GeoPoint
from repro.resilience import (
    STAGES,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
)
from repro.trajectory import (
    RawTrajectory,
    SanitizerConfig,
    TrajectoryPoint,
    sanitize_points,
    sanitize_records,
    sanitize_trajectory,
)


def _valid_summary(summary) -> bool:
    return (
        bool(summary.text)
        and summary.text.endswith(".")
        and summary.partition_count >= 1
        and summary.text.startswith("The car started from")
    )


@pytest.fixture(scope="module")
def base_trip(scenario):
    rng = np.random.default_rng(303)
    return scenario.simulate_trips(1, depart_time=9 * 3600.0, rng=rng)[0]


class TestCorruptedInput:
    def test_duplicate_timestamps(self, scenario, base_trip):
        points = []
        for p in base_trip.raw:
            points.append(p)
            points.append(TrajectoryPoint(p.point, p.t))  # exact duplicate
        trip = RawTrajectory(points, "dupes")
        summary = scenario.stmaker.summarize(trip, k=2)
        assert _valid_summary(summary)

    def test_gps_dead_zone(self, scenario, base_trip):
        # Remove the middle third of the samples (tunnel / urban canyon).
        pts = list(base_trip.raw.points)
        n = len(pts)
        trip = RawTrajectory(pts[: n // 3] + pts[2 * n // 3 :], "deadzone")
        summary = scenario.stmaker.summarize(trip, k=2)
        assert _valid_summary(summary)

    def test_teleport_glitch(self, scenario, base_trip):
        # One sample jumps 3 km off-route and returns (multipath glitch).
        pts = list(base_trip.raw.points)
        mid = len(pts) // 2
        projector = scenario.network.projector
        x, y = projector.to_xy(pts[mid].point)
        pts[mid] = TrajectoryPoint(projector.to_point(x + 3000.0, y), pts[mid].t)
        summary = scenario.stmaker.summarize(RawTrajectory(pts, "glitch"), k=2)
        assert _valid_summary(summary)

    def test_heavy_noise(self, scenario, base_trip):
        rng = np.random.default_rng(1)
        projector = scenario.network.projector
        pts = []
        for p in base_trip.raw:
            x, y = projector.to_xy(p.point)
            pts.append(
                TrajectoryPoint(
                    projector.to_point(
                        x + float(rng.normal(0, 25)), y + float(rng.normal(0, 25))
                    ),
                    p.t,
                )
            )
        summary = scenario.stmaker.summarize(RawTrajectory(pts, "noisy"), k=2)
        assert _valid_summary(summary)

    def test_two_point_trajectory(self, scenario, base_trip):
        trip = RawTrajectory(
            [base_trip.raw[0], base_trip.raw[-1]], "twopoint"
        )
        try:
            summary = scenario.stmaker.summarize(trip)
            assert _valid_summary(summary)
        except CalibrationError:
            pass  # a typed failure is acceptable for degenerate input

    def test_off_map_trajectory_raises_typed_error(self, scenario):
        projector = scenario.network.projector
        pts = [
            TrajectoryPoint(projector.to_point(90_000.0 + i * 50.0, 90_000.0), i * 5.0)
            for i in range(20)
        ]
        with pytest.raises(ReproError):
            scenario.stmaker.summarize(RawTrajectory(pts, "offmap"))


class TestFuzz:
    @pytest.mark.parametrize("seed", [11, 22, 33, 44, 55, 66])
    def test_random_trips_always_summarize(self, scenario, seed):
        rng = np.random.default_rng(seed)
        hour = float(rng.uniform(0, 24))
        trip = scenario.simulate_trips(1, depart_time=hour * 3600.0, rng=rng)[0]
        for k in (None, 1, 3):
            summary = scenario.stmaker.summarize(trip.raw, k=k)
            assert _valid_summary(summary)
            # Every sentence is well-formed.
            for partition in summary.partitions:
                assert partition.sentence.rstrip().endswith(".")
                assert partition.source_name and partition.destination_name

    @pytest.mark.parametrize("interval", [2.0, 10.0, 20.0])
    def test_sampling_rates_always_summarize(self, scenario, base_trip, interval):
        from repro.trajectory import downsample_by_time

        variant = downsample_by_time(base_trip.raw, interval)
        summary = scenario.stmaker.summarize(variant, k=2)
        assert _valid_summary(summary)


def _line_points(n: int, dt: float = 1.0) -> list[TrajectoryPoint]:
    """A straight northbound track, ~11 m (≈40 km/h) between samples."""
    return [
        TrajectoryPoint(GeoPoint(39.9 + i * 1e-4, 116.4), i * dt) for i in range(n)
    ]


class TestSanitizer:
    def test_clean_input_is_returned_untouched(self):
        raw = RawTrajectory(_line_points(10), "clean")
        cleaned, report = sanitize_trajectory(raw)
        assert cleaned is raw
        assert report.clean and report.kept == 10 and report.dropped_total == 0

    def test_teleport_spike_clipped(self):
        pts = _line_points(20)
        pts[10] = TrajectoryPoint(GeoPoint(39.95, 116.4), pts[10].t)  # ~5 km jump
        raw = RawTrajectory(pts, "spike")
        cleaned, report = sanitize_trajectory(raw)
        assert report.dropped_teleports == 1
        assert report.kept == 19
        from repro.geo import haversine_m

        config = SanitizerConfig()
        for a, b in zip(cleaned.points, cleaned.points[1:]):
            speed_kmh = haversine_m(a.point, b.point) / (b.t - a.t) * 3.6
            assert speed_kmh <= config.max_speed_kmh

    def test_genuine_relocation_survives_clipping(self):
        # A dead zone: the track jumps far away and STAYS there.  Only the
        # first few samples after the gap may be treated as glitches.
        pts = _line_points(10)
        far = [
            TrajectoryPoint(GeoPoint(39.95 + i * 1e-4, 116.4), 10.0 + i)
            for i in range(10)
        ]
        _, report = sanitize_points(pts + far)
        assert report.kept >= 15  # the relocated tail was accepted

    def test_duplicate_timestamps_deduplicated(self):
        pts = []
        for p in _line_points(8):
            pts.append(p)
            pts.append(TrajectoryPoint(p.point, p.t))
        cleaned, report = sanitize_trajectory(RawTrajectory(pts, "dupes"))
        assert report.dropped_duplicates == 8
        assert len(cleaned.points) == 8

    def test_unsorted_timestamps_resorted(self):
        pts = _line_points(10)
        shuffled = [pts[i] for i in (0, 2, 1, 3, 5, 4, 6, 7, 9, 8)]
        kept, report = sanitize_points(shuffled)
        assert report.reordered > 0
        assert [p.t for p in kept] == sorted(p.t for p in kept)
        assert len(kept) == 10

    def test_bad_records_dropped(self):
        records = [
            (39.9, 116.4, 0.0),
            (math.nan, 116.4, 1.0),          # NaN latitude
            (39.9, math.inf, 2.0),           # inf longitude
            (39.9, 116.4, math.nan),         # NaN timestamp
            (91.0, 116.4, 4.0),              # latitude out of range
            (39.9, 181.0, 5.0),              # longitude out of range
            ("not-a-number", 116.4, 6.0),    # non-numeric field
            (39.9001, 116.4, 7.0),
        ]
        points, report = sanitize_records(records)
        assert len(points) == 2
        assert report.dropped_nonfinite == 4
        assert report.dropped_out_of_range == 2

    def test_empty_after_clean_raises_typed_error(self):
        from repro.exceptions import TrajectoryError

        point = GeoPoint(39.9, 116.4)
        pts = [TrajectoryPoint(point, 5.0)] * 3  # all duplicates of one sample
        with pytest.raises(TrajectoryError, match="empty after"):
            sanitize_trajectory(RawTrajectory(pts, "degenerate"))


@pytest.fixture()
def registry():
    """A fresh metrics registry per test (always disabled afterwards)."""
    reg = obs.enable_metrics(obs.MetricsRegistry())
    yield reg
    obs.disable_metrics()


def _counter_value(registry, name) -> float:
    metric = registry.get(name)
    return metric.value if metric is not None else 0.0


class TestChaos:
    """Fault injection proves every fallback path actually fires."""

    @pytest.mark.parametrize("stage", STAGES)
    def test_fault_in_any_stage_still_summarizes(
        self, scenario, base_trip, registry, stage
    ):
        injector = FaultInjector.raising(stage)
        with injector.installed(scenario.stmaker):
            summary = scenario.stmaker.summarize(base_trip.raw, k=2)
        assert injector.fired(stage) == 1
        assert summary.text and summary.text.endswith(".")
        assert summary.degradation.degraded
        assert stage in summary.degradation.stages()
        event = summary.degradation.for_stage(stage)[0]
        assert "InjectedFault" in event.reason
        assert _counter_value(registry, f"resilience.fallback.{stage}") >= 1
        assert _counter_value(registry, "resilience.degraded_summaries") == 1

    def test_with_config_siblings_share_the_installed_injector(
        self, scenario, base_trip
    ):
        """Chaos armed on a model survives a config sweep.

        ``with_config`` siblings share the injector object (like every
        other piece of non-config state), so fire counts accumulate
        globally across siblings and uninstalling on the original
        disarms nothing retroactively on copies made while armed.
        """
        stmaker = scenario.stmaker
        injector = FaultInjector.raising("partition", times=None)
        with injector.installed(stmaker):
            sibling = stmaker.with_config(stmaker.config)
            assert sibling.fault_injector is injector
            summary = sibling.summarize(base_trip.raw, k=2)
            assert "partition" in summary.degradation.stages()
            assert injector.fired("partition") >= 1
        # After uninstall the original is clean again; siblings made
        # inside the armed window keep their reference (shared state,
        # not a lifecycle).
        assert stmaker.fault_injector is None
        assert stmaker.with_config(stmaker.config).fault_injector is None
        assert injector.specs[0].stage == "partition"
        assert injector.seed == 0

    def test_faults_in_all_stages_at_once(self, scenario, base_trip, registry):
        injector = FaultInjector([FaultSpec(stage=s) for s in STAGES])
        with injector.installed(scenario.stmaker):
            summary = scenario.stmaker.summarize(base_trip.raw, k=3)
        assert summary.text and summary.text.endswith(".")
        assert set(STAGES) <= set(summary.degradation.stages())

    @pytest.mark.parametrize("stage", STAGES)
    def test_strict_mode_raises_instead_of_degrading(
        self, scenario, base_trip, stage
    ):
        injector = FaultInjector.raising(stage)
        with injector.installed(scenario.stmaker):
            with pytest.raises(InjectedFault):
                scenario.stmaker.summarize(base_trip.raw, k=2, strict=True)
        assert injector.fired(stage) == 1

    def test_strict_sanitized_summary_keeps_cleaned_input(
        self, scenario, base_trip
    ):
        points = list(base_trip.raw.points)
        points.insert(1, TrajectoryPoint(points[0].point, points[0].t))
        trip = RawTrajectory(points, "one-dupe")
        for strict in (False, True):
            summary = scenario.stmaker.summarize(
                trip, k=2, sanitize=True, strict=strict
            )
            assert summary.degradation.stages() == ["sanitize"]
            assert summary.degradation.events[0].fallback == "cleaned_input"

    def test_calibration_fault_uses_geometric_anchors(
        self, scenario, base_trip, registry
    ):
        injector = FaultInjector.raising("calibrate")
        with injector.installed(scenario.stmaker):
            summary = scenario.stmaker.summarize(base_trip.raw)
        assert summary.degradation.for_stage("calibrate")[0].fallback == (
            "geometric_anchors"
        )
        assert _counter_value(registry, "resilience.geometric_calibrations") == 1
        assert summary.text.endswith(".")

    def test_extract_fault_yields_moving_only_summary(self, scenario, base_trip):
        from repro.features import FeatureKind

        injector = FaultInjector.raising("extract")
        with injector.installed(scenario.stmaker):
            summary = scenario.stmaker.summarize(base_trip.raw, k=2)
        assert "extract" in summary.degradation.stages()
        for partition in summary.partitions:
            for assessment in partition.assessments:
                assert assessment.kind is FeatureKind.MOVING

    def test_partition_fault_collapses_to_single_partition(self, scenario, base_trip):
        injector = FaultInjector.raising("partition")
        with injector.installed(scenario.stmaker):
            summary = scenario.stmaker.summarize(base_trip.raw, k=3)
        assert summary.partition_count == 1
        assert summary.degradation.for_stage("partition")[0].fallback == (
            "single_partition"
        )

    def test_realize_fault_emits_generic_sentence(self, scenario, base_trip):
        injector = FaultInjector([FaultSpec(stage="realize", times=None)])
        with injector.installed(scenario.stmaker):
            summary = scenario.stmaker.summarize(base_trip.raw, k=2)
        assert summary.text.startswith("The car started from")
        assert summary.text.endswith(".")
        assert summary.degradation.for_stage("realize")

    def test_latency_injection_is_deterministic(self, scenario, base_trip):
        slept = []
        injector = FaultInjector(
            [FaultSpec(stage="partition", error=None, latency_s=0.01)],
            sleeper=slept.append,
        )
        with injector.installed(scenario.stmaker):
            summary = scenario.stmaker.summarize(base_trip.raw, k=2)
        assert slept == [0.01]
        assert not summary.degradation.degraded  # latency alone degrades nothing


@pytest.fixture(scope="module")
def scenario_trips(scenario):
    rng = np.random.default_rng(2015)
    return [
        trip.raw
        for trip in scenario.simulate_trips(12, depart_time=8 * 3600.0, rng=rng)
    ]


class TestStrictEqualsGraceful:
    """Strict and graceful runs are one stage pipeline: on input that
    needs no fallback, they and ``summarize_calibrated`` agree exactly."""

    @pytest.mark.parametrize("k", [None, 2, 4])
    def test_strict_graceful_and_calibrated_agree(self, scenario, scenario_trips, k):
        stmaker = scenario.stmaker
        for raw in scenario_trips:
            graceful = stmaker.summarize(raw, k=k)
            strict = stmaker.summarize(raw, k=k, strict=True)
            calibrated = stmaker.summarize_calibrated(
                raw, stmaker.calibrator.calibrate(raw), k
            )
            assert not graceful.degradation.degraded
            for other in (strict, calibrated):
                assert other.text == graceful.text
                assert other.partitions == graceful.partitions


class TestBatch:
    def test_transient_fault_is_retried_to_success(self, scenario, base_trip, registry):
        injector = FaultInjector(
            [FaultSpec(stage="extract", error=TransientError, times=2)]
        )
        with injector.installed(scenario.stmaker):
            result = scenario.stmaker.summarize_many(
                [base_trip.raw], k=2,
                retry=RetryPolicy(max_retries=2, backoff_base_s=0.0),
            )
        assert injector.fired("extract") == 2
        assert result.ok_count == 1 and not result.quarantined
        assert not result.summaries[0].degradation.degraded
        assert _counter_value(registry, "resilience.batch.retries") == 2

    def test_transient_fault_exhausts_retries_into_quarantine(
        self, scenario, base_trip
    ):
        injector = FaultInjector(
            [FaultSpec(stage="extract", error=TransientError, times=None)]
        )
        with injector.installed(scenario.stmaker):
            result = scenario.stmaker.summarize_many(
                [base_trip.raw], retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
            )
        assert result.ok_count == 0
        entry = result.quarantined[0]
        assert entry.error_type == "TransientError"
        assert entry.attempts == 2  # the first try + one retry

    def test_transient_error_propagates_from_single_summarize(
        self, scenario, base_trip
    ):
        injector = FaultInjector(
            [FaultSpec(stage="partition", error=TransientError)]
        )
        with injector.installed(scenario.stmaker):
            with pytest.raises(TransientError):
                scenario.stmaker.summarize(base_trip.raw)

    def test_corrupt_items_are_quarantined_not_raised(
        self, scenario, base_trip, registry
    ):
        projector = scenario.network.projector
        off_map = RawTrajectory(
            [
                TrajectoryPoint(projector.to_point(90_000.0 + i * 50.0, 90_000.0), i * 5.0)
                for i in range(20)
            ],
            "offmap",
        )
        batch = [base_trip.raw, off_map, base_trip.raw]
        result = scenario.stmaker.summarize_many(batch, k=2)
        assert result.ok_count == 2
        assert result.quarantined_count == 1
        assert result.quarantined[0].index == 1
        assert result.quarantined[0].trajectory_id == "offmap"
        assert _counter_value(registry, "resilience.batch.quarantined") == 1

    def test_strict_batch_raises_on_first_error(self, scenario, base_trip):
        projector = scenario.network.projector
        off_map = RawTrajectory(
            [
                TrajectoryPoint(projector.to_point(90_000.0, 90_000.0 + i * 50.0), i * 5.0)
                for i in range(20)
            ],
            "offmap",
        )
        with pytest.raises(ReproError):
            scenario.stmaker.summarize_many([off_map, base_trip.raw], strict=True)

    def test_deadline_quarantines_unstarted_items(self, scenario, base_trip):
        result = scenario.stmaker.summarize_many(
            [base_trip.raw, base_trip.raw], deadline_s=0.0
        )
        assert result.ok_count == 0
        assert result.quarantined_count == 2
        assert all(e.error_type == "DeadlineExceeded" for e in result.quarantined)
        assert all(e.attempts == 0 for e in result.quarantined)

    def test_batch_sanitizes_by_default(self, scenario, base_trip):
        pts = list(base_trip.raw.points)
        mid = len(pts) // 2
        projector = scenario.network.projector
        x, y = projector.to_xy(pts[mid].point)
        pts[mid] = TrajectoryPoint(projector.to_point(x + 30_000.0, y), pts[mid].t)
        result = scenario.stmaker.summarize_many([RawTrajectory(pts, "glitch")], k=2)
        assert result.ok_count == 1
        assert result.sanitization[0] is not None
        assert result.sanitization[0].dropped_teleports >= 1
