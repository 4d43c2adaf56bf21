"""End-to-end observability: the instrumented pipeline emits the expected
spans and metric series, and stays a no-op when disabled."""

from __future__ import annotations

import pytest

from repro import obs

#: The five pipeline stages of Fig. 3, as instrumented span names.
PIPELINE_STAGES = ("calibrate", "extract", "partition", "select", "realize")


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable_tracing()
    obs.disable_metrics()
    yield
    obs.disable_tracing()
    obs.disable_metrics()


class TestPipelineTrace:
    def test_summarize_emits_all_five_stage_spans(self, scenario):
        trip = scenario.simulate_trip(depart_time=10 * 3600.0)
        collector = obs.enable_tracing()
        summary = scenario.stmaker.summarize(trip.raw, k=2)
        assert summary.text

        names = {record.name for record in collector.spans()}
        for stage in PIPELINE_STAGES:
            assert stage in names, f"missing stage span {stage!r}"
        assert "summarize" in names

        # Sane durations: positive-ish, and every stage fits inside the
        # end-to-end summarize span.
        root = collector.by_name("summarize")[-1]
        assert 0.0 < root.duration_ms < 60_000.0
        for stage in PIPELINE_STAGES:
            for record in collector.by_name(stage):
                assert 0.0 <= record.duration_ms <= root.duration_ms + 1.0

    def test_stage_spans_nest_under_summarize(self, scenario):
        trip = scenario.simulate_trip(depart_time=10 * 3600.0)
        collector = obs.enable_tracing()
        scenario.stmaker.summarize(trip.raw)
        root = collector.by_name("summarize")[-1]
        for stage in PIPELINE_STAGES:
            spans = collector.by_name(stage)
            assert spans
            for record in spans:
                assert record.parent_id == root.span_id
                assert record.depth == root.depth + 1

    def test_select_spans_once_per_partition(self, scenario):
        trip = scenario.simulate_trip(depart_time=10 * 3600.0)
        collector = obs.enable_tracing()
        summary = scenario.stmaker.summarize(trip.raw, k=3)
        assert len(collector.by_name("select")) == summary.partition_count
        assert len(collector.by_name("realize")) == summary.partition_count

    def test_failed_calibration_traced_as_error(self, scenario):
        from repro.exceptions import CalibrationError
        from repro.geo import GeoPoint
        from repro.trajectory import RawTrajectory, TrajectoryPoint

        far_away = RawTrajectory(
            [
                TrajectoryPoint(GeoPoint(1.0, 1.0), 0.0),
                TrajectoryPoint(GeoPoint(1.001, 1.001), 60.0),
            ],
            "far-away",
        )
        collector = obs.enable_tracing()
        registry = obs.enable_metrics()
        with pytest.raises(CalibrationError):
            scenario.stmaker.summarize(far_away)
        calibrate = collector.by_name("calibrate")[-1]
        assert calibrate.status == "error"
        assert "CalibrationError" in calibrate.error
        # The enclosing summarize span also records the failure.
        root = collector.by_name("summarize")[-1]
        assert root.status == "error"
        assert registry.counter("calibration.failures").value >= 1


class TestPipelineMetrics:
    def test_snapshot_has_at_least_eight_series(self, scenario):
        trip = scenario.simulate_trip(depart_time=10 * 3600.0)
        registry = obs.enable_metrics()
        scenario.stmaker.summarize(trip.raw, k=2)
        snapshot = registry.snapshot()
        assert len(snapshot) >= 8, sorted(snapshot)
        for name in (
            "summarize.calls",
            "summarize.latency_ms",
            "calibration.calls",
            "calibration.landmarks_matched",
            "features.segments_extracted",
            "partition.dp_cells",
            "selection.features_selected",
            "realize.sentences",
        ):
            assert name in snapshot, f"missing series {name!r}"
        assert snapshot["summarize.calls"]["value"] == 1.0
        assert snapshot["summarize.latency_ms"]["count"] == 1
        assert snapshot["summarize.latency_ms"]["sum"] > 0.0

    def test_dp_cells_scale_with_k(self, scenario):
        trip = scenario.simulate_trip(depart_time=10 * 3600.0)
        symbolic = scenario.stmaker.calibrator.calibrate(trip.raw)
        n = symbolic.segment_count
        registry = obs.enable_metrics()
        scenario.stmaker.summarize(trip.raw, k=2)
        assert registry.counter("partition.dp_cells").value == n * 2


class TestNoOpPath:
    def test_disabled_pipeline_leaves_no_trace(self, scenario):
        trip = scenario.simulate_trip(depart_time=10 * 3600.0)
        # Run once with everything off ...
        summary = scenario.stmaker.summarize(trip.raw, k=2)
        assert summary.text
        # ... then verify no state accumulated anywhere.
        assert obs.get_collector() is None
        assert obs.metrics().snapshot() == {}

    def test_summaries_identical_with_and_without_obs(self, scenario):
        trip = scenario.simulate_trip(depart_time=10 * 3600.0)
        plain = scenario.stmaker.summarize(trip.raw, k=2)
        obs.enable_tracing()
        obs.enable_metrics()
        traced = scenario.stmaker.summarize(trip.raw, k=2)
        assert traced.text == plain.text
        assert [p.sentence for p in traced.partitions] == [
            p.sentence for p in plain.partitions
        ]

    def test_experiment_timer_works_without_obs(self, scenario):
        from repro.experiments import run_efficiency

        result = run_efficiency(scenario, n_trips=6)
        assert result.by_size
        assert all(ms >= 0.0 for _, ms in result.by_size)
        assert obs.get_collector() is None
