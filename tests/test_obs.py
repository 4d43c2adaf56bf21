"""Unit tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json
import logging
import threading
import time

import pytest

from repro import obs
from repro.obs.metrics import NULL_METRICS


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts and ends with observability disabled."""
    obs.disable_tracing()
    obs.disable_metrics()
    yield
    obs.disable_tracing()
    obs.disable_metrics()


class TestSpanBasics:
    def test_uncollected_span_times_its_block_and_records_nothing(self):
        with obs.span("x", tag=1) as sp:
            sp.set_tag("k", "v")
            time.sleep(0.002)
        assert sp.duration_ms >= 2.0
        assert (sp.span_id, sp.parent_id, sp.trace_id) == (0, None, None)
        assert obs.get_collector() is None
        with obs.span("after") as after:
            pass
        assert after.parent_id is None and after.depth == 0, "no span stack"

    def test_enabled_records_span(self):
        collector = obs.enable_tracing()
        with obs.span("work", n=3) as sp:
            sp.set_tag("extra", "yes")
        [record] = collector.spans()
        assert record.name == "work"
        assert record.status == "ok"
        assert record.error is None
        assert record.duration_ms >= 0.0
        assert record.tags == {"n": 3, "extra": "yes"}
        assert record.parent_id is None
        assert record.depth == 0

    def test_nesting_parent_and_depth(self):
        collector = obs.enable_tracing()
        with obs.span("outer"):
            with obs.span("middle"):
                with obs.span("inner"):
                    pass
        by_name = {r.name: r for r in collector.spans()}
        assert by_name["outer"].depth == 0
        assert by_name["middle"].parent_id == by_name["outer"].span_id
        assert by_name["middle"].depth == 1
        assert by_name["inner"].parent_id == by_name["middle"].span_id
        assert by_name["inner"].depth == 2
        # children finish (and are recorded) before their parent
        names = [r.name for r in collector.spans()]
        assert names == ["inner", "middle", "outer"]

    def test_exception_marks_error_and_propagates(self):
        collector = obs.enable_tracing()
        with pytest.raises(ValueError, match="boom"):
            with obs.span("fragile"):
                raise ValueError("boom")
        [record] = collector.spans()
        assert record.status == "error"
        assert "ValueError" in record.error and "boom" in record.error

    def test_exception_unwinds_stack(self):
        collector = obs.enable_tracing()
        with pytest.raises(RuntimeError):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise RuntimeError("x")
        # A later span must be a root again, not a child of the failed pair.
        with obs.span("after"):
            pass
        after = collector.by_name("after")[0]
        assert after.parent_id is None
        assert after.depth == 0

    def test_sibling_spans_share_parent(self):
        collector = obs.enable_tracing()
        with obs.span("parent"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        by_name = {r.name: r for r in collector.spans()}
        assert by_name["a"].parent_id == by_name["parent"].span_id
        assert by_name["b"].parent_id == by_name["parent"].span_id


class TestSpanListener:
    def test_listener_hears_name_and_duration_without_recording(self):
        heard: list[tuple[str, float, bool]] = []
        with obs.span_listener(lambda *args: heard.append(args)):
            with obs.span("outer", k=2) as outer:
                with obs.span("inner"):
                    time.sleep(0.002)
        assert [(name, ok) for name, _, ok in heard] == [
            ("inner", True), ("outer", True),
        ]
        inner_s, outer_s = heard[0][1], heard[1][1]
        assert 0.002 <= inner_s <= outer_s
        assert outer.duration_ms == pytest.approx(outer_s * 1000.0)
        assert obs.get_collector() is None, "a listener alone records nothing"
        with obs.span("after"):
            pass
        assert len(heard) == 2, "the listener is scoped"

    def test_listener_reports_failure_and_the_error_propagates(self):
        heard: list[tuple[str, float, bool]] = []
        with obs.span_listener(lambda *args: heard.append(args)):
            with pytest.raises(KeyError):
                with obs.span("doomed"):
                    raise KeyError("k")
        [(name, duration_s, ok)] = heard
        assert (name, ok) == ("doomed", False) and duration_s >= 0.0

    def test_listener_and_collector_see_the_same_span(self):
        heard: list[tuple[str, float, bool]] = []
        collector = obs.enable_tracing()
        with obs.span_listener(lambda *args: heard.append(args)):
            with obs.span("both", k=2):
                pass
        [record] = collector.spans()
        [(name, duration_s, ok)] = heard
        assert (record.name, record.tags, name, ok) == ("both", {"k": 2}, "both", True)
        assert record.duration_ms == pytest.approx(duration_s * 1000.0, rel=1e-12)

    def test_broken_listener_does_not_break_the_span(self):
        def broken(name, duration_s, ok):
            raise RuntimeError("listener died")

        with obs.span_listener(broken):
            with obs.span("survives") as sp:
                pass
        assert sp.status == "ok"

    def test_clear_span_context_drops_the_listener(self):
        heard: list[tuple[str, float, bool]] = []
        with obs.span_listener(lambda *args: heard.append(args)):
            obs.clear_span_context()
            with obs.span("x"):
                pass
        assert heard == []


class TestCollector:
    def test_json_roundtrip(self):
        collector = obs.enable_tracing()
        with obs.span("outer", label="x"):
            with obs.span("inner"):
                pass
        payload = json.loads(collector.to_json())
        assert payload["dropped"] == 0
        names = {s["name"] for s in payload["spans"]}
        assert names == {"outer", "inner"}

    def test_export_writes_file(self, tmp_path):
        collector = obs.enable_tracing()
        with obs.span("x"):
            pass
        path = tmp_path / "trace.json"
        collector.export(path)
        assert json.loads(path.read_text())["spans"][0]["name"] == "x"

    def test_max_spans_drops_and_counts(self):
        collector = obs.enable_tracing(max_spans=2)
        for _ in range(5):
            with obs.span("s"):
                pass
        assert len(collector) == 2
        assert collector.dropped == 3

    def test_stage_totals_aggregates(self):
        collector = obs.enable_tracing()
        for _ in range(3):
            with obs.span("stage_a"):
                pass
        with obs.span("stage_b"):
            pass
        totals = {t.name: t for t in collector.stage_totals()}
        assert totals["stage_a"].count == 3
        assert totals["stage_b"].count == 1
        assert totals["stage_a"].mean_ms >= 0.0

    def test_thread_safety_of_collector_and_stacks(self):
        collector = obs.enable_tracing()
        n_threads, per_thread = 8, 50
        errors: list[Exception] = []

        def worker(tid: int) -> None:
            try:
                for i in range(per_thread):
                    with obs.span(f"t{tid}"):
                        with obs.span(f"t{tid}.child"):
                            pass
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(collector) == n_threads * per_thread * 2
        # Span stacks are context-local: each child's parent is a span of
        # the same thread, never one from a sibling thread.
        records = {r.span_id: r for r in collector.spans()}
        for record in records.values():
            if record.parent_id is not None:
                parent = records[record.parent_id]
                assert record.name == parent.name + ".child"


class TestCounterGauge:
    def test_counter_increments(self):
        registry = obs.enable_metrics()
        registry.counter("c").inc()
        registry.counter("c").inc(2.5)
        assert registry.counter("c").value == 3.5

    def test_counter_rejects_negative(self):
        registry = obs.enable_metrics()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_gauge_set_inc_dec(self):
        registry = obs.enable_metrics()
        g = registry.gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12.0

    def test_kind_conflict_raises(self):
        registry = obs.enable_metrics()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_counter_thread_safety(self):
        registry = obs.enable_metrics()
        counter = registry.counter("shared")
        n_threads, per_thread = 8, 2_000

        def worker() -> None:
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * per_thread


class TestHistogram:
    def test_bucket_edges_le_semantics(self):
        registry = obs.enable_metrics()
        h = registry.histogram("h", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 1.0001, 5.0, 9.99, 10.0, 10.01, 1e9):
            h.observe(v)
        counts = h.bucket_counts()
        assert counts["1"] == 2      # 0.5 and the inclusive edge 1.0
        assert counts["5"] == 2      # 1.0001, 5.0
        assert counts["10"] == 2     # 9.99, 10.0
        assert counts["+inf"] == 2   # 10.01, 1e9
        assert h.count == 8

    def test_bucket_edges_exact(self):
        registry = obs.enable_metrics()
        h = registry.histogram("edges", buckets=(1.0, 5.0))
        h.observe(1.0)   # on the first edge -> bucket "1"
        h.observe(5.0)   # on the last finite edge -> bucket "5"
        h.observe(5.0000001)  # just past -> +inf bucket
        counts = h.bucket_counts()
        assert counts == {"1": 1, "5": 1, "+inf": 1}

    def test_summary_stats(self):
        registry = obs.enable_metrics()
        h = registry.histogram("s", buckets=(10.0,))
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 6.0
        assert h.mean == 2.0
        assert h.min == 1.0
        assert h.max == 3.0

    def test_unsorted_buckets_rejected(self):
        registry = obs.enable_metrics()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(5.0, 1.0))

    def test_infinite_bucket_appended(self):
        registry = obs.enable_metrics()
        h = registry.histogram("inf", buckets=(1.0,))
        h.observe(1e12)
        assert h.bucket_counts()["+inf"] == 1
        assert h.count == 1


class TestHistogramPercentiles:
    def test_empty_histogram_is_none(self):
        registry = obs.enable_metrics()
        h = registry.histogram("p", buckets=(1.0, 10.0))
        assert h.percentile(0.5) is None
        data = h.to_dict()
        assert data["p50"] is None and data["p95"] is None and data["p99"] is None

    def test_empty_histogram_is_none_at_the_bounds_too(self):
        registry = obs.enable_metrics()
        h = registry.histogram("pb", buckets=(1.0, 10.0))
        assert h.percentile(0.0) is None
        assert h.percentile(1.0) is None

    def test_invalid_q_raises_even_when_empty(self):
        registry = obs.enable_metrics()
        h = registry.histogram("pe", buckets=(1.0,))
        with pytest.raises(ValueError, match="quantile"):
            h.percentile(2.0)

    def test_single_observation_is_exact(self):
        registry = obs.enable_metrics()
        h = registry.histogram("one", buckets=(1.0, 10.0))
        h.observe(3.7)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.percentile(q) == 3.7

    def test_quantile_ordering_and_range(self):
        registry = obs.enable_metrics()
        h = registry.histogram("many", buckets=(1.0, 2.0, 5.0, 10.0, 50.0))
        values = [0.5, 1.5, 1.8, 3.0, 4.0, 6.0, 8.0, 9.5, 20.0, 45.0]
        for v in values:
            h.observe(v)
        p50, p95, p99 = h.percentile(0.5), h.percentile(0.95), h.percentile(0.99)
        assert min(values) <= p50 <= p95 <= p99 <= max(values)
        # p50 of 10 values must land in the middle buckets, not the tails.
        assert 1.5 <= p50 <= 8.0

    def test_percentiles_clamped_to_observed_extremes(self):
        registry = obs.enable_metrics()
        h = registry.histogram("clamp", buckets=(100.0,))
        h.observe(2.0)
        h.observe(3.0)
        # Interpolation inside the huge (0, 100] bucket must not report
        # values outside what was actually observed.
        assert 2.0 <= h.percentile(0.5) <= 3.0
        assert h.percentile(1.0) == 3.0
        assert h.percentile(0.0) == 2.0

    def test_overflow_bucket_reports_max(self):
        registry = obs.enable_metrics()
        h = registry.histogram("ovf", buckets=(1.0,))
        for v in (0.5, 100.0, 200.0):
            h.observe(v)
        assert h.percentile(0.99) == 200.0

    def test_invalid_q_raises(self):
        registry = obs.enable_metrics()
        h = registry.histogram("bad", buckets=(1.0,))
        h.observe(0.5)
        with pytest.raises(ValueError):
            h.percentile(-0.1)
        with pytest.raises(ValueError):
            h.percentile(1.1)

    def test_to_dict_and_render_include_percentiles(self):
        registry = obs.enable_metrics()
        h = registry.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 2.0, 8.0):
            h.observe(v)
        data = h.to_dict()
        assert data["p50"] is not None
        assert data["p50"] <= data["p95"] <= data["p99"]
        rendered = registry.render_text()
        assert "p50=" in rendered and "p95=" in rendered and "p99=" in rendered


class TestRegistryLifecycle:
    def test_disabled_is_null_singleton(self):
        assert obs.metrics() is NULL_METRICS
        # All recording calls are silently absorbed.
        obs.metrics().counter("x").inc()
        obs.metrics().gauge("y").set(1)
        obs.metrics().histogram("z").observe(2)
        assert obs.metrics().snapshot() == {}
        assert not obs.metrics_enabled()

    def test_enable_disable_cycle(self):
        registry = obs.enable_metrics()
        assert obs.metrics_enabled()
        assert obs.metrics() is registry
        # Re-enabling without an explicit registry keeps the active one.
        assert obs.enable_metrics() is registry
        obs.disable_metrics()
        assert obs.metrics() is NULL_METRICS

    def test_snapshot_and_render(self):
        registry = obs.enable_metrics()
        registry.counter("a.calls").inc(3)
        registry.gauge("b.depth").set(2)
        registry.histogram("c.ms").observe(7.5)
        snap = registry.snapshot()
        assert snap["a.calls"] == {"type": "counter", "value": 3.0}
        assert snap["b.depth"]["type"] == "gauge"
        assert snap["c.ms"]["count"] == 1
        text = registry.render_text()
        assert "a.calls" in text and "histogram" in text
        # snapshot is JSON-serializable as-is
        json.dumps(snap)

    def test_export_writes_file(self, tmp_path):
        registry = obs.enable_metrics()
        registry.counter("k").inc()
        path = tmp_path / "metrics.json"
        registry.export(path)
        assert json.loads(path.read_text())["k"]["value"] == 1.0

    def test_reset_clears_series(self):
        registry = obs.enable_metrics()
        registry.counter("x").inc()
        registry.reset()
        assert registry.snapshot() == {}


class TestProfiling:
    def test_profiled_captures_report(self):
        with obs.profiled(limit=5) as report:
            sum(range(1000))
        assert "function calls" in report.text
        assert report.top_functions(3)

    def test_profiled_survives_exception(self):
        with pytest.raises(ValueError):
            with obs.profiled() as report:
                raise ValueError("x")
        assert report.text  # rendered despite the failure


class TestLogging:
    def test_verbosity_levels(self):
        assert obs.configure_logging(0).level == logging.WARNING
        assert obs.configure_logging(1).level == logging.INFO
        assert obs.configure_logging(2).level == logging.DEBUG

    def test_idempotent_single_handler(self):
        logger = obs.configure_logging(1)
        n = len(logger.handlers)
        obs.configure_logging(2)
        assert len(logger.handlers) == n
