"""Tests for the typed pipeline event stream (repro.obs.events)."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.exceptions import TransientError
from repro.obs.events import EVENT_KINDS, EventBus, EventLog, PipelineEvent
from repro.resilience import FaultInjector, FaultSpec, RetryPolicy


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable_events()
    obs.disable_tracing()
    obs.disable_metrics()
    yield
    obs.disable_events()
    obs.disable_tracing()
    obs.disable_metrics()


@pytest.fixture
def log():
    log = EventLog()
    obs.enable_events().subscribe(log)
    return log


class TestEventBus:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            EventBus().emit("not_a_kind")

    def test_seq_is_monotonic_and_payload_kept(self):
        bus = EventBus()
        first = bus.emit("sanitization", "sanitize", "t-1")
        second = bus.emit(
            "degradation", "calibrate", "t-1", fallback="geometric_anchors"
        )
        assert (first.seq, second.seq) == (1, 2)
        assert second.payload == {"fallback": "geometric_anchors"}
        assert second.ts_s >= first.ts_s

    def test_subscribe_unsubscribe(self):
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        bus.emit("retry")
        bus.unsubscribe(log)
        bus.emit("retry")
        assert len(log) == 1 and bus.subscriber_count == 0

    def test_subscriber_exception_swallowed_and_counted(self):
        bus = EventBus()

        def broken(event: PipelineEvent) -> None:
            raise RuntimeError("sink died")

        log = EventLog()
        bus.subscribe(broken)
        bus.subscribe(log)
        bus.emit("quarantine")
        assert bus.errors == 1
        assert len(log) == 1, "later subscribers still receive the event"

    def test_raising_subscriber_does_not_abort_the_pipeline(self, scenario):
        """Regression: a broken sink on the live bus must not take down a
        batch, and every drop lands on the error counter."""
        registry = obs.enable_metrics()
        bus = obs.enable_events()

        def broken(event: PipelineEvent) -> None:
            raise RuntimeError("sink died mid-run")

        log = EventLog()
        bus.subscribe(broken)
        bus.subscribe(log)
        rng = np.random.default_rng(77)
        trip = scenario.simulate_trips(1, depart_time=9 * 3600.0, rng=rng)[0]
        result = scenario.stmaker.summarize_many([trip.raw], k=2)  # must not raise
        assert result.ok_count == 1 and result.summaries[0].text
        assert len(log) > 0, "healthy subscribers keep receiving events"
        assert bus.errors == len(log), "broken sink failed on every event"
        errors = registry.snapshot()["obs.events.subscriber_errors"]
        assert errors["value"] == float(bus.errors)

    def test_every_subscriber_isolated_not_just_the_first(self):
        bus = EventBus()
        order: list[str] = []

        def broken_a(event):
            order.append("a")
            raise RuntimeError("a died")

        def broken_b(event):
            order.append("b")
            raise RuntimeError("b died")

        bus.subscribe(broken_a)
        bus.subscribe(broken_b)
        bus.subscribe(lambda e: order.append("c"))
        bus.emit("retry")
        assert order == ["a", "b", "c"]
        assert bus.errors == 2

    def test_concurrent_emission_is_sequenced(self):
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        n_threads, per_thread = 8, 50
        barrier = threading.Barrier(n_threads)

        def worker() -> None:
            barrier.wait()
            for _ in range(per_thread):
                bus.emit("progress")

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = sorted(e.seq for e in log)
        assert seqs == list(range(1, n_threads * per_thread + 1))


class TestModuleGlobals:
    def test_disabled_by_default(self):
        assert not obs.events_enabled()
        obs.emit_event("retry")  # must be a silent no-op

    def test_enable_disable_roundtrip(self):
        bus = obs.enable_events()
        assert obs.events_enabled() and obs.events() is bus
        assert obs.enable_events() is bus, "enable twice keeps the same bus"
        obs.disable_events()
        assert obs.events() is None


class TestJsonlEventSink:
    def test_writes_parseable_lines_and_closes_idempotently(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with obs.JsonlEventSink(path) as sink:
            bus = obs.enable_events()
            bus.subscribe(sink)
            bus.emit("batch_start", items=3)
            bus.emit("batch_end", ok=3, quarantined=0)
            assert sink.written == 2
        sink.close()  # second close is a no-op
        bus.emit("retry")  # dropped silently after close, not an error
        assert bus.errors == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["kind"] for line in lines] == ["batch_start", "batch_end"]
        assert lines[0]["payload"] == {"items": 3}
        assert set(lines[0]) == {
            "seq", "ts_s", "kind", "stage", "trajectory_id", "payload",
        }


@pytest.fixture(scope="module")
def base_trip(scenario):
    rng = np.random.default_rng(404)
    return scenario.simulate_trips(1, depart_time=9 * 3600.0, rng=rng)[0]


class TestPipelineIntegration:
    def test_every_emitted_kind_is_in_vocabulary(self, scenario, base_trip, log):
        scenario.stmaker.summarize_many([base_trip.raw], k=2)
        assert log.events()
        assert {e.kind for e in log} <= EVENT_KINDS

    def test_degradation_event_from_stage_fault(self, scenario, base_trip, log):
        collector = obs.enable_tracing()
        injector = FaultInjector.raising("partition")
        with injector.installed(scenario.stmaker):
            scenario.stmaker.summarize(base_trip.raw, k=2)
        [event] = log.events("degradation")
        assert event.stage == "partition"
        assert event.payload["fallback"] == "single_partition"
        assert "InjectedFault" in event.payload["reason"]
        [partition] = collector.by_name("partition")
        assert partition.status == "error", "the absorbed failure ends its span"
        assert "InjectedFault" in partition.error

    def test_retry_and_batch_events(self, scenario, base_trip, log):
        injector = FaultInjector(
            [FaultSpec(stage="extract", error=TransientError, times=2)]
        )
        with injector.installed(scenario.stmaker):
            result = scenario.stmaker.summarize_many(
                [base_trip.raw], k=2,
                retry=RetryPolicy(max_retries=2, backoff_base_s=0.0),
            )
        assert result.ok_count == 1
        assert len(log.events("retry")) == 2
        retry = log.events("retry")[0]
        assert retry.payload["attempt"] >= 1
        assert "TransientError" in retry.payload["error"]
        [start] = log.events("batch_start")
        [end] = log.events("batch_end")
        assert start.payload["items"] == 1
        assert end.payload["ok"] == 1 and end.payload["quarantined"] == 0
        progress = log.events("progress")
        assert progress and progress[-1].payload["done"] == 1

    def test_quarantine_event(self, scenario, base_trip, log):
        injector = FaultInjector(
            [FaultSpec(stage="extract", error=TransientError, times=None)]
        )
        with injector.installed(scenario.stmaker):
            result = scenario.stmaker.summarize_many(
                [base_trip.raw],
                retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
            )
        assert result.quarantined_count == 1
        [event] = log.events("quarantine")
        assert event.payload["error_type"] == "TransientError"
        assert event.payload["attempts"] == 2

    def test_sanitization_event(self, scenario, base_trip, log):
        from repro.trajectory import RawTrajectory, TrajectoryPoint

        pts = list(base_trip.raw.points)
        mid = len(pts) // 2
        projector = scenario.network.projector
        x, y = projector.to_xy(pts[mid].point)
        pts[mid] = TrajectoryPoint(projector.to_point(x + 30_000.0, y), pts[mid].t)
        scenario.stmaker.summarize_many([RawTrajectory(pts, "glitch")], k=2)
        [event] = log.events("sanitization")
        assert event.trajectory_id == "glitch"
        assert event.payload["dropped"] >= 1

    def test_no_events_leak_when_disabled(self, scenario, base_trip):
        log = EventLog()
        bus = obs.enable_events()
        bus.subscribe(log)
        obs.disable_events()
        scenario.stmaker.summarize(base_trip.raw, k=2)
        assert len(log) == 0
