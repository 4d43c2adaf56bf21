"""Tests for the black-box flight recorder (repro.obs.flight)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.exceptions import TransientError
from repro.obs.flight import FlightRecorder
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


def _subscribed(**kwargs) -> FlightRecorder:
    """A recorder attached to the active bus, the way every sink attaches."""
    return obs.enable_events().subscribe(FlightRecorder(**kwargs))


def _read_dump(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


class TestRing:
    def test_capacity_bounds_the_ring(self):
        recorder = FlightRecorder(capacity=4, trigger_kinds=frozenset())
        bus = obs.enable_events()
        bus.subscribe(recorder)
        for i in range(10):
            bus.emit("progress", done=i)
        assert len(recorder) == 4
        assert recorder.events_seen == 10
        assert [e.payload["done"] for e in recorder.tail()] == [6, 7, 8, 9]

    def test_tail_n_semantics(self):
        recorder = FlightRecorder(capacity=8, trigger_kinds=frozenset())
        bus = obs.enable_events()
        bus.subscribe(recorder)
        for i in range(5):
            bus.emit("progress", done=i)
        assert [e.payload["done"] for e in recorder.tail(2)] == [3, 4]
        assert len(recorder.tail(100)) == 5
        assert recorder.tail(0) == []
        recorder.clear()
        assert len(recorder) == 0 and recorder.events_seen == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)


class TestTriggers:
    def test_quarantine_event_freezes_a_capture(self):
        recorder = FlightRecorder(capacity=16)
        bus = obs.enable_events()
        bus.subscribe(recorder)
        bus.emit("batch_start", items=1)
        bus.emit("quarantine", trajectory_id="t-1", error_type="Boom",
                 error="stage exploded")
        [capture] = recorder.captures
        assert capture["trigger"]["kind"] == "quarantine"
        assert capture["trigger"]["payload"]["error"] == "stage exploded"
        kinds = [e["kind"] for e in capture["events"]]
        assert kinds == ["batch_start", "quarantine"]

    def test_non_trigger_kinds_do_not_capture(self):
        recorder = FlightRecorder(capacity=16)
        bus = obs.enable_events()
        bus.subscribe(recorder)
        bus.emit("progress", done=1)
        bus.emit("shard_end", duration_ms=1.0, ok=1, quarantined=0)
        assert not recorder.captures

    def test_manual_capture_includes_spans_when_tracing(self):
        obs.enable_tracing()
        with obs.span("partition", k=2):
            pass
        recorder = FlightRecorder(capacity=4)
        capture = recorder.capture()
        assert capture is not None and capture["trigger"] is None
        assert [s["name"] for s in capture["spans"]] == ["partition"]

    def test_max_dumps_budget_suppresses_a_storm(self):
        recorder = FlightRecorder(capacity=4, max_dumps=2)
        bus = obs.enable_events()
        bus.subscribe(recorder)
        for i in range(5):
            bus.emit("quarantine", trajectory_id=f"t-{i}", error_type="Boom")
        assert len(recorder.captures) == 2
        assert recorder.suppressed == 3
        assert recorder.capture() is None, "manual captures obey the budget too"

    def test_dump_file_written_and_parseable(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=tmp_path / "flight")
        bus = obs.enable_events()
        bus.subscribe(recorder)
        bus.emit("retry", trajectory_id="trip/42", attempt=1)
        bus.emit("quarantine", trajectory_id="trip/42", error_type="Boom")
        [path] = recorder.dump_paths
        assert "trip-42" in path, "trajectory id is slugified into the name"
        records = _read_dump(path)
        header, body = records[0], records[1:]
        assert header["record"] == "flight"
        assert header["trigger"]["kind"] == "quarantine"
        assert header["events"] == 2
        assert [r["kind"] for r in body if r["record"] == "event"] == [
            "retry", "quarantine",
        ]

    def test_unwritable_dump_dir_is_absorbed(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        recorder = FlightRecorder(capacity=4, dump_dir=blocker)
        bus = obs.enable_events()
        bus.subscribe(recorder)
        bus.emit("quarantine", trajectory_id="t-1", error_type="Boom")
        assert recorder.dump_paths == []
        assert len(recorder.captures) == 1, "the in-memory capture survives"


class TestEnableDisable:
    """A recorder's lifetime on the bus is its subscription: attached
    with ``subscribe``, detached with the bus."""

    def test_enable_subscribes_and_is_idempotent(self):
        recorder = _subscribed(capacity=8)
        assert obs.enable_events() is obs.events(), "re-enabling keeps the bus"
        obs.emit_event("progress", done=1)
        assert recorder.events_seen == 1, "re-enabling must not double-deliver"

    def test_disable_unsubscribes(self):
        recorder = _subscribed(capacity=8)
        obs.disable_events()
        obs.enable_events()
        obs.emit_event("progress", done=1)
        assert recorder.events_seen == 0


@pytest.fixture(scope="module")
def base_trip(scenario):
    rng = np.random.default_rng(505)
    return scenario.simulate_trips(1, depart_time=9 * 3600.0, rng=rng)[0]


class TestPipelineIntegration:
    def test_fault_injected_quarantine_dumps_the_failing_items_events(
        self, scenario, base_trip, tmp_path
    ):
        recorder = _subscribed(dump_dir=tmp_path)
        injector = FaultInjector(
            [FaultSpec(stage="extract", error=TransientError, times=None)]
        )
        with injector.installed(scenario.stmaker):
            result = scenario.stmaker.summarize_many(
                [base_trip.raw],
                retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
            )
        assert result.quarantined_count == 1
        assert recorder.dump_paths, "the quarantine must produce a dump"
        records = _read_dump(recorder.dump_paths[0])
        trip_id = base_trip.raw.trajectory_id
        events = [r for r in records if r["record"] == "event"]
        own = [e for e in events if e["trajectory_id"] == trip_id]
        kinds = {e["kind"] for e in own}
        assert "quarantine" in kinds
        assert "retry" in kinds, "the dump shows what led up to the failure"
        [q] = [e for e in own if e["kind"] == "quarantine"]
        assert q["payload"]["error_type"] == "TransientError"
        assert q["payload"]["error"], "quarantine events carry the message"

    def test_degradation_triggers_a_capture(self, scenario, base_trip):
        recorder = _subscribed(capacity=64)
        injector = FaultInjector.raising("partition")
        with injector.installed(scenario.stmaker):
            scenario.stmaker.summarize(base_trip.raw, k=2)
        assert recorder.captures
        assert recorder.captures[-1]["trigger"]["kind"] == "degradation"

    def test_sharded_pool_quarantines_dump_too(self, scenario, tmp_path):
        rng = np.random.default_rng(506)
        trips = [
            t.raw
            for t in scenario.simulate_trips(4, depart_time=10 * 3600.0, rng=rng)
        ]
        recorder = _subscribed(dump_dir=tmp_path)
        injector = FaultInjector(
            [FaultSpec(stage="extract", error=TransientError, times=None)]
        )
        with injector.installed(scenario.stmaker):
            result = scenario.stmaker.summarize_many(
                trips, workers=2, retry=RetryPolicy(max_retries=0),
            )
        assert result.quarantined_count == 4
        assert len(recorder.dump_paths) == 4, "worker-thread failures dump too"
