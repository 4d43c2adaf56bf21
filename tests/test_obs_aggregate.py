"""Tests for cross-process telemetry aggregation: merge_snapshot, span
batches, event relays, the parent's fold of a process shard's records
(``ShardResult.metrics``/``spans``/``events``), and the shard differential
(sharded registry == serial registry)."""

from __future__ import annotations

import pickle
import random
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    EventBus,
    EventLog,
    MetricsRegistry,
    PipelineEvent,
    TraceCollector,
)
from repro.obs.trace import SpanRecord
from repro.serving import ShardResult
from repro.serving.pool import _publish_shard


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable_events()
    obs.disable_tracing()
    obs.disable_metrics()
    yield
    obs.disable_events()
    obs.disable_tracing()
    obs.disable_metrics()


BOUNDS = (1.0, 5.0, 25.0)


def _random_delta(seed: int) -> MetricsRegistry:
    """A worker-style delta registry with exactly-representable values.

    Observations are quarter-integers so float addition is exact and the
    associativity/commutativity assertions can use ``==``, not approx.
    """
    rng = random.Random(seed)
    registry = MetricsRegistry()
    registry.counter("work.calls").inc(rng.randint(0, 10))
    if rng.random() < 0.8:
        registry.counter("work.items").inc(rng.randint(1, 50))
    h = registry.histogram("work.latency_ms", buckets=BOUNDS)
    for _ in range(rng.randint(0, 25)):
        h.observe(rng.randint(0, 200) / 4.0)
    if rng.random() < 0.5:
        registry.gauge("work.offset").inc(rng.randint(-5, 5))
    return registry


def _fold(deltas) -> dict:
    target = MetricsRegistry()
    for delta in deltas:
        target.merge_snapshot(delta.snapshot())
    return target.snapshot()


class TestMergeSnapshot:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("calls").inc(3)
        b.counter("calls").inc(4)
        b.counter("only_b").inc(1)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["calls"]["value"] == 7.0
        assert snap["only_b"]["value"] == 1.0

    def test_gauges_merge_as_signed_offsets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("backlog").set(10.0)
        b.gauge("backlog").inc(-3.0)
        a.merge_snapshot(b.snapshot())
        assert a.snapshot()["backlog"]["value"] == 7.0

    def test_histograms_merge_counts_sums_extremes(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        ha = a.histogram("lat", buckets=BOUNDS)
        hb = b.histogram("lat", buckets=BOUNDS)
        for v in (0.5, 2.0):
            ha.observe(v)
        for v in (10.0, 100.0):
            hb.observe(v)
        a.merge_snapshot(b.snapshot())
        data = a.snapshot()["lat"]
        assert data["count"] == 4
        assert data["sum"] == 112.5
        assert data["min"] == 0.5 and data["max"] == 100.0
        assert data["buckets"] == {"1": 1, "5": 1, "25": 1, "+inf": 1}

    def test_empty_histogram_delta_is_noop(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", buckets=BOUNDS).observe(2.0)
        b.histogram("lat", buckets=BOUNDS)  # created, never observed
        before = a.snapshot()
        a.merge_snapshot(b.snapshot())
        assert a.snapshot() == before

    def test_bucket_layout_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        b.histogram("lat", buckets=(10.0, 20.0)).observe(15.0)
        with pytest.raises(ValueError, match="bucket layout"):
            a.merge_snapshot(b.snapshot())

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            MetricsRegistry().merge_snapshot(
                {"weird": {"type": "summary", "value": 1.0}}
            )

    def test_merge_into_empty_reproduces_source(self):
        source = _random_delta(7)
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        assert target.snapshot() == source.snapshot()


class TestMergeProperties:
    def test_associative(self):
        deltas = [_random_delta(seed) for seed in range(12)]
        left = MetricsRegistry()
        for delta in deltas[:6]:
            left.merge_snapshot(delta.snapshot())
        right = MetricsRegistry()
        for delta in deltas[6:]:
            right.merge_snapshot(delta.snapshot())
        # fold(fold(first half), fold(second half)) == fold(all)
        regrouped = MetricsRegistry()
        regrouped.merge_snapshot(left.snapshot())
        regrouped.merge_snapshot(right.snapshot())
        assert regrouped.snapshot() == _fold(deltas)

    def test_commutative(self):
        deltas = [_random_delta(seed) for seed in range(10)]
        shuffled = list(deltas)
        random.Random(99).shuffle(shuffled)
        assert _fold(deltas) == _fold(shuffled)

    def test_concurrent_merges_equal_serial_fold(self):
        deltas = [_random_delta(seed) for seed in range(16)]
        target = MetricsRegistry()
        barrier = threading.Barrier(len(deltas))
        errors: list[Exception] = []

        def worker(delta: MetricsRegistry) -> None:
            try:
                barrier.wait()
                target.merge_snapshot(delta.snapshot())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(d,)) for d in deltas]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert target.snapshot() == _fold(deltas)


class TestSpanBatches:
    def _record(self, span_id, parent_id=None, name="stage"):
        return SpanRecord(span_id, parent_id, name, 0.0, 1.0, "ok", None, 0)

    def test_ids_reassigned_and_parents_remapped(self):
        target = TraceCollector()
        batch = [self._record(1), self._record(2, parent_id=1, name="child")]
        added = target.add_batch(batch)
        assert added == 2
        spans = {s.name: s for s in target.spans()}
        assert spans["child"].parent_id == spans["stage"].span_id

    def test_batches_from_two_workers_never_collide(self):
        target = TraceCollector()
        target.add_batch([self._record(1, name="w0")])
        target.add_batch([self._record(1, name="w1")])
        ids = [s.span_id for s in target.spans()]
        assert len(ids) == len(set(ids)) == 2

    def test_out_of_batch_parent_becomes_root(self):
        target = TraceCollector()
        target.add_batch([self._record(5, parent_id=99)])
        [span] = target.spans()
        assert span.parent_id is None

    def test_max_spans_cap_counts_drops(self):
        target = TraceCollector(max_spans=1)
        added = target.add_batch([self._record(1), self._record(2)])
        assert added == 1 and target.dropped == 1

    def test_roundtrip_from_dict(self):
        record = SpanRecord(3, 1, "partition", 0.5, 2.0, "error", "boom", 2,
                            {"k": 2}, 777)
        assert SpanRecord.from_dict(record.to_dict()) == record


class TestEventRelay:
    def test_relay_resequences_and_tags_source(self):
        worker_bus, parent_bus = EventBus(), EventBus()
        worker_log = EventLog()
        worker_bus.subscribe(worker_log)
        worker_bus.emit("quarantine", trajectory_id="t-1", error="boom")
        worker_bus.emit("retry", trajectory_id="t-1")
        parent_log = EventLog()
        parent_bus.subscribe(parent_log)
        parent_bus.emit("batch_start", items=2)
        relayed = parent_bus.relay(list(worker_log), source="shard-0")
        assert [e.seq for e in parent_log] == [1, 2, 3]
        assert [e.kind for e in relayed] == ["quarantine", "retry"]
        q = relayed[0]
        assert q.payload["error"] == "boom"
        assert q.payload["relay_seq"] == 1
        assert q.payload["relay_source"] == "shard-0"
        assert q.trajectory_id == "t-1"

    def test_relay_unknown_kind_raises(self):
        bad = PipelineEvent(1, 0.0, "made_up")
        with pytest.raises(ValueError, match="unknown event kind"):
            EventBus().relay([bad])

    def test_relay_accepts_event_objects(self):
        bus = EventBus()
        source = EventBus().emit("progress", done=1)
        [out] = bus.relay([source])
        assert out.kind == "progress" and out.payload["done"] == 1


class TestShardResultFold:
    """A process worker ships its telemetry as records inside its
    :class:`ShardResult`; ``_publish_shard`` folds them into the parent's
    live sinks."""

    def _worker_result(self) -> ShardResult:
        registry = MetricsRegistry()
        registry.counter("work.calls").inc(2)
        registry.histogram("work.ms", buckets=BOUNDS).observe(3.0)
        collector = TraceCollector()
        collector.add(SpanRecord(1, None, "stage", 0.0, 1.5, "ok", None, 0))
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        bus.emit("quarantine", trajectory_id="t-9", error_type="Boom")
        return ShardResult(
            shard_id=1, outcomes=(), ok=0, quarantined=0,
            duration_ms=1.5, items_per_s=0.0,
            metrics=registry.snapshot(),
            spans=tuple(collector.spans()),
            events=tuple(log),
        )

    def test_records_cross_pickle_unchanged(self):
        result = self._worker_result()
        assert pickle.loads(pickle.dumps(result)) == result

    def test_publish_folds_all_three_sinks(self):
        result = pickle.loads(pickle.dumps(self._worker_result()))
        registry = obs.enable_metrics(MetricsRegistry())
        collector = obs.enable_tracing(TraceCollector())
        log = EventLog()
        obs.enable_events().subscribe(log)
        batch_id = collector.next_span_id()
        _publish_shard(result, obs.metrics(), batch_id)
        assert registry.snapshot()["work.calls"]["value"] == 2.0
        assert registry.histogram("work.ms").count == 1
        [stage] = collector.spans()
        assert stage.name == "stage" and stage.parent_id == batch_id
        [event] = log.events("quarantine")
        assert event.payload["relay_source"] == "shard-1"
        assert event.payload["relay_seq"] == 1
        assert registry.gauge("serving.shard.1.duration_ms").value == 1.5

    def test_publish_skips_disabled_sinks(self):
        registry = obs.enable_metrics(MetricsRegistry())
        # No collector, no bus: the span and event halves are dropped.
        _publish_shard(self._worker_result(), obs.metrics(), None)
        assert registry.snapshot()["work.calls"]["value"] == 2.0
        assert obs.get_collector() is None and not obs.events_enabled()


def _deterministic_view(snapshot: dict) -> dict:
    """Counter values and histogram bucket counts — the series that must be
    bit-identical between serial and sharded runs.  Gauges and histogram
    sums carry wall-clock timings, so they are excluded by design."""
    out = {}
    for name, data in snapshot.items():
        if name.startswith("serving."):
            continue  # pool bookkeeping only exists on the sharded path
        if data["type"] == "counter":
            out[name] = ("counter", data["value"])
        elif data["type"] == "histogram":
            counts = dict(data["buckets"])
            if "latency" in name or name.endswith("_ms"):
                # Timing histograms bucket non-deterministically; only the
                # total observation count must match.
                out[name] = ("histogram", data["count"])
            else:
                out[name] = ("histogram", data["count"], counts)
    return out


class TestShardMergeDifferential:
    def test_merged_shard_deltas_equal_serial_registry(self, scenario):
        rng = np.random.default_rng(1234)
        trips = [
            t.raw for t in scenario.simulate_trips(6, depart_time=9 * 3600.0, rng=rng)
        ]
        serial = obs.enable_metrics(MetricsRegistry())
        scenario.stmaker.summarize_many(trips, k=2)
        serial_view = _deterministic_view(serial.snapshot())
        obs.disable_metrics()

        sharded = obs.enable_metrics(MetricsRegistry())
        scenario.stmaker.summarize_many(trips, k=2, workers=3)
        sharded_view = _deterministic_view(sharded.snapshot())

        assert serial_view == sharded_view
        assert serial_view["summarize.calls"] == ("counter", 6.0)
