"""Concurrency stress tests: a shared STMaker hammered from many threads.

Concurrent batch calls — as the server's consumer threads issue them —
run :meth:`STMaker._summarize_item` against one shared summarizer,
metrics registry, event bus, fault injector, and quarantine bookkeeping.
These tests drive that sharing hard — eight threads issuing overlapping
batch calls — and assert that nothing tears: counters add up exactly,
histogram snapshots stay internally consistent, fault-fire counts are
lossless, and every batch still honours the input-order contract.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.resilience import FaultInjector, FaultSpec
from repro.trajectory import RawTrajectory

THREADS = 8


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable_events()
    obs.disable_tracing()
    obs.disable_metrics()
    yield
    obs.disable_events()
    obs.disable_tracing()
    obs.disable_metrics()


@pytest.fixture(scope="module")
def corpus(scenario) -> list[RawTrajectory]:
    rng = np.random.default_rng(2024)
    trips = [
        scenario.simulate_trips(1, depart_time=(7.0 + 0.5 * i) * 3600.0, rng=rng)[0]
        for i in range(6)
    ]
    return [
        RawTrajectory(trip.raw.points, f"stress-{i}")
        for i, trip in enumerate(trips)
    ]


def hammer(fn, n_threads: int = THREADS):
    """Run *fn(thread_index)* on n_threads concurrently; return results."""
    barrier = threading.Barrier(n_threads)

    def task(i: int):
        barrier.wait()  # maximise overlap: all threads start together
        return fn(i)

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return [f.result() for f in [pool.submit(task, i) for i in range(n_threads)]]


def test_concurrent_batches_on_shared_stmaker(scenario, corpus):
    """Eight threads × batches on ONE STMaker: all results correct."""
    expected = scenario.stmaker.summarize_many(corpus, k=2)
    assert expected.ok_count == len(corpus)

    results = hammer(
        lambda i: scenario.stmaker.summarize_many(
            corpus, k=2, workers=2, shard_size=2
        )
    )
    for result in results:
        assert result.ok_count == len(corpus)
        assert [s.trajectory_id for s in result.summaries] == [
            raw.trajectory_id for raw in corpus
        ]
        for ours, theirs in zip(result.summaries, expected.summaries, strict=True):
            assert ours.text == theirs.text
            assert ours.partitions == theirs.partitions


def test_metrics_counters_are_lossless_under_contention(scenario, corpus):
    """resilience.batch.items must equal exactly threads × items."""
    registry = obs.enable_metrics()
    hammer(lambda i: scenario.stmaker.summarize_many(corpus, k=2, workers=2))
    items = registry.get("resilience.batch.items")
    assert items is not None and items.value == THREADS * len(corpus)
    ok = registry.get("resilience.batch.ok")
    assert ok is not None and ok.value == THREADS * len(corpus)
    assert registry.get("resilience.batch.calls").value == THREADS
    # Thread batches are serial: no pool-shape or per-shard series.
    assert not [n for n in registry.names() if n.startswith("serving.")]


def test_histogram_snapshot_never_tears():
    """Readers racing a writer always see count/sum/buckets agree."""
    registry = obs.MetricsRegistry()
    hist = registry.histogram("stress.duration_ms")
    stop = threading.Event()
    errors: list[str] = []

    def writer():
        value = 0
        while not stop.is_set():
            hist.observe(float(value % 1000))
            value += 1

    def reader():
        while not stop.is_set():
            data = hist.to_dict()
            total_in_buckets = sum(data["buckets"].values())
            if total_in_buckets != data["count"]:
                errors.append(
                    f"bucket total {total_in_buckets} != count {data['count']}"
                )
            if data["count"] and not (
                data["min"] <= data["mean"] <= data["max"]
            ):
                errors.append(f"min/mean/max inconsistent: {data}")

    threads = [threading.Thread(target=writer) for _ in range(2)] + [
        threading.Thread(target=reader) for _ in range(THREADS - 2)
    ]
    for t in threads:
        t.start()
    stop.wait(timeout=1.0)
    stop.set()
    for t in threads:
        t.join()
    assert errors == []


def test_fault_injector_counts_are_lossless_under_contention():
    """N threads × M before() calls on a times=None spec fire N×M times."""
    injector = FaultInjector([FaultSpec(stage="extract", times=None)])
    calls_per_thread = 200

    def fire(_i):
        fired = 0
        for _ in range(calls_per_thread):
            try:
                injector.before("extract")
            except Exception:
                fired += 1
        return fired

    results = hammer(fire)
    assert sum(results) == THREADS * calls_per_thread
    assert injector.fired("extract") == THREADS * calls_per_thread


def test_bounded_fault_injector_never_overfires():
    """A times=N spec fires exactly N times total across all threads."""
    budget = 37
    injector = FaultInjector([FaultSpec(stage="extract", times=budget)])

    def fire(_i):
        fired = 0
        for _ in range(100):
            try:
                injector.before("extract")
            except Exception:
                fired += 1
        return fired

    results = hammer(fire)
    assert sum(results) == budget
    assert injector.fired("extract") == budget


def test_event_bus_collects_every_event_under_contention(scenario, corpus):
    log = obs.EventLog()
    obs.enable_events().subscribe(log)
    hammer(lambda i: scenario.stmaker.summarize_many(corpus, k=2, workers=2))
    recorded = log.events()
    batch_starts = [e for e in recorded if e.kind == "batch_start"]
    batch_ends = [e for e in recorded if e.kind == "batch_end"]
    item_ends = [e for e in recorded if e.kind == "item_end"]
    assert len(batch_starts) == len(batch_ends) == THREADS
    assert len(item_ends) == THREADS * len(corpus)
    # Thread batches are serial: no shard events.
    assert not [e for e in recorded if e.kind in ("shard_start", "shard_end")]


def test_quarantine_is_isolated_per_batch_under_contention(scenario, corpus):
    """Concurrent batches with injected faults never cross-contaminate."""
    injector = FaultInjector([FaultSpec(stage="calibrate", times=None)])

    # Installed once from the main thread; the pool workers of all eight
    # concurrent batches share it (times=None never exhausts).
    with injector.installed(scenario.stmaker):
        results = hammer(
            lambda i: scenario.stmaker.summarize_many(corpus, k=2, workers=2)
        )
    for result in results:
        assert result.ok_count + result.quarantined_count == len(corpus)
        assert {e.index for e in result.quarantined} <= set(range(len(corpus)))
