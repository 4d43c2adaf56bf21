"""Differential suite: sharded parallel serving ≡ the serial pipeline.

The contract of ``repro.serving`` is that ``summarize_many(workers=N)``
changes *nothing* semantically: summaries (text, partitions, Γ values),
degradation reports, quarantine entries and sanitization reports must be
element-wise identical to ``workers=1``, in input order — including
under deterministic fault injection.

The corpus is ≥20 generated scenarios: healthy simulated trips across the
day plus corrupted mutants (duplicate timestamps, teleports, dead zones,
off-map, minimal, noisy) that exercise sanitization, degradation, and
quarantine.

``SERVING_TEST_WORKERS`` (CI matrix: 1 and 4) sets the pool's worker
count; every comparison forces the pool with an explicit ``shard_size``,
so even the 1-worker leg runs the shard/reassembly machinery.
``SERVING_TEST_EXECUTOR`` (CI matrix: thread and process) selects the
backend.  Under ``"process"`` the whole suite proves the process
executor — artifact shipping, worker rebuild, telemetry relay —
element-wise identical to serial; under ``"thread"`` the parallel side
runs the serial loop, which pins that ``workers``/``shard_size`` have no
effect there.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exceptions import TransientError
from repro.geo import GeoPoint
from repro.resilience import FaultInjector, FaultSpec, RetryPolicy
from repro.trajectory import RawTrajectory, TrajectoryPoint

#: Worker count of the parallel side of every comparison (CI matrix 1/4).
WORKERS = int(os.environ.get("SERVING_TEST_WORKERS", "4"))

#: Pool backend of the parallel side (CI matrix thread/process).
EXECUTOR = os.environ.get("SERVING_TEST_EXECUTOR", "thread")


def _no_sleep(seconds: float) -> None:
    """A sleeper that doesn't — module-level so it crosses process pools."""

#: The five stages, for per-stage fault-injection comparisons.
STAGES = ("calibrate", "extract", "partition", "select", "realize")


# -- corpus -------------------------------------------------------------------


def _mutants(trips) -> list[RawTrajectory]:
    """Corrupted variants of healthy trips, one failure archetype each."""
    out = []

    pts = []
    for p in trips[0].raw:
        pts.append(p)
        pts.append(TrajectoryPoint(p.point, p.t))  # exact duplicate samples
    out.append(RawTrajectory(pts, "mut-dup-timestamps"))

    pts = list(trips[1].raw.points)
    mid = len(pts) // 2
    pts[mid] = TrajectoryPoint(  # ~100 km teleport glitch mid-trip
        GeoPoint(pts[mid].point.lat + 1.0, pts[mid].point.lon), pts[mid].t
    )
    out.append(RawTrajectory(pts, "mut-teleport"))

    pts = list(trips[2].raw.points)
    n = len(pts)
    out.append(  # GPS dead zone: middle third missing
        RawTrajectory(pts[: n // 3] + pts[2 * n // 3 :], "mut-dead-zone")
    )

    out.append(RawTrajectory(  # fully off-map: nowhere near any landmark
        [
            TrajectoryPoint(GeoPoint(10.0, 10.0 + 0.001 * i), float(i * 30))
            for i in range(12)
        ],
        "mut-off-map",
    ))

    pts = trips[3].raw.points
    out.append(RawTrajectory([pts[0], pts[-1]], "mut-minimal"))

    pts = list(trips[4].raw.points)
    out.append(RawTrajectory(  # long dwell: the same fix repeated
        pts[: len(pts) // 2]
        + [
            TrajectoryPoint(pts[len(pts) // 2].point, pts[len(pts) // 2].t + 5.0 * i)
            for i in range(1, 15)
        ],
        "mut-long-dwell",
    ))

    out.append(RawTrajectory(trips[5].raw.points[:6], "mut-truncated"))

    rng = np.random.default_rng(99)
    pts = [
        TrajectoryPoint(
            GeoPoint(
                p.point.lat + float(rng.normal(0.0, 2e-4)),
                p.point.lon + float(rng.normal(0.0, 2e-4)),
            ),
            p.t,
        )
        for p in trips[6].raw
    ]
    out.append(RawTrajectory(pts, "mut-noisy"))

    return out


@pytest.fixture(scope="module")
def corpus(scenario) -> list[RawTrajectory]:
    rng = np.random.default_rng(1234)
    trips = [
        scenario.simulate_trips(1, depart_time=(6.0 + 0.9 * i) * 3600.0, rng=rng)[0]
        for i in range(14)
    ]
    # simulate_trips restarts its id counter per call, so re-id the trips.
    healthy = [
        RawTrajectory(trip.raw.points, f"trip-{i:02d}")
        for i, trip in enumerate(trips)
    ]
    return healthy + _mutants(trips)


@pytest.fixture(scope="module")
def stmaker(scenario):
    return scenario.stmaker


# -- the equivalence assertion ------------------------------------------------


def assert_batches_identical(serial, parallel) -> None:
    """Element-wise equality of everything a BatchResult carries."""
    assert parallel.ok_count == serial.ok_count
    assert parallel.quarantined_count == serial.quarantined_count
    for ours, theirs in zip(parallel.summaries, serial.summaries, strict=True):
        assert ours.trajectory_id == theirs.trajectory_id
        assert ours.text == theirs.text
        # Dataclass equality covers spans, landmark names, selected
        # features, and the exact Γ (irregular_rate) floats.
        assert ours.partitions == theirs.partitions
        assert ours.degradation.to_dict() == theirs.degradation.to_dict()
    assert parallel.quarantined == serial.quarantined
    assert parallel.sanitization == serial.sanitization


def run_pair(stmaker, corpus, **kwargs):
    serial = stmaker.summarize_many(corpus, workers=1, **kwargs)
    parallel = stmaker.summarize_many(
        corpus, workers=WORKERS, shard_size=3, executor=EXECUTOR, **kwargs
    )
    return serial, parallel


# -- differential tests -------------------------------------------------------


def test_corpus_is_large_and_diverse(corpus):
    assert len(corpus) >= 20
    assert len({raw.trajectory_id for raw in corpus}) == len(corpus)


def test_parallel_equals_serial(stmaker, corpus):
    serial, parallel = run_pair(stmaker, corpus, k=2)
    assert_batches_identical(serial, parallel)
    # The corpus genuinely exercises every outcome class.
    assert serial.ok_count > 0
    assert serial.quarantined_count > 0
    assert any(r is not None and not r.clean for r in serial.sanitization)


def test_parallel_equals_serial_optimal_k(stmaker, corpus):
    serial, parallel = run_pair(stmaker, corpus, k=None)
    assert_batches_identical(serial, parallel)


def test_parallel_equals_serial_without_sanitizer(stmaker, corpus):
    serial, parallel = run_pair(stmaker, corpus, k=2, sanitize=False)
    assert_batches_identical(serial, parallel)
    assert serial.sanitization == [None] * len(corpus)


@pytest.mark.parametrize("stage", STAGES)
def test_parallel_equals_serial_under_stage_faults(stmaker, corpus, stage):
    """Every item degrades at *stage*; parallel must degrade identically.

    ``times=None`` fires on every call, which is the per-item-deterministic
    shape: each item sees the fault regardless of scheduling order.
    """

    def run(workers: int):
        injector = FaultInjector([FaultSpec(stage=stage, times=None)])
        with injector.installed(stmaker):
            if workers == 1:
                return stmaker.summarize_many(corpus, k=2)
            return stmaker.summarize_many(
                corpus, k=2, workers=workers, shard_size=3, executor=EXECUTOR
            )

    serial, parallel = run(1), run(WORKERS)
    assert_batches_identical(serial, parallel)
    degraded = [s for s in serial.summaries if s.degradation.degraded]
    assert degraded, f"stage {stage!r} faults never degraded anything"


def test_parallel_equals_serial_under_transient_storm(stmaker, corpus):
    """Unrelenting TransientErrors exhaust retries and quarantine every item."""
    retry = RetryPolicy(max_retries=2, backoff_base_s=0.0)

    def run(workers: int):
        injector = FaultInjector(
            [FaultSpec(stage="extract", error=TransientError, times=None)]
        )
        with injector.installed(stmaker):
            return stmaker.summarize_many(
                corpus, k=2, retry=retry, sleeper=_no_sleep,
                workers=workers, shard_size=3, executor=EXECUTOR,
            ) if workers != 1 else stmaker.summarize_many(
                corpus, k=2, retry=retry, sleeper=_no_sleep
            )

    serial, parallel = run(1), run(WORKERS)
    assert_batches_identical(serial, parallel)
    assert serial.ok_count == 0
    # max_retries=2 → items that reached "extract" burned exactly 3
    # attempts; mutants that die earlier (calibrate) quarantine on the
    # first attempt without retrying a non-transient error.
    attempts = {entry.attempts for entry in serial.quarantined}
    assert attempts <= {1, 3} and 3 in attempts


def test_parallel_equals_serial_with_expired_deadline(stmaker, corpus):
    """A zero budget quarantines everything with identical entries."""
    serial, parallel = run_pair(stmaker, corpus, k=2, deadline_s=0.0)
    assert_batches_identical(serial, parallel)
    assert serial.ok_count == 0
    assert {e.error_type for e in serial.quarantined} == {"DeadlineExceeded"}


def test_parallel_strict_mode_identical_on_clean_corpus(stmaker, corpus):
    clean = corpus[:10]  # the healthy simulated trips
    serial = stmaker.summarize_many(clean, k=2, strict=True)
    parallel = stmaker.summarize_many(
        clean, k=2, strict=True, workers=WORKERS, shard_size=2,
        executor=EXECUTOR,
    )
    assert_batches_identical(serial, parallel)
    assert serial.quarantined_count == 0


def test_parallel_progress_callback_sees_every_item(stmaker, corpus):
    from repro.resilience import BatchProgress

    snapshots: list[BatchProgress] = []
    result = stmaker.summarize_many(
        corpus, k=2, workers=WORKERS, shard_size=3, progress=snapshots.append,
        executor=EXECUTOR,
    )
    assert len(snapshots) == len(corpus)
    final = max(snapshots, key=lambda p: p.done)
    assert final.done == final.total == len(corpus)
    assert final.ok == result.ok_count
    assert final.quarantined == result.quarantined_count
    assert all(0.0 <= p.percent <= 100.0 for p in snapshots)


def test_serial_run_reports_no_pool_shape(stmaker, corpus):
    """``workers=1`` telemetry reads as a batch that was never sharded."""
    from repro import obs
    from repro.obs.metrics import MetricsRegistry

    registry = obs.enable_metrics(MetricsRegistry())
    collector = obs.enable_tracing()
    log = obs.EventLog()
    obs.enable_events().subscribe(log)
    result = stmaker.summarize_many(corpus, k=2)
    assert result.quarantined  # provenance of a serial verdict: no shard
    assert {entry.shard_id for entry in result.quarantined} == {None}
    assert not log.events("shard_start") and not log.events("shard_end")
    (batch_start,) = log.events("batch_start")
    assert set(batch_start.payload) == {"items", "k"}
    (batch_end,) = log.events("batch_end")
    assert "shards" not in batch_end.payload
    names = [s["name"] for s in collector.to_dicts()]
    assert "shard" not in names
    (batch_span,) = [s for s in collector.to_dicts() if s["name"] == "summarize_many"]
    assert {"workers", "shards", "executor"}.isdisjoint(batch_span["tags"])
    assert not [n for n in registry.names() if n.startswith("serving.")]


def test_pool_rejects_zero_workers(stmaker, corpus):
    """Pool-shape options are validated the same for serial and pool."""
    from repro.exceptions import ConfigError
    from repro.serving import ItemOptions, run_sharded

    with pytest.raises(ConfigError):
        run_sharded(stmaker, corpus, ItemOptions(k=2), workers=0)
    with pytest.raises(ConfigError):
        stmaker.summarize_many(corpus, k=2, workers=0)
    bad_options = (
        {"executor": "ray"},
        {"shard_size": 0},
        {"artifact": "model.bin"},  # requires executor="process"
    )
    for workers in (1, 2):
        for options in bad_options:
            with pytest.raises(ConfigError):
                stmaker.summarize_many(corpus, k=2, workers=workers, **options)


def test_parallel_strict_mode_raises_like_serial(stmaker, corpus):
    with pytest.raises(Exception) as serial_exc:
        stmaker.summarize_many(corpus, k=2, strict=True)
    with pytest.raises(Exception) as parallel_exc:
        stmaker.summarize_many(
            corpus, k=2, strict=True, workers=WORKERS, shard_size=3,
            executor=EXECUTOR,
        )
    assert type(parallel_exc.value) is type(serial_exc.value)
