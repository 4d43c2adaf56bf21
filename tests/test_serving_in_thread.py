"""``executor="thread"`` runs every batch through the serial loop.

Shards exist only where a process boundary does.  Under the thread
executor, ``workers`` and ``shard_size`` are accepted and have no effect:
the batch runs as one unsharded task in the calling thread, with serial's
outcomes, serial's telemetry, and one ``deadline_s`` clock for the whole
batch, so it quarantines exactly the items a serial run does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.exceptions import TransientError
from repro.resilience import FaultInjector, FaultSpec
from tests.test_serving_differential import assert_batches_identical

WORKERS = 4


def _no_sleep(seconds: float) -> None:
    """Skip retry backoff."""


@pytest.fixture(scope="module")
def trips(scenario):
    rng = np.random.default_rng(5)
    return [
        t.raw
        for t in scenario.simulate_trips(8, depart_time=9 * 3600.0, rng=rng)
    ]


def test_pool_shape_leaves_a_thread_batch_serial(scenario, trips):
    """Same outcomes and the telemetry of a batch that was never sharded.

    One item is poisoned with an unbounded transient fault so the batch
    carries a quarantine verdict, whose shard id must stay ``None``.
    """
    stmaker = scenario.stmaker
    injector = FaultInjector([
        FaultSpec(
            stage="extract", error=TransientError, times=None,
            trajectory_id=trips[3].trajectory_id,
        )
    ])

    def run(**options):
        with injector.installed(stmaker):
            return stmaker.summarize_many(
                trips, k=2, sleeper=_no_sleep, **options
            )

    serial = run()
    assert [entry.index for entry in serial.quarantined] == [3]
    for options in ({}, {"shard_size": 2}):
        collector = obs.enable_tracing()
        registry = obs.enable_metrics(obs.MetricsRegistry())
        log = obs.EventLog()
        obs.enable_events(obs.EventBus()).subscribe(log)

        result = run(workers=WORKERS, executor="thread", **options)

        assert_batches_identical(serial, result)
        assert {entry.shard_id for entry in result.quarantined} == {None}
        kinds = {event.kind for event in log.events()}
        assert not kinds & {"shard_start", "shard_end"}, options
        (batch_start,) = log.events("batch_start")
        assert set(batch_start.payload) == {"items", "k"}, options
        assert not collector.by_name("shard"), options
        (batch,) = collector.by_name("summarize_many")
        assert {"workers", "shards", "executor"}.isdisjoint(batch.tags)
        assert not [n for n in registry.names() if n.startswith("serving.")]


def test_deadline_quarantines_what_serial_quarantines(scenario, trips):
    """One clock for the whole batch: sharding moves no item across it.

    Every ``extract`` sleeps 0.2 s, so item *i* starts at about
    ``i * (0.2 s + its CPU time)``; under a 0.5 s budget the first three
    items start with 50 ms or more to spare and the rest start past it.
    Four shards each holding the full budget would start every item in
    time; a thread batch runs on the serial clock and quarantines the
    same indices.
    """
    stmaker = scenario.stmaker

    def quarantined(**options) -> list[int]:
        injector = FaultInjector([
            FaultSpec(stage="extract", error=None, latency_s=0.2, times=None)
        ])
        with injector.installed(stmaker):
            result = stmaker.summarize_many(trips, k=2, deadline_s=0.5, **options)
        return sorted(entry.index for entry in result.quarantined)

    serial = quarantined()
    assert serial, "the budget should run out inside the batch"
    assert quarantined(workers=WORKERS, executor="thread") == serial
