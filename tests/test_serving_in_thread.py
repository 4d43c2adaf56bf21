"""``executor="thread"`` runs its shards in the calling thread.

The thread executor plans shards exactly like the process executor, but
serves them one after another through the serial item loop: every span
is recorded on the calling thread, shard spans nest under the batch span
on the ordinary span stack, and a ``deadline_s`` budget is one clock for
the whole batch, so it quarantines exactly the items a serial run does.
"""

from __future__ import annotations

import re
import threading

import numpy as np
import pytest

from repro import obs
from repro.resilience import FaultInjector, FaultSpec

WORKERS = 4


@pytest.fixture(scope="module")
def trips(scenario):
    rng = np.random.default_rng(5)
    return [
        t.raw
        for t in scenario.simulate_trips(8, depart_time=9 * 3600.0, rng=rng)
    ]


def test_shards_run_in_the_calling_thread_under_the_batch_span(scenario, trips):
    collector = obs.enable_tracing()
    registry = obs.enable_metrics()
    log = obs.EventLog()
    obs.enable_events().subscribe(log)

    scenario.stmaker.summarize_many(trips, k=2, workers=WORKERS, executor="thread")

    spans = collector.spans()
    (batch,) = collector.by_name("summarize_many")
    shards = collector.by_name("shard")
    items = collector.by_name("item")
    assert len(shards) == WORKERS
    assert len(items) == len(trips)
    caller = threading.get_ident()
    assert {record.thread_id for record in shards + items} == {caller}
    assert {record.parent_id for record in shards} == {batch.span_id}
    assert obs.trace_problems(spans) == []

    shard_ids = sorted(record.tags["shard_id"] for record in shards)
    starts = sorted(e.payload["shard_id"] for e in log.events("shard_start"))
    ends = sorted(e.payload["shard_id"] for e in log.events("shard_end"))
    assert starts == ends == shard_ids
    gauge_ids = sorted(
        int(match.group(1))
        for name in registry.snapshot()
        if (match := re.fullmatch(r"serving\.shard\.(\d+)\.items", name))
    )
    assert gauge_ids == shard_ids


def test_deadline_quarantines_what_serial_quarantines(scenario, trips):
    """One clock for the whole batch: sharding moves no item across it.

    Every ``extract`` sleeps 0.2 s, so item *i* starts at about
    ``i * (0.2 s + its CPU time)``; under a 0.5 s budget the first three
    items start with 50 ms or more to spare and the rest start past it.
    Four shards each holding the full budget would start every item in
    time; sharing the serial clock, they quarantine the same indices.
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
