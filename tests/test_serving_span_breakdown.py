"""Each batch item's latency breakdown is read from its own spans.

``LatencyBreakdown.stages_s`` is the item span's subtree summed per span
name, heard through a span listener whether or not tracing is on;
``total_s`` is the ``item`` span and ``exec_s`` the sum of its
``attempt`` spans.  With tracing on, the same spans land in the trace,
so the two views must agree exactly — on the serial path and on the
pool named by ``SERVING_TEST_EXECUTOR`` with ``SERVING_TEST_WORKERS``
workers (CI matrix: thread/process × 1/4).  The runner's own durations
are its ``admission`` and ``reassemble`` spans: each item's
``admission_wait_s`` is read from the first, and reassembly, a per-batch
constant, is recorded only as the second.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.obs import trace_problems
from repro.obs.metrics import MetricsRegistry
from repro.serving import AdmissionPolicy

WORKERS = int(os.environ.get("SERVING_TEST_WORKERS", "4"))
EXECUTOR = os.environ.get("SERVING_TEST_EXECUTOR", "thread")

#: The pool run passes an explicit ``shard_size`` so one worker still
#: goes through sharding (and through a worker process, for ``process``).
RUNS = {
    "serial": {},
    "pool": {"workers": WORKERS, "shard_size": 2, "executor": EXECUTOR},
}


@pytest.fixture(scope="module")
def trips(scenario):
    rng = np.random.default_rng(1)
    return [
        t.raw
        for t in scenario.simulate_trips(6, depart_time=9 * 3600.0, rng=rng)
    ]


@pytest.fixture()
def clean_obs():
    yield
    obs.disable_tracing()
    obs.disable_metrics()


def _subtree_seconds(records, root) -> dict[str, float]:
    """Seconds per span name over every span below *root* in *records*."""
    children: dict[int, list] = {}
    for record in records:
        children.setdefault(record.parent_id, []).append(record)
    totals: dict[str, float] = {}
    pending = list(children.get(root.span_id, []))
    while pending:
        record = pending.pop()
        totals[record.name] = totals.get(record.name, 0.0) + record.duration_ms / 1000.0
        pending.extend(children.get(record.span_id, []))
    return totals


@pytest.mark.parametrize("run", list(RUNS))
def test_breakdown_equals_item_span_subtree(scenario, trips, run, clean_obs):
    collector = obs.enable_tracing()
    registry = obs.enable_metrics(MetricsRegistry())
    batch = scenario.stmaker.summarize_many(trips, **RUNS[run])
    assert batch.ok_count == len(trips)
    traces = obs.group_traces(collector.spans())
    for latency in batch.latencies:
        records = traces[latency.trace_id]
        [item] = [r for r in records if r.name == "item"]
        expected = _subtree_seconds(records, item)
        assert set(latency.stages_s) == set(expected)
        assert {"sanitize", "attempt", "summarize", "partition.dp"} <= set(expected)
        for name, seconds in expected.items():
            assert latency.stages_s[name] == pytest.approx(seconds, rel=1e-9), name
        assert latency.total_s == pytest.approx(item.duration_ms / 1000.0, rel=1e-9)
        attempts_s = sum(r.duration_ms for r in records if r.name == "attempt") / 1000.0
        assert latency.exec_s == pytest.approx(attempts_s, rel=1e-9)
    summarize_ms = sum(r.duration_ms for r in collector.by_name("summarize"))
    histogram = registry.histogram("summarize.latency_ms")
    assert histogram.count == len(trips)
    assert histogram.sum == pytest.approx(summarize_ms, rel=1e-9)


@pytest.mark.parametrize("run", list(RUNS))
def test_runner_durations_are_its_spans(scenario, trips, run, clean_obs):
    """Admission wait and reassembly are the runner's own spans.

    Both are infrastructure spans: they sit outside every item's request,
    carry no trace id, and leave each item's trace a well-formed tree.
    """
    collector = obs.enable_tracing()
    batch = scenario.stmaker.summarize_many(
        trips, admission=AdmissionPolicy(), **RUNS[run]
    )
    [admission] = collector.by_name("admission")
    [reassemble] = collector.by_name("reassemble")
    [batch_span] = collector.by_name("summarize_many")
    assert reassemble.parent_id == batch_span.span_id
    assert admission.trace_id is None and reassemble.trace_id is None
    for latency in batch.latencies:
        assert latency.admission_wait_s == pytest.approx(
            admission.duration_ms / 1000.0, rel=1e-9
        )
    assert trace_problems(collector.spans()) == []


def test_sanitize_is_inside_the_item_total(scenario, trips):
    batch = scenario.stmaker.summarize_many(trips[:1], sanitize=True)
    [latency] = batch.latencies
    sanitize_s = latency.stages_s["sanitize"]
    assert sanitize_s > 0.0
    assert latency.total_s >= latency.exec_s + latency.backoff_s + sanitize_s
