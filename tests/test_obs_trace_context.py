"""Request-scoped tracing: context propagation and per-trace tree invariants.

Two layers:

* **unit** — :class:`~repro.obs.TraceContext` plumbing (pickling, span
  adoption, fork hygiene, ``add_batch`` grafting, cross-process timeline
  alignment) driven on hand-built collectors;
* **property** — real batches through ``summarize_many`` under the
  ``SERVING_TEST_EXECUTOR`` matrix (CI: thread and process), including
  injected retry and crash faults, asserting the invariants
  :func:`repro.obs.trace_problems` encodes: within every trace, span ids
  are unique, every parent resolves in-trace or the span is the single
  root, and parent chains are acyclic.

The checker is the same code ``stmaker obs analyze`` runs, so the tested
invariant and the reported one cannot drift apart.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro import obs
from repro.exceptions import TransientError
from repro.obs.trace import SpanRecord, clear_span_context
from repro.resilience import FaultInjector, FaultSpec, RetryPolicy
from repro.serving import ShardRetryPolicy
from repro.trajectory import RawTrajectory

#: Worker count / pool backend of the matrix tests (CI: 1/4 × thread/process).
WORKERS = int(os.environ.get("SERVING_TEST_WORKERS", "4"))
EXECUTOR = os.environ.get("SERVING_TEST_EXECUTOR", "thread")

FAST_RETRY = ShardRetryPolicy(max_retries=1, backoff_base_s=0.0)


# -- unit: context plumbing ----------------------------------------------------


def test_trace_context_roundtrips():
    ctx = obs.start_trace(anchor_unix_s=123.0)
    assert ctx.trace_id
    assert ctx.anchor_unix_s == 123.0
    # A context crosses the process boundary inside its ShardTask, by pickle.
    assert pickle.loads(pickle.dumps(ctx)) == ctx


def test_trace_ids_are_unique():
    ids = {obs.start_trace().trace_id for _ in range(1000)}
    assert len(ids) == 1000


def test_use_trace_none_is_a_noop():
    with obs.use_trace(None):
        assert obs.current_trace() is None


def test_span_adopts_active_trace(clean_tracing):
    collector = clean_tracing
    ctx = obs.start_trace()
    with obs.use_trace(ctx):
        with obs.span("item"):
            with obs.span("summarize"):
                pass
    assert obs.current_trace() is None
    inner, outer = collector.spans()
    assert outer.trace_id == inner.trace_id == ctx.trace_id
    assert inner.parent_id == outer.span_id
    assert obs.trace_problems(collector.spans()) == []


def test_clear_span_context_drops_inherited_state(clean_tracing):
    # What a fork-started worker must do: without the reset, the next
    # span would claim the (parent-process) stack top as its parent.
    collector = clean_tracing
    with obs.use_trace(obs.start_trace()):
        with obs.span("outer"):
            clear_span_context()
            assert obs.current_trace() is None
            with obs.span("orphan"):
                pass
    orphan = collector.by_name("orphan")[0]
    assert orphan.parent_id is None
    assert orphan.trace_id is None


# -- unit: grafting ------------------------------------------------------------


def _worker_record(
    span_id: int,
    parent_id: int | None,
    name: str,
    *,
    trace_id: str | None = None,
    start_s: float = 0.0,
    start_unix_s: float = 0.0,
) -> SpanRecord:
    return SpanRecord(
        span_id=span_id, parent_id=parent_id, name=name, start_s=start_s,
        duration_ms=1.0, status="ok", error=None, depth=0,
        trace_id=trace_id, start_unix_s=start_unix_s,
    )


def test_add_batch_grafts_infra_root_and_keeps_trace_roots():
    parent = obs.TraceCollector()
    batch_id = parent.next_span_id()
    added = parent.add_batch(
        [
            _worker_record(1, None, "shard"),              # infra root
            _worker_record(2, 1, "item", trace_id="t1"),   # under shard
            _worker_record(3, 2, "attempt", trace_id="t1"),
        ],
        graft_parent_id=batch_id,
    )
    assert added == 3
    by_name = {r.name: r for r in parent.spans()}
    assert by_name["shard"].parent_id == batch_id
    assert by_name["item"].parent_id == by_name["shard"].span_id
    assert by_name["attempt"].parent_id == by_name["item"].span_id
    assert obs.trace_problems(parent.spans()) == []
    # The item span roots its trace: its parent is outside trace t1.
    trace = obs.group_traces(parent.spans())["t1"]
    assert [r.name for r in obs.trace_roots(trace)] == ["item"]


def test_add_batch_without_graft_keeps_old_semantics():
    parent = obs.TraceCollector()
    parent.add_batch([
        _worker_record(1, None, "shard"),
        _worker_record(2, 99, "lost-parent"),
    ])
    shard, lost = parent.spans()
    assert shard.parent_id is None
    assert lost.parent_id is None  # unshipped parent, no graft target


def test_two_worker_batches_never_collide(clean_tracing):
    collector = clean_tracing
    with obs.span("summarize_many") as batch:
        for _ in range(2):
            # Both fake workers mint the same local ids 1..2.
            collector.add_batch(
                [
                    _worker_record(1, None, "shard"),
                    _worker_record(2, 1, "item", trace_id=obs.new_trace_id()),
                ],
                graft_parent_id=batch.span_id,
            )
    spans = collector.spans()
    assert len({r.span_id for r in spans}) == len(spans) == 5
    shard_parents = {r.parent_id for r in spans if r.name == "shard"}
    assert shard_parents == {batch.span_id}
    assert obs.trace_problems(spans) == []


def test_grafted_timeline_aligns_on_wall_clock(clean_tracing):
    # Regression for cross-process timelines: two fake workers whose
    # perf_counter epochs disagree wildly must still land at their true
    # wall-clock offsets in the exported Chrome trace.
    collector = clean_tracing
    with obs.span("summarize_many") as batch:
        pass
    (root,) = collector.spans()
    base = root.start_unix_s
    assert base > 0.0
    collector.add_batch(
        [_worker_record(
            1, None, "shard-a", start_s=9999.5, start_unix_s=base + 0.5,
        )],
        graft_parent_id=root.span_id,
    )
    collector.add_batch(
        [_worker_record(
            1, None, "shard-b", start_s=0.001, start_unix_s=base + 1.0,
        )],
        graft_parent_id=root.span_id,
    )
    events = {
        e["name"]: e for e in obs.chrome_trace_events(collector)
        if e.get("ph") == "X"
    }
    assert events["summarize_many"]["ts"] == pytest.approx(0.0, abs=1.0)
    assert events["shard-a"]["ts"] == pytest.approx(0.5e6, rel=1e-6)
    assert events["shard-b"]["ts"] == pytest.approx(1.0e6, rel=1e-6)


def test_timeline_falls_back_when_any_anchor_missing(clean_tracing):
    # One legacy anchor-less record poisons alignment wholesale — mixing
    # unix and perf timelines would interleave incomparable clocks.
    collector = clean_tracing
    with obs.span("summarize_many"):
        pass
    collector.add_batch(
        [_worker_record(1, None, "legacy", start_s=42.0, start_unix_s=0.0)]
    )
    events = {
        e["name"]: e for e in obs.chrome_trace_events(collector)
        if e.get("ph") == "X"
    }
    assert events["legacy"]["ts"] == pytest.approx(42.0e6, rel=1e-6)


# -- property: real batches under the executor matrix --------------------------


@pytest.fixture(scope="module")
def corpus(scenario) -> list[RawTrajectory]:
    rng = np.random.default_rng(412)
    sims = [
        scenario.simulate_trips(1, depart_time=(7.0 + 0.5 * i) * 3600.0, rng=rng)[0]
        for i in range(8)
    ]
    return [
        RawTrajectory(s.raw.points, f"tc-{i:02d}") for i, s in enumerate(sims)
    ]


@pytest.fixture(scope="module")
def stmaker(scenario):
    return scenario.stmaker


@pytest.fixture()
def clean_tracing():
    collector = obs.enable_tracing()
    yield collector
    obs.disable_tracing()


@pytest.fixture()
def clean_obs():
    yield
    obs.disable_tracing()
    obs.disable_events()
    obs.disable_metrics()


def _assert_invariants(spans, corpus, batch):
    problems = obs.trace_problems(spans)
    assert problems == []
    traces = obs.group_traces(spans)
    # One trace per item, each carrying at least an item and attempt span.
    assert len(traces) == len(corpus)
    batch_spans = [s for s in spans if s.name == "summarize_many"]
    assert len(batch_spans) == 1
    for records in traces.values():
        names = {r.name for r in records}
        assert "item" in names
        path = obs.critical_path(records)
        assert path, "well-formed trace must yield a critical path"
        assert path[0].name == "item"
    # Shard spans are infrastructure grafted under the batch span, never
    # floating roots.
    for shard in (s for s in spans if s.name == "shard"):
        assert shard.parent_id == batch_spans[0].span_id
        assert shard.trace_id is None
    # Latency accounting rides along for every settled item.
    assert len(batch.latencies) == len(corpus)
    by_trace = {lat.trace_id: lat for lat in batch.latencies if lat}
    assert set(by_trace) == set(traces)


def test_batch_traces_are_well_formed(stmaker, corpus, clean_obs):
    collector = obs.enable_tracing()
    batch = stmaker.summarize_many(corpus, workers=WORKERS, executor=EXECUTOR)
    spans = collector.spans()
    assert batch.ok_count == len(corpus)
    _assert_invariants(spans, corpus, batch)


def test_traces_stay_well_formed_under_retry_faults(stmaker, corpus, clean_obs):
    collector = obs.enable_tracing()
    stmaker.fault_injector = FaultInjector(
        (FaultSpec(
            stage="partition", kind="error", error=TransientError,
            trajectory_id="tc-03", times=1,
        ),),
        seed=5,
    )
    try:
        batch = stmaker.summarize_many(
            corpus, workers=WORKERS, executor=EXECUTOR,
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.0),
        )
    finally:
        stmaker.fault_injector = None
    spans = collector.spans()
    assert batch.ok_count == len(corpus)
    _assert_invariants(spans, corpus, batch)
    retried = [lat for lat in batch.latencies if lat and lat.attempts > 1]
    assert len(retried) == 1
    trace = obs.group_traces(spans)[retried[0].trace_id]
    attempts = [r for r in trace if r.name == "attempt"]
    assert len(attempts) == 2
    assert retried[0].backoff_s >= 0.0


def test_traces_stay_well_formed_under_crash_faults(stmaker, corpus, clean_obs):
    collector = obs.enable_tracing()
    stmaker.fault_injector = FaultInjector(
        (FaultSpec(
            stage="extract", kind="crash", trajectory_id="tc-05", times=None,
        ),),
        seed=5,
    )
    try:
        batch = stmaker.summarize_many(
            corpus, workers=WORKERS, executor=EXECUTOR,
            shard_retry=FAST_RETRY,
        )
    finally:
        stmaker.fault_injector = None
    spans = collector.spans()
    assert batch.ok_count == len(corpus) - 1
    assert [e.trajectory_id for e in batch.quarantined] == ["tc-05"]
    # Spans from crashed worker attempts die with the worker (telemetry
    # ships at shard end), so the poison item's trace may be absent — but
    # every trace that did make it home must still be a well-formed tree.
    assert obs.trace_problems(spans) == []
    traces = obs.group_traces(spans)
    healthy = [lat for lat in batch.latencies if lat and lat.attempts <= 1]
    for lat in healthy:
        if lat.trace_id in traces:
            path = obs.critical_path(traces[lat.trace_id])
            assert path and path[0].name == "item"
    # The synthesized quarantine entry still carries its accounting.
    entry = batch.quarantined[0]
    assert entry.latency is not None
    assert entry.latency.attempts >= 1


def test_slo_breach_fires_on_live_batch(stmaker, corpus, clean_obs):
    # Acceptance: a configured p95 SLO breach over a real batch emits
    # slo_breach on the bus (and therefore into /status and the flight
    # recorder's trigger set).
    bus = obs.enable_events()
    engine = bus.subscribe(obs.SLOEngine([obs.SLObjective(
        name="lat", kind="latency_p95", threshold_ms=0.001,
        min_samples=2, fast_window_s=60.0, window_s=60.0,
    )], bus=bus))
    log = bus.subscribe(obs.EventLog())
    batch = stmaker.summarize_many(corpus, workers=WORKERS, executor=EXECUTOR)
    assert batch.ok_count == len(corpus)
    assert len(log.events("item_end")) == len(corpus)
    breaches = log.events("slo_breach")
    assert len(breaches) == 1
    assert breaches[0].payload["name"] == "lat"
    state = engine.snapshot()["objectives"][0]
    assert state["breached"] is True
    assert state["samples"] == len(corpus)
