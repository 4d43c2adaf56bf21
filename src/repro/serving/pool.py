"""The batch runner behind ``STMaker.summarize_many``.

:func:`run_sharded` is the only batch runner: ``summarize_many`` forwards
every call here.  The runner validates the options once, before
admission (:func:`validate_pool_shape`, shared with
:class:`~repro.server.ServerConfig`), then owns the batch in one place:
the admission ticket (an ``admission`` span), one
:class:`~repro.obs.TraceContext` per item, the ``summarize_many`` span,
the ``batch_start``/``batch_end`` events, input-order reassembly
(:func:`repro.serving.ordering.reassemble`, a ``reassemble`` span), and
settling each item once, in the caller's process, as its outcome
arrives: batch counters, ``resilience.item.latency_ms``, the
``quarantine`` and ``item_end`` events, then progress.

Items run through the one shard loop,
:func:`repro.serving.executor.run_shard`, one
:class:`~repro.serving.ShardTask` per shard.  Shards exist only where a
process boundary does:

* **serial** — every ``executor="thread"`` (default) batch, and a
  ``"process"`` batch with ``workers=1`` and no ``shard_size``: one task
  with no shard id covering the whole batch, run in the calling thread
  on one :class:`~repro.resilience.Deadline`.  It emits no shard events,
  no ``"shard"`` span and no ``serving.*`` metrics.  The pipeline is
  pure-Python CPU work that serializes on the GIL, so ``workers`` and
  ``shard_size`` are accepted under ``"thread"`` and have no effect.
  ``"thread"`` is also the executor for unpicklable sleepers and custom
  feature registries;
* **sharded** — ``executor="process"`` with ``workers > 1`` or a
  ``shard_size``: contiguous balanced shards
  (:func:`repro.serving.sharder.plan_shards`) on a process pool
  supervised by :mod:`repro.serving.supervisor`, each under its own
  deadline of the full budget (a slow shard cannot starve its
  siblings).  Workers rebuild the model from a versioned **city-model
  artifact** (:mod:`repro.artifact`; auto-published to a temp file when
  no ``artifact=`` path is given) and ship their telemetry home as
  records inside each :class:`~repro.serving.ShardResult` (metrics
  snapshot, span records, events) that the parent folds in.  Each
  shard is bracketed by ``shard_start``/``shard_end`` events and
  mirrored into ``serving.shard.<id>.*`` gauges (the run report's
  per-shard breakdown), which a sharded batch clears when it starts.

See ``docs/SERVING.md`` for the measured scaling profile.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from typing import TYPE_CHECKING, Callable, Sequence

from repro.exceptions import ConfigError
from repro.obs import (
    Span,
    emit_event,
    events,
    events_enabled,
    get_collector,
    metrics,
    metrics_enabled,
    span,
    start_trace,
    tracing_enabled,
)
from repro.resilience import BatchProgress, BatchResult, ItemOutcome
from repro.serving.breaker import CircuitBreaker, get_breaker
from repro.serving.executor import (
    EXECUTORS,
    ItemOptions,
    ShardResult,
    ShardTask,
    check_process_compatible,
    run_shard,
)
from repro.serving.ordering import reassemble
from repro.serving.sharder import plan_shards
from repro.serving.supervisor import ShardRetryPolicy, supervise_process_shards

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.summarizer import STMaker
    from repro.serving.admission import AdmissionController, AdmissionPolicy
    from repro.trajectory import RawTrajectory


def validate_pool_shape(
    *,
    workers: int,
    shard_size: int | None,
    executor: str,
    artifact: str | None = None,
) -> None:
    """Raise :class:`~repro.exceptions.ConfigError` for a bad pool shape."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if shard_size is not None and shard_size < 1:
        raise ConfigError(f"shard_size must be >= 1, got {shard_size}")
    if executor not in EXECUTORS:
        raise ConfigError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    if artifact is not None and executor != "process":
        raise ConfigError("artifact= is only used with executor='process'")


class _ProgressBoard:
    """Settles each batch item in the caller, and keeps the live tallies.

    :meth:`settle` is the runner's per-outcome callback on every path —
    the serial loop, and the process ``fold`` of worker, degraded and
    crash-quarantined shards — and the one place an item settles, so a
    process batch's totals equal a serial run's.  Elapsed time is read
    off the batch span.
    """

    def __init__(
        self,
        total: int,
        progress: Callable[[BatchProgress], None] | None,
        batch_span: Span,
        admission_wait_s: float,
    ) -> None:
        self._lock = threading.Lock()
        self._total = total
        self._progress = progress
        self._batch_span = batch_span
        self._admission_wait_s = admission_wait_s
        self.done = 0
        self.ok = 0
        self.quarantined = 0
        self.retries = 0

    def settle(self, outcome: ItemOutcome) -> None:
        """Publish one item: counters, latency, events, then progress."""
        latency = outcome.latency
        latency.admission_wait_s = self._admission_wait_s
        entry = outcome.quarantine
        duration_ms = latency.total_s * 1000.0
        m = metrics()
        m.counter("resilience.batch.items").inc()
        m.counter(
            "resilience.batch.ok" if entry is None
            else "resilience.batch.quarantined"
        ).inc()
        m.histogram("resilience.item.latency_ms").observe(duration_ms)
        if entry is not None:
            emit_event(
                "quarantine", trajectory_id=entry.trajectory_id,
                index=entry.index, error_type=entry.error_type,
                attempts=entry.attempts, error=entry.error,
            )
        if events_enabled():
            # The breakdown payload is only built while events flow.
            emit_event(
                "item_end", trajectory_id=(
                    outcome.summary.trajectory_id if entry is None
                    else entry.trajectory_id
                ),
                index=outcome.index, ok=entry is None, duration_ms=duration_ms,
                attempts=latency.attempts, trace_id=latency.trace_id,
                breakdown=latency.to_dict(),
            )
        with self._lock:
            self.done += 1
            self.retries += outcome.retries
            if entry is None:
                self.ok += 1
            else:
                self.quarantined += 1
            done, ok, quarantined, retries = (
                self.done, self.ok, self.quarantined, self.retries,
            )
        elapsed = self._batch_span.elapsed_s()
        rate = done / elapsed if elapsed > 0.0 else 0.0
        eta = (self._total - done) / rate if rate > 0.0 else None
        m.gauge("resilience.batch.items_per_s").set(rate)
        if eta is not None:
            m.gauge("resilience.batch.eta_s").set(eta)
        snapshot = BatchProgress(
            done, self._total, ok, quarantined, retries, elapsed, rate, eta,
        )
        emit_event("progress", **snapshot.to_dict())
        if self._progress is not None:
            self._progress(snapshot)


def run_sharded(
    stmaker: "STMaker",
    items: Sequence["RawTrajectory"],
    options: ItemOptions,
    *,
    progress: Callable[[BatchProgress], None] | None = None,
    workers: int = 1,
    shard_size: int | None = None,
    executor: str = "thread",
    artifact: str | None = None,
    shard_retry: ShardRetryPolicy | None = None,
    breaker: "CircuitBreaker | bool | None" = None,
    admission: "AdmissionPolicy | AdmissionController | None" = None,
    tenant: str | None = None,
    priority: int = 0,
) -> BatchResult:
    """Summarize *items* in the calling thread, or sharded across processes.

    Every item is served under *options*.  A batch is the serial case —
    one task with no shard id, run inline on one ``deadline_s`` clock —
    unless ``executor="process"`` and ``workers > 1`` or ``shard_size`` is
    set.  Under ``"thread"``,
    ``workers`` and ``shard_size`` are accepted and have no effect.  A
    sharded batch matches serial element-wise — same summaries, same
    degradation reports, same quarantine entries, in the same input order
    (the differential suite pins this) — except that each process shard
    gets the full ``deadline_s`` budget.

    With ``executor="process"``, workers rebuild the model from the
    city-model artifact at *artifact* (which must hold the same trained
    state as *stmaker* for parallel ≡ serial to hold; when ``None`` the
    model is auto-published with :func:`repro.artifact.ensure_artifact`).
    Worker telemetry arrives as merged metric deltas, grafted spans, and
    relayed events (retry, degradation, sanitization and shard events,
    with ``relay_*`` provenance keys) when each shard completes; every
    item then settles here, in the caller, as on the serial path.

    Failure containment (``docs/ROBUSTNESS.md``): process shards always
    run supervised — worker death is retried, bisected, and at worst
    quarantined under *shard_retry* (default
    :class:`~repro.serving.ShardRetryPolicy`), never propagated as
    ``BrokenProcessPool``.  *breaker* (``True`` for the registry breaker
    named ``serving.process``, or an explicit
    :class:`~repro.serving.CircuitBreaker`) routes process shards to an
    in-parent degraded path while open; serial batches never consult it.
    *admission* bounds the intake (may raise
    :class:`~repro.exceptions.OverloadError`, or replace ``options.k``
    under ``shed="degrade"``) and caps the supervisor's in-flight window via
    its ``max_in_flight_shards``; *tenant*/*priority* feed its budget and
    bypass hooks.  Options are validated before admission, so a
    :class:`~repro.exceptions.ConfigError` never holds budget.
    """
    validate_pool_shape(
        workers=workers, shard_size=shard_size,
        executor=executor, artifact=artifact,
    )
    items = list(items)
    sharded = executor == "process" and (workers > 1 or shard_size is not None)
    shards = plan_shards(
        len(items),
        num_shards=workers if sharded else 1,
        shard_size=shard_size if sharded else None,
    )
    ticket = None
    admission_wait_s = 0.0
    if admission is not None:
        # May raise OverloadError (shed="reject") — before any work starts.
        with span("admission", items=len(items)) as admission_span:
            ticket = admission.admit(len(items), tenant=tenant, priority=priority)
        admission_wait_s = admission_span.duration_ms / 1000.0
        if ticket.decision.k_override is not None:
            options = dataclasses.replace(options, k=ticket.decision.k_override)
    # Request identity is minted the moment the batch clears admission:
    # one TraceContext per item, all anchored at the same wall-clock
    # instant, so queue wait is "admitted but not yet picked up" on
    # whichever thread or process eventually serves the item.
    batch_anchor_unix = time.time()
    traces = [start_trace(anchor_unix_s=batch_anchor_unix) for _ in items]
    tasks = [
        ShardTask(
            shard_id=shard.shard_id if sharded else None,
            indices=shard.indices,
            items=tuple(items[index] for index in shard.indices),
            traces=tuple(traces[index] for index in shard.indices),
            options=options,
        )
        for shard in shards
    ]
    m = metrics()
    m.counter("resilience.batch.calls").inc()
    # A serial run reports no pool shape: its telemetry reads as a batch
    # that was never sharded.
    shape: dict[str, object] = {}
    span_tags: dict[str, object] = {}
    end_tags: dict[str, object] = {}
    if sharded:
        if metrics_enabled():
            # Per-shard rows describe the latest sharded batch only.
            m.discard_prefix("serving.shard.")
        m.counter("serving.batch.calls").inc()
        m.gauge("serving.workers").set(workers)
        m.gauge("serving.shards").set(len(shards))
        shape = {"workers": workers, "shards": len(shards)}
        span_tags = {**shape, "executor": executor}
        end_tags = {"shards": len(shards)}
    emit_event("batch_start", items=len(items), k=options.k, **shape)
    try:
        with span("summarize_many", items=len(items), k=options.k, **span_tags) as sp:
            board = _ProgressBoard(len(items), progress, sp, admission_wait_s)
            if sharded:
                if breaker is True:
                    breaker = get_breaker("serving.process")
                results = _run_in_processes(
                    stmaker, tasks, workers=workers, board=board,
                    breaker=breaker or None, batch_span=sp,
                    artifact=artifact, shard_retry=shard_retry,
                    max_in_flight=(
                        admission.max_in_flight_shards
                        if admission is not None else None
                    ),
                )
            else:
                # Strict mode's first item error propagates straight out.
                results = [
                    run_shard(stmaker, task, on_item=board.settle)
                    for task in tasks
                ]
            with span("reassemble", items=len(items)):
                result = reassemble(
                    [outcome for sr in results for outcome in sr.outcomes],
                    len(items),
                )
            sp.set_tag("ok", result.ok_count)
            sp.set_tag("quarantined", result.quarantined_count)
    finally:
        if ticket is not None:
            ticket.release()
    emit_event(
        "batch_end", ok=result.ok_count,
        quarantined=result.quarantined_count,
        duration_ms=sp.duration_ms, **end_tags,
    )
    return result


def _publish_shard(sr: ShardResult, m, graft_parent_id: int | None) -> None:
    """Fold one finished process shard into the parent-side sinks.

    A process worker's metrics snapshot merges into the live registry,
    its span records graft under *graft_parent_id* (the live batch span,
    so they join the parent's tree instead of floating), and its events
    relay onto the live bus tagged ``relay_source="shard-<id>"``.  Each
    part is dropped when the parent has that sink off.  The
    ``serving.shard.<id>.*`` gauges are set here: gauges are
    last-write-wins state, so they must be *set* parent-side, not merged
    as offsets.
    """
    if sr.metrics and metrics_enabled():
        m.merge_snapshot(sr.metrics)
    collector = get_collector()
    if sr.spans and collector is not None:
        collector.add_batch(sr.spans, graft_parent_id=graft_parent_id)
    bus = events()
    if sr.events and bus is not None:
        bus.relay(sr.events, source=f"shard-{sr.shard_id}")
    prefix = f"serving.shard.{sr.shard_id}"
    m.gauge(f"{prefix}.items").set(len(sr.outcomes))
    m.gauge(f"{prefix}.ok").set(sr.ok)
    m.gauge(f"{prefix}.quarantined").set(sr.quarantined)
    m.gauge(f"{prefix}.duration_ms").set(sr.duration_ms)
    m.gauge(f"{prefix}.items_per_s").set(sr.items_per_s)


def _run_in_processes(
    stmaker: "STMaker",
    tasks: Sequence[ShardTask],
    *,
    workers: int,
    board: _ProgressBoard,
    breaker: CircuitBreaker | None,
    batch_span,
    artifact: str | None,
    shard_retry: ShardRetryPolicy | None,
    max_in_flight: int | None,
) -> list[ShardResult]:
    """Serve *tasks* on a supervised, long-lived ProcessPoolExecutor.

    The supervisor (:mod:`repro.serving.supervisor`) owns the pool and
    keeps it warm for the caller's next batch.  Worker death never
    surfaces as ``BrokenProcessPool`` here — lost
    shards are retried, bisected, and at worst quarantined, while
    completed shards fold in completion order (the runner's reassembly
    restores item order regardless).  In strict mode the first
    worker-raised item error still propagates unchanged.  The installed
    fault injector travels as its recipe ``(specs, seed)`` and every
    worker arms a fresh one from it; see ``docs/SERVING.md`` for what that
    means for bounded (``times=N``) specs.
    """
    from repro.artifact import artifact_info, ensure_artifact

    if tasks:
        check_process_compatible(stmaker, tasks[0].options)
    info = artifact_info(artifact) if artifact is not None else ensure_artifact(stmaker)
    injector = stmaker.fault_injector
    shipped = {
        "artifact_path": info.path,
        "fingerprint": info.fingerprint,
        "fault_specs": () if injector is None else injector.specs,
        "fault_seed": 0 if injector is None else injector.seed,
        "want_metrics": metrics_enabled(),
        "want_spans": tracing_enabled(),
        "want_events": events_enabled(),
    }
    m = metrics()
    graft_parent_id = getattr(batch_span, "span_id", None)
    results: list[ShardResult] = []

    def fold(sr: ShardResult) -> None:
        _publish_shard(sr, m, graft_parent_id)
        for outcome in sr.outcomes:
            board.settle(outcome)
        results.append(sr)

    supervise_process_shards(
        [dataclasses.replace(task, **shipped) for task in tasks],
        workers=workers,
        policy=shard_retry or ShardRetryPolicy(),
        fold=fold,
        local_runner=functools.partial(run_shard, stmaker, degraded=True),
        breaker=breaker,
        max_in_flight=max_in_flight,
    )
    return results
