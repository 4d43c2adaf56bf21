"""The batch runner behind ``STMaker.summarize_many``.

:func:`run_sharded` is the only batch runner: ``summarize_many`` forwards
every call here, and serial execution is simply its ``workers=1`` case
(with no ``shard_size``).  The runner validates the options once, before
admission (:func:`validate_pool_shape`, shared with
:class:`~repro.server.ServerConfig`), then owns the batch in one place:
the admission ticket, one :class:`~repro.obs.TraceContext` per item, the
live progress tally, the ``summarize_many`` span, the
``batch_start``/``batch_end`` events, and input-order reassembly
(:func:`repro.serving.ordering.reassemble`).

Items run through the one shard loop,
:func:`repro.serving.executor.run_shard`, one
:class:`~repro.serving.ShardTask` per shard:

* **serial** (``workers=1``, no ``shard_size``) — one task covering the
  whole batch with no shard id, so it emits no shard events, no
  ``"shard"`` span and no ``serving.*`` metrics;
* ``executor="thread"`` (default) — the planned shards, run one after
  another in the calling thread.  The pipeline is pure-Python CPU work
  that would serialize on the GIL anyway, so a thread pool bought
  nothing; shards stay a unit of telemetry and of the breaker's
  accounting.  This is also the executor for unpicklable sleepers and
  custom feature registries;
* ``executor="process"`` — true multi-core for the CPU-bound
  pure-Python pipeline, supervised by :mod:`repro.serving.supervisor`.
  Workers rebuild the model from a versioned **city-model artifact**
  (:mod:`repro.artifact`; auto-published to a temp file when no
  ``artifact=`` path is given) and ship their telemetry home as a
  :class:`~repro.obs.TelemetrySnapshot` that the parent merges.

Serial and thread runs share **one** :class:`~repro.resilience.Deadline`
for the whole batch; each process shard gets its own of the full budget
(a slow shard cannot starve its siblings).  Sharded runs emit
``shard_start``/``shard_end`` events around every shard and mirror
per-shard throughput into ``serving.shard.<id>.*`` gauges (the run
report's per-shard breakdown).  See ``docs/SERVING.md`` for the measured
scaling profile of both executors.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from typing import TYPE_CHECKING, Callable, Sequence

from repro.exceptions import ConfigError
from repro.obs import (
    apply_telemetry,
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
from repro.resilience import (
    BatchProgress,
    BatchResult,
    Deadline,
    ItemOutcome,
    RetryPolicy,
)
from repro.serving.breaker import CircuitBreaker, get_breaker
from repro.serving.executor import (
    EXECUTORS,
    ShardResult,
    ShardTask,
    check_process_compatible,
    run_shard,
)
from repro.serving.ordering import reassemble
from repro.serving.sharder import SHARD_MODES, plan_shards
from repro.serving.supervisor import ShardRetryPolicy, supervise_process_shards

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.summarizer import STMaker
    from repro.serving.admission import AdmissionController, AdmissionPolicy
    from repro.trajectory import RawTrajectory, SanitizerConfig


def validate_pool_shape(
    *,
    workers: int,
    shard_size: int | None,
    shard_mode: str,
    executor: str,
    artifact: str | None = None,
) -> None:
    """Raise :class:`~repro.exceptions.ConfigError` for a bad pool shape."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if shard_size is not None and shard_size < 1:
        raise ConfigError(f"shard_size must be >= 1, got {shard_size}")
    if shard_mode not in SHARD_MODES:
        raise ConfigError(
            f"unknown shard mode {shard_mode!r}; expected one of {SHARD_MODES}"
        )
    if executor not in EXECUTORS:
        raise ConfigError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    if artifact is not None and executor != "process":
        raise ConfigError("artifact= is only used with executor='process'")


class _ProgressBoard:
    """Thread-safe live tallies behind the batch ``progress`` callback."""

    def __init__(
        self,
        total: int,
        progress: Callable[[BatchProgress], None] | None,
    ) -> None:
        self._lock = threading.Lock()
        self._total = total
        self._progress = progress
        self._started = time.perf_counter()
        self.done = 0
        self.ok = 0
        self.quarantined = 0
        self.retries = 0

    def note(self, outcome: ItemOutcome) -> None:
        with self._lock:
            self.done += 1
            self.retries += outcome.retries
            if outcome.summary is not None:
                self.ok += 1
            else:
                self.quarantined += 1
            done, ok, quarantined, retries = (
                self.done, self.ok, self.quarantined, self.retries,
            )
        elapsed = time.perf_counter() - self._started
        rate = done / elapsed if elapsed > 0.0 else 0.0
        eta = (self._total - done) / rate if rate > 0.0 else None
        m = metrics()
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
    k: int | None = None,
    *,
    sanitize: bool = True,
    sanitizer_config: "SanitizerConfig | None" = None,
    strict: bool = False,
    retry: RetryPolicy | None = None,
    deadline_s: float | None = None,
    sleeper: Callable[[float], None] = time.sleep,
    progress: Callable[[BatchProgress], None] | None = None,
    workers: int = 2,
    shard_size: int | None = None,
    shard_mode: str = "balanced",
    shard_key: Callable[["RawTrajectory"], str] | None = None,
    executor: str = "thread",
    artifact: str | None = None,
    shard_retry: ShardRetryPolicy | None = None,
    breaker: "CircuitBreaker | bool | None" = None,
    admission: "AdmissionPolicy | AdmissionController | None" = None,
    tenant: str | None = None,
    priority: int = 0,
) -> BatchResult:
    """Summarize *items*, serially or on a pool of *workers*, shard by shard.

    ``workers=1`` with no ``shard_size`` is the serial case: one task run
    inline.  Otherwise the results match it element-wise — same
    summaries, same degradation reports, same quarantine entries, in the
    same input order (the differential suite pins this, for both
    executors).  Serial and thread runs share one ``deadline_s`` clock
    for the whole batch; the only intentional divergence is under the
    process executor, where each shard gets the full budget.

    With ``executor="process"``, workers rebuild the model from the
    city-model artifact at *artifact* (which must hold the same trained
    state as *stmaker* for parallel ≡ serial to hold; when ``None`` the
    model is auto-published with :func:`repro.artifact.ensure_artifact`).
    Worker telemetry arrives as merged metric deltas, grafted spans, and
    relayed events — same totals as a serial run, but per-item events
    surface when each shard completes rather than live, and relayed
    events carry ``relay_*`` provenance keys.

    Failure containment (``docs/ROBUSTNESS.md``): the process executor
    always runs supervised — worker death is retried, bisected, and at
    worst quarantined under *shard_retry* (default
    :class:`~repro.serving.ShardRetryPolicy`), never propagated as
    ``BrokenProcessPool``.  *breaker* (``True`` for the registry breaker
    named ``serving.<executor>``, or an explicit
    :class:`~repro.serving.CircuitBreaker`) routes shards to an
    in-parent degraded path while open.  *admission* bounds the intake
    (may raise :class:`~repro.exceptions.OverloadError`, or override
    ``k`` under ``shed="degrade"``) and caps the supervisor's in-flight
    window via its ``max_in_flight_shards``; *tenant*/*priority* feed
    its budget and bypass hooks.  Options are validated before
    admission, so a :class:`~repro.exceptions.ConfigError` never holds
    budget.
    """
    validate_pool_shape(
        workers=workers, shard_size=shard_size, shard_mode=shard_mode,
        executor=executor, artifact=artifact,
    )
    items = list(items)
    serial = workers == 1 and shard_size is None
    keys = None
    if shard_mode == "hashed":
        key_of = shard_key or (lambda raw: raw.trajectory_id)
        keys = [key_of(raw) for raw in items]
    shards = plan_shards(
        len(items),
        mode=shard_mode,
        num_shards=None if shard_size is not None else workers,
        shard_size=shard_size,
        keys=keys,
    )
    ticket = None
    admission_wait_s = 0.0
    if admission is not None:
        # May raise OverloadError (shed="reject") — before any work starts.
        admit_started = time.perf_counter()
        ticket = admission.admit(len(items), tenant=tenant, priority=priority)
        admission_wait_s = time.perf_counter() - admit_started
        if ticket.decision.k_override is not None:
            k = ticket.decision.k_override
    # Request identity is minted the moment the batch clears admission:
    # one TraceContext per item, all anchored at the same wall-clock
    # instant, so queue wait is "admitted but not yet picked up" on
    # whichever thread or process eventually serves the item.
    batch_anchor_unix = time.time()
    traces = [start_trace(anchor_unix_s=batch_anchor_unix) for _ in items]
    tasks = [
        ShardTask(
            shard_id=None if serial else shard.shard_id,
            indices=shard.indices,
            items=tuple(items[index] for index in shard.indices),
            traces=tuple(traces[index] for index in shard.indices),
            k=k, sanitize=sanitize, sanitizer_config=sanitizer_config,
            strict=strict, retry=retry or RetryPolicy(),
            deadline_s=deadline_s, sleeper=sleeper,
            admission_wait_s=admission_wait_s,
        )
        for shard in shards
    ]
    m = metrics()
    m.counter("resilience.batch.calls").inc()
    # A serial run reports no pool shape: its telemetry reads as a batch
    # that was never sharded.
    start_tags: dict[str, object] = {}
    span_tags: dict[str, object] = {}
    end_tags: dict[str, object] = {}
    if not serial:
        m.counter("serving.batch.calls").inc()
        m.gauge("serving.workers").set(workers)
        m.gauge("serving.shards").set(len(shards))
        shape = {"workers": workers, "shards": len(shards)}
        start_tags = {**shape, "shard_mode": shard_mode}
        span_tags = {**shape, "executor": executor}
        end_tags = {"shards": len(shards)}
    emit_event("batch_start", items=len(items), k=k, **start_tags)
    started = time.perf_counter()
    board = _ProgressBoard(len(items), progress)
    try:
        with span("summarize_many", items=len(items), k=k, **span_tags) as sp:
            if breaker is True and not serial:
                breaker = get_breaker(f"serving.{executor}")
            if executor == "process" and not serial:
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
                # Serial and thread shards run here, one after another,
                # on one deadline clock; strict mode's first item error
                # propagates straight out of the loop.
                deadline = Deadline(deadline_s)
                results = []
                for task in tasks:
                    sr = run_shard(
                        stmaker, task, deadline=deadline, on_item=board.note
                    )
                    if not serial:
                        _publish_shard(sr, m)
                        if breaker:
                            # In-thread shards cannot crash a pool; the
                            # record keeps a shared breaker's volume honest
                            # when the two executors alternate on one name.
                            breaker.record_success()
                    results.append(sr)
            reassembly_started = time.perf_counter()
            result = reassemble(
                [outcome for sr in results for outcome in sr.outcomes], len(items)
            )
            reassembly_s = time.perf_counter() - reassembly_started
            for lat in result.latencies:
                if lat is not None:
                    lat.reassembly_s = reassembly_s
            sp.set_tag("ok", result.ok_count)
            sp.set_tag("quarantined", result.quarantined_count)
    finally:
        if ticket is not None:
            ticket.release()
    emit_event(
        "batch_end", ok=result.ok_count,
        quarantined=result.quarantined_count,
        duration_ms=(time.perf_counter() - started) * 1000.0, **end_tags,
    )
    return result


def _publish_shard(
    sr: ShardResult, m, graft_parent_id: int | None = None
) -> None:
    """Fold one finished shard into the parent-side sinks.

    A process worker's telemetry snapshot merges into the live registry,
    its spans graft under *graft_parent_id* (the live batch span, so they
    join the parent's tree instead of floating), and its events relay onto
    the live bus.  The ``serving.shard.<id>.*`` gauges are set here for
    every sharded run: gauges are last-write-wins state, so they must be
    *set* parent-side, not merged as offsets.
    """
    if sr.telemetry is not None:
        apply_telemetry(
            sr.telemetry,
            registry=m if metrics_enabled() else None,
            collector=get_collector(),
            bus=events(),
            graft_parent_id=graft_parent_id,
        )
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
    """Serve *tasks* on a supervised ProcessPoolExecutor.

    The supervisor (:mod:`repro.serving.supervisor`) owns the pool:
    worker death never surfaces as ``BrokenProcessPool`` here — lost
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
        check_process_compatible(stmaker, tasks[0].sleeper)
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
            board.note(outcome)
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
