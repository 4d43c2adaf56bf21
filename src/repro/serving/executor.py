"""The one shard loop, and the process backend that ships it.

:func:`run_shard` serves one :class:`ShardTask` item by item through
``STMaker._summarize_item``; it is the only batch item loop.  The runner
in :mod:`repro.serving.pool` builds one task per shard, and each path
calls :func:`run_shard` with only what is specific to it around the
call: a serial batch (every ``executor="thread"`` batch) calls it once,
in the calling thread; the breaker's degraded path calls it in the
parent with ``degraded=True``; and a process worker
(:func:`run_shard_in_process`) calls it against a model rebuilt from the
city-model artifact.

For the process executor the division of labour is:

* the **parent** publishes the model as a binary city-model artifact
  (:func:`repro.artifact.ensure_artifact` when no explicit path is
  given), validates that everything crossing the boundary pickles
  (:func:`check_process_compatible`), and adds the artifact reference
  ``(path, fingerprint)``, the fault-injector recipe, and which telemetry
  sinks it has enabled to each task;
* each **worker process** resets any obs state inherited over ``fork``
  (an inherited JSONL sink would double-write the parent's file),
  installs fresh sinks, rebuilds the STMaker once per process via
  :func:`repro.artifact.cached_stmaker`, and runs :func:`run_shard`.
  A worker outlives the call: the supervisor keeps its pool for the
  caller's next batch (:mod:`repro.serving.supervisor`), so the loaded
  model, its network's search trees and its edge index serve every
  later shard, and the obs reset runs again after each shard;
* the worker returns a :class:`ShardResult`: the outcomes plus its
  telemetry as records — a metrics snapshot (a delta from zero), its
  :class:`~repro.obs.SpanRecord` s and its
  :class:`~repro.obs.PipelineEvent` s, all crossing the boundary by
  pickle — which the parent folds back (:mod:`repro.serving.pool`):
  counters add up with ``merge_snapshot``, spans graft into the parent
  trace with ``add_batch``, events are relayed with their worker source
  tagged.
  A worker computes outcomes only; it never settles them.  The relayed
  events are therefore retry, degradation, sanitization and shard
  events: each item's ``quarantine`` and ``item_end`` are emitted by the
  parent as it folds the outcome in (:mod:`repro.serving.pool`).

Start method: ``fork`` when the parent is single-threaded (cheapest, and
the pool's worker processes are forked before its manager thread starts),
``forkserver`` once any other thread is alive (forking a multi-threaded
parent is unsafe and deprecated in CPython 3.12+ — this covers a batch
submitted from a server consumer thread).  Override with
``REPRO_MP_START_METHOD``.  The rule is applied when a pool starts, and
a pool keeps its start method for life.  An idle pool's manager and
feeder threads count as live threads, so a pool started while another
one is idle (a second worker count, a concurrent caller) uses
``forkserver``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import pickle
import sys
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.exceptions import ConfigError
from repro.features import default_registry
from repro.obs import (
    EventLog,
    MetricsRegistry,
    MetricsSnapshot,
    PipelineEvent,
    SpanRecord,
    TraceCollector,
    TraceContext,
    clear_span_context,
    disable_events,
    disable_metrics,
    disable_tracing,
    emit_event,
    enable_events,
    enable_metrics,
    enable_tracing,
    span,
)
from repro.resilience import Deadline, ItemOutcome, RetryPolicy
from repro.resilience.faultinject import FaultInjector, FaultSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.summarizer import STMaker
    from repro.trajectory import RawTrajectory, SanitizerConfig

#: Supported ``executor=`` values for sharded serving.
EXECUTORS = ("thread", "process")


@dataclass(frozen=True, slots=True)
class ItemOptions:
    """The options every item of one batch is served under.

    ``summarize_many`` and ``SummarizationServer.submit`` build one from
    their keywords, and every layer below them carries it whole.
    ``deadline_s`` budgets one :class:`~repro.resilience.Deadline` per
    :class:`ShardTask`.
    """

    k: int | None = None
    sanitize: bool = True
    sanitizer_config: "SanitizerConfig | None" = None
    strict: bool = False
    retry: RetryPolicy = RetryPolicy()
    deadline_s: float | None = None
    sleeper: Callable[[float], None] = time.sleep


@dataclass(frozen=True, slots=True)
class ShardTask:
    """Everything :func:`run_shard` needs to serve one shard.

    ``shard_id`` is ``None`` for the serial case's single task: no
    shard events, no ``"shard"`` span, and ``None`` as quarantine
    provenance, exactly as a batch that was never sharded.  The fields
    after ``options`` are only filled in for the process executor.
    Deliberately model-free: the trained state travels as an
    artifact reference, not as pickled objects, so N tasks cost N small
    pickles plus one artifact load per worker process (the per-process
    cache in :mod:`repro.artifact` collapses repeats).
    """

    shard_id: int | None
    indices: tuple[int, ...]
    items: tuple["RawTrajectory", ...]
    #: Per-item request contexts, parallel to ``indices``/``items``.
    traces: tuple[TraceContext, ...]
    options: ItemOptions
    artifact_path: str | None = None
    fingerprint: str | None = None
    fault_specs: tuple[FaultSpec, ...] = ()
    fault_seed: int = 0
    want_metrics: bool = False
    want_spans: bool = False
    want_events: bool = False


@dataclass(frozen=True, slots=True)
class ShardResult:
    """One served shard: ordered outcomes plus the worker's telemetry.

    The last three fields are filled in only by a process worker, each
    only when the parent has that sink enabled: the worker registry's
    snapshot, and the span records and events it recorded.
    """

    shard_id: int | None
    outcomes: tuple[ItemOutcome, ...]
    ok: int
    quarantined: int
    duration_ms: float
    items_per_s: float
    metrics: MetricsSnapshot | None = None
    spans: tuple[SpanRecord, ...] = ()
    events: tuple[PipelineEvent, ...] = ()


def check_process_compatible(stmaker: "STMaker", options: ItemOptions) -> None:
    """Fail fast on state that cannot cross the process boundary.

    Two things cannot ship: custom feature extractors (code, not data —
    the artifact stores only their keys) and unpicklable sleepers
    (lambdas/closures).  Both raise :class:`~repro.exceptions.ConfigError`
    here, in the parent, instead of a cryptic pickling error from the
    pool's feeder thread.
    """
    default_keys = frozenset(default_registry(include_speed_change=True).keys())
    custom = [key for key in stmaker.registry.keys() if key not in default_keys]
    if custom:
        raise ConfigError(
            f"executor='process' cannot ship custom feature definitions "
            f"{custom} to worker processes (they are code, not data); "
            "use executor='thread' for models with registry extensions"
        )
    if options.sleeper is not time.sleep:
        try:
            pickle.dumps(options.sleeper)
        except Exception as exc:
            raise ConfigError(
                "executor='process' requires a picklable sleeper "
                f"(module-level function), got {options.sleeper!r}: {exc}"
            ) from exc


def run_shard(
    stmaker: "STMaker",
    task: ShardTask,
    *,
    degraded: bool = False,
    on_item: Callable[[ItemOutcome], None] | None = None,
) -> ShardResult:
    """Serve *task* item by item: the one batch item loop.

    Every item goes through ``STMaker._summarize_item`` under one
    :class:`~repro.resilience.Deadline` of the task's full budget: the
    whole batch's clock for a serial task, one per process shard.  A
    sharded task (``shard_id`` set) runs under a ``"shard"`` span and is
    bracketed by ``shard_start``/``shard_end`` events, tagged
    ``degraded=True`` on the breaker's in-parent path; its duration is
    the span's.  A serial task has no shard span and reports a zero
    duration, which nothing reads.  *on_item* receives each outcome as
    soon as it is computed (the serial runner settles it there).  In
    ``strict`` mode the first item error propagates, unsettled.
    """
    deadline = Deadline(task.options.deadline_s)
    sharded = task.shard_id is not None
    tags = {"degraded": True} if degraded else {}
    if sharded:
        emit_event("shard_start", shard_id=task.shard_id, items=len(task.items), **tags)
    outcomes: list[ItemOutcome] = []
    with (
        span("shard", shard_id=task.shard_id, items=len(task.items), **tags)
        if sharded else contextlib.nullcontext()
    ) as shard_span:
        for offset, index in enumerate(task.indices):
            outcome = stmaker._summarize_item(
                index, task.items[offset], task.options, deadline=deadline,
                shard_id=task.shard_id, trace=task.traces[offset],
            )
            outcomes.append(outcome)
            if on_item is not None:
                on_item(outcome)
    duration_ms = shard_span.duration_ms if sharded else 0.0
    ok = sum(1 for outcome in outcomes if outcome.summary is not None)
    rate = len(outcomes) / (duration_ms / 1000.0) if duration_ms > 0.0 else 0.0
    if sharded:
        emit_event(
            "shard_end", shard_id=task.shard_id, items=len(outcomes),
            ok=ok, quarantined=len(outcomes) - ok,
            duration_ms=duration_ms, items_per_s=rate, **tags,
        )
    return ShardResult(
        shard_id=task.shard_id, outcomes=tuple(outcomes),
        ok=ok, quarantined=len(outcomes) - ok,
        duration_ms=duration_ms, items_per_s=rate,
    )


def _reset_inherited_obs() -> None:
    """Drop obs state a ``fork``-started worker inherited from the parent.

    The parent's bus may carry subscribers with open file descriptors
    (JSONL sinks, the ops server's flight recorder): letting them run in
    the worker would interleave writes into the parent's files.  The
    sinks are dropped, not closed — the descriptors still belong to the
    parent process.  The forking thread's context-local state goes too:
    an inherited span stack carries parent-collector span ids that would
    corrupt the parent-side graft, and an inherited span listener would
    account the worker's spans against a dead copy of a parent object.
    """
    disable_metrics()
    disable_tracing()
    disable_events()
    clear_span_context()


def run_shard_in_process(task: ShardTask) -> ShardResult:
    """Worker-process entry point: serve one shard against the artifact.

    Wraps :func:`run_shard` in fresh obs sinks whose contents ship home
    in the result's ``metrics``, ``spans`` and ``events`` fields, so the
    parent's merged totals match a serial run.  The worker's ``"shard"``
    span deliberately has no parent and no trace id: it is process-local
    infrastructure that the parent grafts under the live batch span,
    while per-item spans carry their item's
    :class:`~repro.obs.TraceContext`.
    """
    from repro.artifact import cached_stmaker

    _reset_inherited_obs()
    registry = enable_metrics(MetricsRegistry()) if task.want_metrics else None
    collector = enable_tracing(TraceCollector()) if task.want_spans else None
    log: EventLog | None = None
    if task.want_events:
        log = EventLog()
        enable_events().subscribe(log)
    try:
        stmaker = cached_stmaker(task.artifact_path, task.fingerprint)
        if task.fault_specs:
            # A fresh injector per shard: deterministic per-shard seeding,
            # no cross-process counter to reconcile.
            stmaker = stmaker.with_config(stmaker.config)
            stmaker.fault_injector = FaultInjector(
                task.fault_specs, seed=task.fault_seed
            )
        return dataclasses.replace(
            run_shard(stmaker, task),
            metrics=None if registry is None else registry.snapshot(),
            spans=() if collector is None else tuple(collector.spans()),
            events=() if log is None else tuple(log),
        )
    finally:
        _reset_inherited_obs()


def mp_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context serving should launch workers with."""
    method = os.environ.get("REPRO_MP_START_METHOD")
    if not method:
        if sys.platform == "win32":  # pragma: no cover - not our CI
            method = "spawn"
        elif threading.active_count() > 1:
            method = "forkserver"
        else:
            method = "fork"
    return multiprocessing.get_context(method)
