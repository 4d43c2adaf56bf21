"""Cross-process telemetry aggregation: the worker-boundary contract.

A worker that cannot share memory with its parent (a
``ProcessPoolExecutor`` worker, a remote shard) still has to deliver its
telemetry.  The contract is one serializable bundle per worker:

* **metrics** — the worker records into a *fresh*
  :class:`~repro.obs.metrics.MetricsRegistry` (its process-wide registry,
  installed before its item loop); its ``snapshot()`` is a
  delta from zero that the parent folds in with
  :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` — an
  associative, commutative merge, so deltas may arrive in any order;
* **spans** — the worker's :class:`~repro.obs.trace.TraceCollector`
  contents, re-identified on arrival by
  :meth:`~repro.obs.trace.TraceCollector.add_batch`;
* **events** — the worker's :class:`~repro.obs.events.EventLog` contents,
  re-sequenced onto the parent bus by
  :meth:`~repro.obs.events.EventBus.relay`.

:class:`TelemetrySnapshot` carries all three across the boundary as plain
dicts, by pickle; :func:`capture_telemetry` builds one on the worker side
and :func:`apply_telemetry` folds it in on the parent side.
The process executor (:mod:`repro.serving.executor`) is the one
boundary that runs this contract; serial batches record straight into
the live sinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.events import EventBus, EventLog, PipelineEvent
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.trace import TraceCollector


@dataclass(slots=True)
class TelemetrySnapshot:
    """One worker's telemetry delta, as plain serializable dicts."""

    #: Identifies the producing worker (``"shard-3"``, ``"pid-4711"``).
    source: str | None = None
    metrics: MetricsSnapshot = field(default_factory=dict)
    spans: list[dict[str, object]] = field(default_factory=list)
    events: list[dict[str, object]] = field(default_factory=list)


def capture_telemetry(
    *,
    registry: MetricsRegistry | None = None,
    collector: TraceCollector | None = None,
    events: EventLog | list[PipelineEvent] | None = None,
    source: str | None = None,
) -> TelemetrySnapshot:
    """Bundle a worker's sinks into one shippable snapshot.

    Every input is optional — a worker that only records metrics ships a
    metrics-only bundle.  The sinks are not cleared; the caller owns their
    lifecycle (fresh sinks per delta window is the intended shape).
    """
    event_list = list(events) if events is not None else []
    return TelemetrySnapshot(
        source=source,
        metrics=registry.snapshot() if registry is not None else {},
        spans=collector.to_dicts() if collector is not None else [],
        events=[event.to_dict() for event in event_list],
    )


def apply_telemetry(
    snapshot: TelemetrySnapshot,
    *,
    registry: MetricsRegistry | None = None,
    collector: TraceCollector | None = None,
    bus: EventBus | None = None,
    graft_parent_id: int | None = None,
) -> None:
    """Fold a worker's snapshot into the parent-side sinks.

    Only the sinks that are passed receive their half of the bundle, so a
    parent that does not trace simply drops the span batch.
    *graft_parent_id* names a live parent-side span (the batch's
    ``summarize_many`` span) that the worker's infrastructure root spans
    attach to instead of floating — see
    :meth:`~repro.obs.trace.TraceCollector.add_batch`.
    """
    if registry is not None and snapshot.metrics:
        registry.merge_snapshot(snapshot.metrics)
    if collector is not None and snapshot.spans:
        collector.add_batch(snapshot.spans, graft_parent_id=graft_parent_id)
    if bus is not None and snapshot.events:
        bus.relay(snapshot.events, source=snapshot.source)
