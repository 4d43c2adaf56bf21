"""Typed, subscribable pipeline event stream.

Where spans answer *how long* and metrics answer *how many*, events answer
*what happened, in order*: degradations, retries, quarantines,
sanitizations, item ends, and batch progress flow through a process-wide
:class:`EventBus` that anyone can subscribe to — an in-memory
:class:`EventLog` for tests and reports, a :class:`JsonlEventSink` for
tailing a run from another terminal, or any plain callable.

Like tracing and metrics, the stream is **off by default** and the
disabled path costs one module-global ``None`` check per emission::

    from repro import obs

    with obs.JsonlEventSink("events.jsonl") as sink:
        bus = obs.enable_events()
        bus.subscribe(sink)
        stmaker.summarize_many(trips)
        obs.disable_events()

Event kinds are the closed :data:`EVENT_KINDS` vocabulary; emitting an
unknown kind raises immediately, so producers cannot silently fork the
schema consumers parse.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

#: The closed vocabulary of event kinds the pipeline emits.
EVENT_KINDS: frozenset[str] = frozenset({
    "degradation",    # a stage fallback absorbed an error
    "retry",          # summarize_many retrying a TransientError
    "quarantine",     # summarize_many gave up on an item
    "sanitization",   # input needed repair before the pipeline
    "batch_start",    # summarize_many began; payload has items
    "batch_end",      # ... finished; payload has ok/quarantined/duration_ms
    "progress",       # batch throughput heartbeat (items/s, ETA)
    "shard_start",    # a serving pool shard began; payload has shard_id/items
    "shard_end",      # ... finished; payload has ok/quarantined/duration_ms
    "shard_retry",    # supervisor handled a lost shard (retry/bisect/quarantine)
    "breaker_open",   # a circuit breaker tripped; payload has failure_rate
    "breaker_close",  # ... recovered after a successful half-open probe
    "load_shed",      # admission control rejected or degraded an intake
    "request_enqueued",  # the serving front-end queued an admitted request
    "request_done",   # ... settled it; payload has status/ok/duration_ms
    "item_end",       # one batch item settled, emitted by the batch runner in
                      # the caller's process (never relayed); payload has
                      # ok/duration_ms/trace_id + the latency breakdown
                      # (feeds the SLO engine)
    "slo_breach",     # an SLO objective left its target; payload names it
    "budget_exhausted",  # an objective's error budget is fully spent
})


@dataclass(frozen=True, slots=True)
class PipelineEvent:
    """One pipeline occurrence, ordered by ``seq`` within its bus."""

    #: Monotonic sequence number, unique per bus.
    seq: int
    #: ``time.perf_counter()`` at emission — same clock as span ``start_s``.
    ts_s: float
    #: One of :data:`EVENT_KINDS`.
    kind: str
    #: Pipeline stage name when the event is stage-scoped, else ``None``.
    stage: str | None = None
    #: Trajectory the event concerns, when known.
    trajectory_id: str | None = None
    #: Kind-specific details (duration, error text, counts, ...).
    payload: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "seq": self.seq,
            "ts_s": self.ts_s,
            "kind": self.kind,
            "stage": self.stage,
            "trajectory_id": self.trajectory_id,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "PipelineEvent":
        """Rebuild an event serialized by :meth:`to_dict` (artifact readers)."""
        return cls(
            seq=int(data["seq"]),  # type: ignore[arg-type]
            ts_s=float(data["ts_s"]),  # type: ignore[arg-type]
            kind=str(data["kind"]),
            stage=None if data.get("stage") is None else str(data["stage"]),
            trajectory_id=(
                None if data.get("trajectory_id") is None
                else str(data["trajectory_id"])
            ),
            payload=dict(data.get("payload") or {}),  # type: ignore[arg-type]
        )


Subscriber = Callable[[PipelineEvent], None]


class EventBus:
    """Thread-safe fan-out of :class:`PipelineEvent` s to subscribers.

    Subscriber exceptions are swallowed and counted in :attr:`errors` —
    a broken sink must never take down the pipeline it is watching.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscribers: list[Subscriber] = []
        self._seq = 0
        self.errors = 0

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Register *subscriber*; returns it so it can be unsubscribed."""
        with self._lock:
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def emit(
        self,
        kind: str,
        stage: str | None = None,
        trajectory_id: str | None = None,
        **payload: object,
    ) -> PipelineEvent:
        """Build, sequence, and deliver one event."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; expected one of {sorted(EVENT_KINDS)}"
            )
        with self._lock:
            self._seq += 1
            event = PipelineEvent(
                self._seq, time.perf_counter(), kind, stage, trajectory_id, payload
            )
            subscribers = list(self._subscribers)
        self._deliver(event, subscribers)
        return event

    def _deliver(self, event: PipelineEvent, subscribers: list[Subscriber]) -> None:
        """Fan *event* out, isolating each subscriber's failures.

        One raising subscriber must neither abort the emitting pipeline
        nor starve the subscribers after it; every failure is counted in
        :attr:`errors` and the ``obs.events.subscriber_errors`` counter so
        a silently broken sink still shows up on the ops surface.
        """
        for subscriber in subscribers:
            try:
                subscriber(event)
            except Exception:
                with self._lock:
                    self.errors += 1
                # Imported lazily: repro.obs.metrics must stay importable
                # without this module, and the counter is only needed on
                # the (rare) failure path.
                from repro.obs.metrics import metrics

                metrics().counter("obs.events.subscriber_errors").inc()

    def relay(
        self, events: Iterable[PipelineEvent], *, source: str | None = None
    ) -> list[PipelineEvent]:
        """Re-emit events recorded on another bus (the relay contract).

        The event half of the cross-process telemetry contract: a worker
        ships its :class:`PipelineEvent` s home (by pickle, inside its
        shard result) and the parent folds them onto its own bus here.
        Each event is **re-sequenced** on this bus (its original
        ``seq``/``ts_s`` come from another process' timeline and are
        preserved in the payload as ``relay_seq`` / ``relay_ts_s``);
        *source* tags the payload as ``relay_source`` so consumers can
        tell worker streams apart.  Unknown kinds raise, as
        in :meth:`emit` — relaying cannot fork the closed vocabulary.
        """
        out: list[PipelineEvent] = []
        for incoming in events:
            if incoming.kind not in EVENT_KINDS:
                raise ValueError(
                    f"unknown event kind {incoming.kind!r}; expected one of "
                    f"{sorted(EVENT_KINDS)}"
                )
            payload = dict(incoming.payload)
            payload["relay_seq"] = incoming.seq
            payload["relay_ts_s"] = incoming.ts_s
            if source is not None:
                payload["relay_source"] = source
            with self._lock:
                self._seq += 1
                event = PipelineEvent(
                    self._seq, time.perf_counter(), incoming.kind,
                    incoming.stage, incoming.trajectory_id, payload,
                )
                subscribers = list(self._subscribers)
            self._deliver(event, subscribers)
            out.append(event)
        return out


class EventLog:
    """An in-memory subscriber that keeps every event (tests, reports)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[PipelineEvent] = []

    def __call__(self, event: PipelineEvent) -> None:
        with self._lock:
            self._events.append(event)

    def events(self, kind: str | None = None) -> list[PipelineEvent]:
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e.kind == kind]
        return events

    def counts(self) -> dict[str, int]:
        """Events per kind, for quick assertions and report roll-ups."""
        out: dict[str, int] = {}
        for event in self.events():
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[PipelineEvent]:
        return iter(self.events())


class JsonlEventSink:
    """A subscriber that appends one JSON object per event to a file.

    Lines are flushed as they are written so ``tail -f events.jsonl``
    follows a live run.  Usable as a context manager; :meth:`close` is
    idempotent and events arriving after close are dropped silently.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._fh = open(path, "a", encoding="utf-8")
        self.written = 0

    def __call__(self, event: PipelineEvent) -> None:
        line = json.dumps(event.to_dict(), default=str)
        with self._lock:
            if self._fh.closed:
                return
            self._fh.write(line + "\n")
            self._fh.flush()
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "JsonlEventSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


_active: EventBus | None = None


def events() -> EventBus | None:
    """The active bus, or ``None`` while the event stream is disabled."""
    return _active


def enable_events(bus: EventBus | None = None) -> EventBus:
    """Install *bus* (or keep/create one) as the active event stream."""
    global _active
    if bus is not None:
        _active = bus
    elif _active is None:
        _active = EventBus()
    return _active


def disable_events() -> None:
    """Stop delivering events; emission reverts to the free no-op path."""
    global _active
    _active = None


def events_enabled() -> bool:
    return _active is not None


def emit_event(
    kind: str,
    stage: str | None = None,
    trajectory_id: str | None = None,
    **payload: object,
) -> None:
    """Emit onto the active bus; a no-op (one ``None`` test) when disabled."""
    bus = _active
    if bus is not None:
        bus.emit(kind, stage, trajectory_id, **payload)
