"""Zero-dependency tracing layer for the STMaker pipeline.

A *span* measures one named unit of work (a pipeline stage, an experiment
iteration).  Spans nest: entering a span pushes it onto a context-local
stack, so a span opened inside another records that parent and its depth.
Finished spans land in a thread-safe :class:`TraceCollector` that can be
dumped as JSON (``stmaker summarize --trace``) or aggregated into a
per-stage time breakdown (the benchmark harness).

A span always times its block: :attr:`Span.duration_ms` is the one
wall-clock reading of that work, and the pipeline's recorded durations
(stage latencies, item totals, shard and batch durations, Fig. 12
timings) are span durations.  Collecting spans is **off by default**; an
uncollected span skips the span stack and ids, so it costs a small
object and two ``perf_counter`` reads.  Enable collection explicitly::

    from repro import obs

    collector = obs.enable_tracing()
    stmaker.summarize(raw)
    print(collector.to_json())
    obs.disable_tracing()

Stage span names used by the pipeline instrumentation are listed in
``docs/OBSERVABILITY.md``: ``summarize`` > ``calibrate``, ``extract``,
``partition``, ``select``, ``realize``.

A context-local :class:`span_listener` hears every span that ends in its
block as ``fn(name, duration_s, ok)``, traced or not: it is how each
batch item's :class:`~repro.resilience.LatencyBreakdown` sums its span
subtree per name without tracing being enabled.

Request-scoped identity rides on top of the span machinery: a
:class:`TraceContext` names one request (an item of a batch) with a
globally-unique ``trace_id`` and flows across thread and process
boundaries, so every span recorded while the context is active — in
whatever process — carries the same ``trace_id`` and can be reassembled
into one per-request tree after :meth:`TraceCollector.add_batch` grafting.
See ``docs/OBSERVABILITY.md`` ("Trace context").
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

#: Paired wall/monotonic anchor taken at import: ``perf_counter`` spans
#: are mapped onto the unix timeline via ``_ANCHOR_UNIX + (t - _ANCHOR_PERF)``.
#: One subtraction per span keeps the hot path free of ``time.time()``.
_ANCHOR_UNIX = time.time()
_ANCHOR_PERF = time.perf_counter()


def wall_clock_of(perf_s: float) -> float:
    """Map a ``time.perf_counter()`` reading onto the unix timeline."""
    return _ANCHOR_UNIX + (perf_s - _ANCHOR_PERF)


@dataclass(slots=True)
class SpanRecord:
    """One finished span, as stored by the collector."""

    span_id: int
    parent_id: int | None
    name: str
    #: ``time.perf_counter()`` at entry — a relative timeline, comparable
    #: only across spans of the same process.
    start_s: float
    duration_ms: float
    status: str  # "ok" | "error"
    error: str | None
    depth: int
    tags: dict[str, object] = field(default_factory=dict)
    #: ``threading.get_ident()`` of the recording thread — lets exporters
    #: keep concurrent spans on separate tracks instead of false-nesting.
    thread_id: int = 0
    #: Request identity: the :class:`TraceContext` trace id active when the
    #: span ran, or ``None`` for infrastructure spans outside any request.
    #: Survives ``add_batch`` id remapping untouched.
    trace_id: str | None = None
    #: Wall-clock entry time (unix seconds); ``0.0`` on records written
    #: before the anchor existed.  Unlike :attr:`start_s` this timeline is
    #: comparable across processes.
    start_unix_s: float = 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_ms": self.duration_ms,
            "status": self.status,
            "error": self.error,
            "depth": self.depth,
            "tags": dict(self.tags),
            "thread_id": self.thread_id,
            "trace_id": self.trace_id,
            "start_unix_s": self.start_unix_s,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "SpanRecord":
        """Rebuild a record serialized by :meth:`to_dict` (artifact readers)."""
        return cls(
            span_id=int(data["span_id"]),  # type: ignore[arg-type]
            parent_id=(
                None if data.get("parent_id") is None
                else int(data["parent_id"])  # type: ignore[arg-type]
            ),
            name=str(data["name"]),
            start_s=float(data["start_s"]),  # type: ignore[arg-type]
            duration_ms=float(data["duration_ms"]),  # type: ignore[arg-type]
            status=str(data["status"]),
            error=None if data.get("error") is None else str(data["error"]),
            depth=int(data.get("depth", 0)),  # type: ignore[arg-type]
            tags=dict(data.get("tags") or {}),  # type: ignore[arg-type]
            thread_id=int(data.get("thread_id", 0)),  # type: ignore[arg-type]
            trace_id=(
                None if data.get("trace_id") is None else str(data["trace_id"])
            ),
            start_unix_s=float(data.get("start_unix_s", 0.0)),  # type: ignore[arg-type]
        )


#: Process-unique prefix for trace ids: pid plus 32 random bits, so ids
#: minted concurrently in a worker pool never collide across processes.
_TRACE_PREFIX = f"{os.getpid():x}-{os.urandom(4).hex()}"
_trace_counter = itertools.count(1)


def new_trace_id() -> str:
    """A globally-unique, cheap-to-mint trace id (no uuid4 per item)."""
    return f"{_TRACE_PREFIX}-{next(_trace_counter):x}"


@dataclass(frozen=True, slots=True)
class TraceContext:
    """Identity of one request (one batch item) as it crosses boundaries.

    Created at admission, shipped through :class:`~repro.serving.ShardTask`
    to whatever thread or process executes the item, and activated with
    :func:`use_trace` around the item's work.  While active, every span
    adopts :attr:`trace_id`.

    :attr:`anchor_unix_s` is the wall-clock instant the request was
    admitted — queue wait is measured against it on whichever machine the
    item eventually runs.
    """

    trace_id: str | None
    anchor_unix_s: float = 0.0


#: The active request context.  Like the span stack, a ``ContextVar`` so a
#: fresh thread or task starts with no inherited request identity.
_trace_ctx: ContextVar["TraceContext | None"] = ContextVar(
    "repro_obs_trace_ctx", default=None
)


def start_trace(anchor_unix_s: float | None = None) -> TraceContext:
    """Mint a fresh request context anchored at *anchor_unix_s* (now)."""
    return TraceContext(
        trace_id=new_trace_id(),
        anchor_unix_s=time.time() if anchor_unix_s is None else anchor_unix_s,
    )


def current_trace() -> TraceContext | None:
    """The request context active in this thread/task, if any."""
    return _trace_ctx.get()


def clear_span_context() -> None:
    """Drop this thread's span stack and request context.

    A ``fork``-started worker process inherits the forking thread's
    ``ContextVar`` state — including a live span stack whose ids belong
    to the *parent's* collector.  Left in place, the worker's first span
    would claim one of those ids as its parent, and the parent-side graft
    would remap it onto an unrelated (possibly its own) span.  An
    inherited :class:`span_listener` goes too: it would add the worker's
    span times to a dead copy of a parent object.  Workers call this
    alongside dropping the inherited sinks.
    """
    _stack.set(())
    _trace_ctx.set(None)
    _listener.set(None)


class use_trace:
    """Activate *ctx* for the block: ``with use_trace(ctx): ...``.

    ``use_trace(None)`` is a no-op, so call sites need no branching.  A
    tiny class rather than ``@contextmanager`` — this runs once per item
    on the always-on path.
    """

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: TraceContext | None) -> None:
        self._ctx = ctx

    def __enter__(self) -> TraceContext | None:
        self._token = _trace_ctx.set(self._ctx) if self._ctx is not None else None
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _trace_ctx.reset(self._token)
        return False


@dataclass(frozen=True, slots=True)
class StageTotal:
    """Aggregate of every span sharing one name."""

    name: str
    count: int
    total_ms: float

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0


class TraceCollector:
    """Thread-safe sink for finished spans.

    ``max_spans`` bounds memory on long runs: once full, new spans are
    dropped (and counted in :attr:`dropped`) rather than evicting history,
    so the recorded prefix stays a faithful trace.
    """

    def __init__(self, max_spans: int | None = None) -> None:
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        self._next_id = 1
        self.max_spans = max_spans
        self.dropped = 0

    def next_span_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def add(self, record: SpanRecord) -> None:
        with self._lock:
            if self.max_spans is not None and len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(record)

    def spans(self) -> list[SpanRecord]:
        """A snapshot copy of the finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def add_batch(
        self, records: Iterable[SpanRecord], *, graft_parent_id: int | None = None
    ) -> int:
        """Merge a batch of spans from another collector into this one.

        The span half of the cross-process telemetry contract: a worker
        ships its :class:`SpanRecord` s home (by pickle, inside its shard
        result) and the parent folds them in here.  Span ids are
        **reassigned** from this collector's sequence so batches from many
        workers never collide; parent links *within* the batch are
        remapped to the new ids, while parents outside the batch (a
        worker-side root that was not shipped) become ``None``.  ``trace_id`` s pass through untouched —
        request identity is process-independent by construction.

        *graft_parent_id* joins the shipped fragment to a live span of
        **this** collector's tree: a batch record with no parent and no
        ``trace_id`` (the worker's infrastructure root, e.g. its ``shard``
        span), or with a parent that was not shipped, adopts it instead of
        floating as a second root.  Trace-rooted records keep ``None``
        parents — their root-ness is what makes the per-request tree
        well-formed.  Returns how many spans were added; the ``max_spans``
        cap applies and drops are counted as usual.
        """
        batch = list(records)
        id_map: dict[int, int] = {}
        added = 0
        for record in batch:
            id_map[record.span_id] = self.next_span_id()
        for record in batch:
            if record.parent_id is not None:
                parent_id = id_map.get(record.parent_id, graft_parent_id)
            elif record.trace_id is None:
                parent_id = graft_parent_id
            else:
                parent_id = None
            remapped = replace(
                record, span_id=id_map[record.span_id], parent_id=parent_id,
                tags=dict(record.tags),
            )
            with self._lock:
                if self.max_spans is not None and len(self._spans) >= self.max_spans:
                    self.dropped += 1
                    continue
                self._spans.append(remapped)
                added += 1
        return added

    def by_name(self, name: str) -> list[SpanRecord]:
        return [s for s in self.spans() if s.name == name]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- reporting ------------------------------------------------------------

    def stage_totals(self) -> list[StageTotal]:
        """Per-name aggregates (count, total ms), sorted by total descending."""
        counts: dict[str, int] = {}
        totals: dict[str, float] = {}
        for record in self.spans():
            counts[record.name] = counts.get(record.name, 0) + 1
            totals[record.name] = totals.get(record.name, 0.0) + record.duration_ms
        out = [StageTotal(name, counts[name], totals[name]) for name in counts]
        out.sort(key=lambda t: -t.total_ms)
        return out

    def to_dicts(self) -> list[dict[str, object]]:
        return [record.to_dict() for record in self.spans()]

    def to_json(self, indent: int | None = 2) -> str:
        payload = {"spans": self.to_dicts(), "dropped": self.dropped}
        return json.dumps(payload, indent=indent, default=str)

    def export(self, path) -> None:
        """Write the trace dump to *path* as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


#: Context-local stack of active spans.  A ``ContextVar`` is both
#: thread-safe and async-safe: a new thread (or task) starts with the
#: default empty stack instead of inheriting a parent mid-span.
_stack: ContextVar[tuple["Span", ...]] = ContextVar("repro_obs_span_stack", default=())

_collector: TraceCollector | None = None

#: A span-end listener: ``fn(name, duration_s, ok)``.
SpanListener = Callable[[str, float, bool], None]

_listener: ContextVar[SpanListener | None] = ContextVar(
    "repro_obs_span_listener", default=None
)


class span_listener:
    """Install *fn* as the context-local span listener for the block.

    While active, every span that ends in this thread/task calls
    ``fn(name, duration_s, ok)`` — even with tracing disabled.
    ``span_listener(None)`` is a no-op.
    """

    __slots__ = ("_fn", "_token")

    def __init__(self, fn: SpanListener | None) -> None:
        self._fn = fn

    def __enter__(self) -> SpanListener | None:
        self._token = _listener.set(self._fn) if self._fn is not None else None
        return self._fn

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _listener.reset(self._token)
        return False


class Span:
    """A timed block; use via :func:`span`, not directly.

    It always sets :attr:`duration_ms` on exit.  With a collector it
    records a :class:`SpanRecord`; with a listener it reports
    ``(name, duration_s, ok)``.  Without a collector it stays off the
    span stack: it has no id a child could link to.  :attr:`start_s` is
    the ``time.perf_counter()`` reading at entry.
    """

    __slots__ = (
        "name", "tags", "span_id", "parent_id", "depth", "trace_id",
        "duration_ms", "status", "error",
        "start_s", "_collector", "_listener", "_token",
    )

    def __init__(
        self,
        name: str,
        tags: dict[str, object],
        collector: TraceCollector | None,
        listener: SpanListener | None,
    ) -> None:
        self.name = name
        self.tags = tags
        self._collector = collector
        self._listener = listener
        self.span_id = collector.next_span_id() if collector is not None else 0
        self.parent_id: int | None = None
        self.depth = 0
        self.trace_id: str | None = None
        self.duration_ms = 0.0
        self.status = "ok"
        self.error: str | None = None

    def set_tag(self, key: str, value: object) -> "Span":
        self.tags[key] = value
        return self

    def elapsed_s(self) -> float:
        """Seconds since the span opened, on the span clock; for open spans."""
        return time.perf_counter() - self.start_s

    def __enter__(self) -> "Span":
        if self._collector is not None:
            stack = _stack.get()
            if stack:
                parent = stack[-1]
                self.parent_id = parent.span_id
                self.depth = parent.depth + 1
                self.trace_id = parent.trace_id
            if self.trace_id is None:
                # Entering the traced region: the first span under an active
                # request context adopts its trace id (children inherit via
                # the stack above).
                ctx = _trace_ctx.get()
                if ctx is not None:
                    self.trace_id = ctx.trace_id
            self._token = _stack.set(stack + (self,))
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration_s = time.perf_counter() - self.start_s
        self.duration_ms = duration_s * 1000.0
        if exc_type is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        if self._listener is not None:
            try:
                self._listener(self.name, duration_s, exc_type is None)
            except Exception:
                pass  # a broken listener must not take down the span's work
        if self._collector is not None:
            _stack.reset(self._token)
            self._collector.add(
                SpanRecord(
                    self.span_id, self.parent_id, self.name, self.start_s,
                    self.duration_ms, self.status, self.error, self.depth,
                    self.tags, threading.get_ident(), self.trace_id,
                    wall_clock_of(self.start_s),
                )
            )
        return False  # never swallow the exception


def span(name: str, **tags: object) -> Span:
    """A context manager measuring one named unit of work.

    The span always times the block (read :attr:`Span.duration_ms` after
    it); it records wall time, outcome (``ok``/``error``), nesting and
    *tags* when tracing is enabled, and reports to the active
    :class:`span_listener`, if any.
    """
    return Span(name, tags, _collector, _listener.get())


def enable_tracing(
    collector: TraceCollector | None = None, max_spans: int | None = None
) -> TraceCollector:
    """Install *collector* (or a fresh one) as the active trace sink."""
    global _collector
    # Explicit None test: an *empty* collector is falsy (it has __len__),
    # and `collector or ...` would silently swap it for a fresh one.
    if collector is None:
        collector = TraceCollector(max_spans=max_spans)
    _collector = collector
    return _collector


def disable_tracing() -> None:
    """Stop collecting spans; ``span()`` then only times its block."""
    global _collector
    _collector = None


def tracing_enabled() -> bool:
    return _collector is not None


def get_collector() -> TraceCollector | None:
    """The active collector, or ``None`` while tracing is disabled."""
    return _collector
