"""The request front-end: router, queue consumer, and request handles.

:class:`SummarizationServer` is the long-lived in-process front door:
callers :meth:`~SummarizationServer.submit` batches and get back a
:class:`RequestHandle` (a small future); consumer threads drain the
bounded multi-tenant :class:`~repro.server.queue.RequestQueue` in
weighted round-robin order and serve each request through the
**existing** :meth:`~repro.core.STMaker.summarize_many` path — the one
batch runner, :func:`repro.serving.run_sharded`, serial at the default
``workers=1`` — against a cached view of the model
(:func:`~repro.server.cache.cached_view`).

Nothing is reinvented at the edges:

* **admission** — every submit passes through a
  :class:`~repro.serving.AdmissionController` (global + per-tenant item
  budgets, ``shed="reject"``/``"degrade"``, priority bypass); the ticket
  is held until the request settles;
* **breaker** — ``ServerConfig(breaker=True)`` routes each sharded
  process request through the process-wide ``serving.process`` circuit
  breaker, exactly as a direct ``summarize_many(breaker=True)`` caller
  would;
* **deadlines** — a request's budget counts from enqueue; whatever is
  left when a consumer picks it up becomes ``summarize_many``'s
  ``deadline_s``, so an expired request resolves as typed
  ``DeadlineExceeded`` quarantine entries (a shed, never a hang);
* **observability** — ``request_enqueued`` / ``request_done`` events,
  ``server.queue.depth`` gauges, ``server.requests.*`` counters, a
  ``"server"`` block on the ops ``/status`` page
  (:func:`repro.obs.register_status_section`), and the SLO feed for free
  (``summarize_many`` emits the ``item_end`` events the engine consumes).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.exceptions import OverloadError, ServerClosedError
from repro.obs import (
    emit_event,
    mark_ready,
    metrics,
    register_status_section,
    unregister_status_section,
)
from repro.resilience import BatchResult, Deadline, RetryPolicy
from repro.server.cache import HotQueryCaches, cached_view, model_fingerprint
from repro.server.config import DEFAULT_TENANT, ServerConfig
from repro.server.queue import RequestQueue
from repro.serving import AdmissionTicket, ItemOptions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.summarizer import STMaker
    from repro.trajectory import RawTrajectory, SanitizerConfig

#: Sentinel: "caller did not pass a deadline, use the config default".
_UNSET = object()


class RequestHandle:
    """The caller's side of one submitted request (a minimal future).

    ``result()`` blocks until the consumer settles the request, then
    returns its :class:`~repro.resilience.BatchResult` or re-raises the
    server-side error (strict-mode failures, abandonment on a
    non-draining stop).  Exactly one of result/error is ever set — the
    soak suite asserts no response is lost or delivered twice.
    """

    __slots__ = (
        "request_id", "tenant", "n_items",
        "queue_wait_s", "service_s",
        "_event", "_result", "_error",
    )

    def __init__(self, request_id: str, tenant: str, n_items: int) -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.n_items = n_items
        #: Seconds between enqueue and consumer pickup (set at pickup).
        self.queue_wait_s: float | None = None
        #: Seconds the consumer spent serving (set on completion).
        self.service_s: float | None = None
        self._event = threading.Event()
        self._result: BatchResult | None = None
        self._error: BaseException | None = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._event.wait(timeout)

    def result(self, timeout: float | None = None) -> BatchResult:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not done within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not done within {timeout}s"
            )
        return self._error

    def _resolve(self, result: BatchResult) -> None:
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


@dataclass(slots=True)
class _QueuedRequest:
    """Everything a consumer needs to serve one request (*deadline* runs
    from enqueue)."""

    handle: RequestHandle
    items: list
    options: ItemOptions
    deadline: Deadline
    ticket: AdmissionTicket
    enqueued_s: float = field(default_factory=time.perf_counter)


class SummarizationServer:
    """A long-lived serving front-end over one trained model.

    Lifecycle: build → :meth:`start` → :meth:`submit` any number of times
    (from any thread) → :meth:`stop`.  Usable as a context manager.  See
    the module docstring and ``docs/SERVING.md`` ("Request front-end")
    for the queue/fairness/deadline semantics.
    """

    def __init__(
        self, stmaker: "STMaker", config: ServerConfig | None = None
    ) -> None:
        self.config = config or ServerConfig()
        self._model = stmaker
        self.caches = HotQueryCaches.for_model(stmaker)
        self._view = cached_view(stmaker, self.caches)
        self._queue: RequestQueue[_QueuedRequest] = RequestQueue(
            self.config.max_queue_requests,
            weights=self.config.tenant_weights,
        )
        self.admission = self.config.build_admission()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._running = False
        self._stopped = False
        self._gauge_tenants: set[str] = set()
        self._ids = itertools.count(1)
        self._submitted = 0
        self._served = 0
        self._failed = 0
        self._shed = 0
        self._in_flight = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "SummarizationServer":
        """Start the consumer threads and register the ops surface.

        One-shot: a server that has been :meth:`stop`-ped cannot be
        restarted (its request queue is closed for good) — build a fresh
        :class:`SummarizationServer` instead.
        """
        with self._lock:
            if self._running:
                return self
            if self._stopped:
                raise ServerClosedError(
                    "server cannot be restarted after stop(); build a new "
                    "SummarizationServer"
                )
            self._running = True
        self._threads = [
            threading.Thread(
                target=self._consume,
                name=f"repro-server-consumer-{i}",
                daemon=True,
            )
            for i in range(self.config.consumers)
        ]
        for thread in self._threads:
            thread.start()
        register_status_section("server", self.status_section)
        metrics().gauge("server.up").set(1.0)
        mark_ready(True)
        return self

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work; finish (or abandon) the backlog and join.

        ``drain=True`` serves every already-queued request before the
        consumers exit.  ``drain=False`` fails the backlog immediately:
        each abandoned handle raises a typed
        :class:`~repro.exceptions.ServerClosedError` — never a hang —
        and its admission ticket is released.
        """
        with self._lock:
            if not self._running:
                return
            self._running = False
            self._stopped = True
        if not drain:
            for _tenant, entry in self._queue.drain():
                entry.ticket.release()
                entry.handle._fail(ServerClosedError(
                    f"server stopped before request "
                    f"{entry.handle.request_id} was served"
                ))
                with self._lock:
                    self._failed += 1
        self._queue.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        unregister_status_section("server")
        metrics().gauge("server.up").set(0.0)
        mark_ready(False)
        self._publish_queue_gauges()

    def __enter__(self) -> "SummarizationServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    @property
    def running(self) -> bool:
        with self._lock:
            return self._running

    # -- intake ------------------------------------------------------------------

    def submit(
        self,
        items: Iterable["RawTrajectory"],
        *,
        tenant: str | None = None,
        priority: int = 0,
        k: int | None = None,
        deadline_s: float | None | object = _UNSET,
        sanitize: bool = True,
        sanitizer_config: "SanitizerConfig | None" = None,
        strict: bool = False,
        retry: RetryPolicy | None = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> RequestHandle:
        """Admit and enqueue one request; returns its handle immediately.

        Raises :class:`~repro.exceptions.OverloadError` when admission
        sheds it (item budgets) or the request queue is full, and
        :class:`~repro.exceptions.ServerClosedError` when the server is
        not running.  The serving keyword arguments mirror
        :meth:`~repro.core.STMaker.summarize_many` — same names, same
        semantics — which is what the differential suite holds the
        server to.
        """
        if not self.running:
            raise ServerClosedError(
                "server is not running; call start() (or use it as a "
                "context manager) before submit()"
            )
        items = list(items)
        tenant = tenant or DEFAULT_TENANT
        effective_deadline = (
            self.config.tenant_deadline_s.get(
                tenant, self.config.default_deadline_s
            )
            if deadline_s is _UNSET
            else deadline_s
        )
        # Validate the deadline (Deadline raises ConfigError on a negative
        # budget) *before* taking an admission ticket — failing after
        # admit() would leak the ticket and permanently eat queued-item
        # budget.
        deadline = Deadline(effective_deadline)
        try:
            ticket = self.admission.admit(
                len(items), tenant=tenant, priority=priority
            )
        except OverloadError:
            with self._lock:
                self._shed += 1
            metrics().counter("server.requests.shed").inc()
            raise
        handle = RequestHandle(
            f"req-{next(self._ids):06d}", tenant, len(items)
        )
        entry = _QueuedRequest(
            handle=handle, items=items,
            options=ItemOptions(
                k=k, sanitize=sanitize, sanitizer_config=sanitizer_config,
                strict=strict, retry=retry or RetryPolicy(),
                deadline_s=effective_deadline, sleeper=sleeper,
            ),
            deadline=deadline,
            ticket=ticket,
        )
        try:
            depth = self._queue.put(tenant, entry)
        except (OverloadError, ServerClosedError) as exc:
            ticket.release()
            if isinstance(exc, OverloadError):
                with self._lock:
                    self._shed += 1
                metrics().counter("server.requests.shed").inc()
                emit_event(
                    "load_shed", action="queue_full", tenant=tenant,
                    items=len(items), reason=str(exc),
                )
            raise
        with self._lock:
            self._submitted += 1
        metrics().counter("server.requests.submitted").inc()
        self._publish_queue_gauges()
        emit_event(
            "request_enqueued",
            request_id=handle.request_id, tenant=tenant,
            items=len(items), queue_depth=depth,
            deadline_s=effective_deadline, priority=priority,
        )
        return handle

    # -- consumer loop -----------------------------------------------------------

    def _consume(self) -> None:
        while True:
            got = self._queue.take(timeout=0.1)
            if got is None:
                if self._queue.closed:
                    return
                continue
            tenant, entry = got
            self._serve(tenant, entry)

    def _serve(self, tenant: str, entry: _QueuedRequest) -> None:
        handle = entry.handle
        started = time.perf_counter()
        handle.queue_wait_s = started - entry.enqueued_s
        with self._lock:
            self._in_flight += 1
        self._publish_queue_gauges()
        status = "ok"
        result: BatchResult | None = None
        error: Exception | None = None
        try:
            # Chaos armed on the underlying model after this server was
            # built must still fire: sync the injector reference (shared
            # object — fire counters stay global, like with_config).
            self._view.fault_injector = self._model.fault_injector
            options = entry.options
            k_override = entry.ticket.decision.k_override
            result = self._view.summarize_many(
                entry.items,
                k=options.k if k_override is None else k_override,
                sanitize=options.sanitize,
                sanitizer_config=options.sanitizer_config,
                strict=options.strict, retry=options.retry,
                deadline_s=(
                    None if options.deadline_s is None
                    else entry.deadline.remaining_s()
                ),
                sleeper=options.sleeper,
                workers=self.config.workers,
                shard_size=self.config.shard_size,
                executor=self.config.executor,
                breaker=self.config.breaker or None,
            )
        except Exception as exc:  # strict mode, config errors, breaker, ...
            status = type(exc).__name__
            error = exc
            with self._lock:
                self._failed += 1
            metrics().counter("server.requests.failed").inc()
        else:
            with self._lock:
                self._served += 1
            metrics().counter("server.requests.served").inc()
        finally:
            try:
                entry.ticket.release()
                with self._lock:
                    self._in_flight -= 1
                handle.service_s = time.perf_counter() - started
                m = metrics()
                m.histogram("server.request.latency_ms").observe(
                    (handle.queue_wait_s + handle.service_s) * 1000.0
                )
                m.histogram("server.request.queue_wait_ms").observe(
                    handle.queue_wait_s * 1000.0
                )
                emit_event(
                    "request_done",
                    request_id=handle.request_id, tenant=tenant,
                    items=handle.n_items, status=status,
                    ok=result.ok_count if result is not None else 0,
                    quarantined=(
                        result.quarantined_count if result is not None else 0
                    ),
                    duration_ms=handle.service_s * 1000.0,
                    queue_wait_ms=handle.queue_wait_s * 1000.0,
                )
                self._publish_queue_gauges()
            finally:
                # Settle the handle last: a caller it wakes must already
                # see the ledger, the released ticket and ``request_done``.
                if error is not None:
                    handle._fail(error)
                elif result is not None:
                    handle._resolve(result)

    # -- model swap ---------------------------------------------------------------

    def swap_model(self, stmaker: "STMaker") -> bool:
        """Serve subsequent requests from *stmaker*.

        Returns whether the artifact fingerprint changed; when it did,
        every hot-cache entry is invalidated (and the fingerprint in
        every future cache key changes with it).  In-flight requests
        finish against the view they started with.
        """
        fingerprint = model_fingerprint(stmaker)
        changed = self.caches.invalidate(fingerprint)
        self._model = stmaker
        self._view = cached_view(stmaker, self.caches)
        return changed

    # -- introspection -------------------------------------------------------------

    def _publish_queue_gauges(self) -> None:
        m = metrics()
        m.gauge("server.queue.depth").set(float(self._queue.size))
        depths = self._queue.depths()
        with self._lock:
            # Drained tenant lanes are dropped from the queue entirely
            # (bounded tenant cardinality); zero their gauges once so
            # they don't freeze at the last published depth.
            stale = self._gauge_tenants - depths.keys()
            self._gauge_tenants = set(depths)
        for tenant in stale:
            m.gauge(f"server.queue.depth.{tenant}").set(0.0)
        for tenant, depth in depths.items():
            m.gauge(f"server.queue.depth.{tenant}").set(float(depth))

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "submitted": self._submitted,
                "served": self._served,
                "failed": self._failed,
                "shed": self._shed,
                "in_flight": self._in_flight,
            }

    def status_section(self) -> dict[str, object]:
        """The ``"server"`` block of the ops ``/status`` payload."""
        return {
            "running": self.running,
            "consumers": self.config.consumers,
            "executor": self.config.executor,
            "workers": self.config.workers,
            "queue": {
                "depth": self._queue.size,
                "capacity": self._queue.capacity,
                "by_tenant": self._queue.depths(),
            },
            "requests": self.stats(),
            "admission": {
                "queued_items": self.admission.queued_items,
                "shed": self.config.shed,
            },
            "caches": self.caches.stats(),
        }
