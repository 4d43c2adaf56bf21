"""Live ops surface: scrape a *running* pipeline over HTTP.

Everything else in :mod:`repro.obs` reaches disk after the run ends; a
long-lived serving process needs its telemetry **while it runs**.
:func:`start_ops_server` puts a stdlib :class:`ThreadingHTTPServer` on a
background daemon thread exposing:

=============== =====================================================
``GET /metrics``  live Prometheus text exposition of the active
                  registry (what a Prometheus scrape job points at)
``GET /healthz``  liveness — 200 as long as the process serves
``GET /readyz``   readiness — 503 until the pipeline is warm
                  (:func:`mark_ready` / ``OpsServer.set_ready``)
``GET /status``   a JSON :class:`~repro.obs.report.RunReport` snapshot
                  of the run so far, plus uptime/readiness
``GET /events``   the recent event tail (``?n=`` limits the count) of
                  the flight recorder passed in
=============== =====================================================

Zero dependencies, loopback by default, one thread per in-flight request
(scrapes are cheap snapshots, never blocking the pipeline).  The CLI wires
it as ``--ops-port`` on every subcommand and as the standalone
``stmaker ops-serve`` loop; see ``docs/OBSERVABILITY.md`` for curl
examples.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.obs.export import render_prometheus
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import metrics
from repro.obs.report import build_run_report
from repro.obs.slo import SLOEngine
from repro.obs.trace import get_collector

logger = logging.getLogger("repro.obs.server")

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _OpsHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows its owning :class:`OpsServer`."""

    daemon_threads = True
    # Ops ports restart with the process; do not linger in TIME_WAIT.
    allow_reuse_address = True
    ops: "OpsServer"


class _OpsHandler(BaseHTTPRequestHandler):
    server: _OpsHTTPServer

    # BaseHTTPRequestHandler logs to stderr by default; route it through
    # the repro logger so -v controls it like everything else.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("ops %s - %s", self.address_string(), format % args)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict[str, object]) -> None:
        body = json.dumps(payload, indent=2, default=str).encode("utf-8")
        self._send(status, body, "application/json; charset=utf-8")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        ops = self.server.ops
        url = urlparse(self.path)
        try:
            if url.path == "/metrics":
                text = render_prometheus(metrics())
                self._send(200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
            elif url.path == "/healthz":
                self._send_json(200, {"status": "ok", "uptime_s": ops.uptime_s})
            elif url.path == "/readyz":
                ready = ops.is_ready()
                self._send_json(
                    200 if ready else 503,
                    {"ready": ready, "uptime_s": ops.uptime_s},
                )
            elif url.path == "/status":
                self._send_json(200, ops.status())
            elif url.path == "/events":
                query = parse_qs(url.query)
                n = None
                if "n" in query:
                    try:
                        n = int(query["n"][0])
                    except ValueError:
                        self._send_json(
                            400, {"error": f"invalid n={query['n'][0]!r}"}
                        )
                        return
                events = [event.to_dict() for event in ops.event_tail(n)]
                self._send_json(
                    200,
                    {
                        "count": len(events),
                        "events_seen": ops.events_seen,
                        "events": events,
                    },
                )
            else:
                self._send_json(404, {
                    "error": f"unknown path {url.path!r}",
                    "endpoints": ["/metrics", "/healthz", "/readyz", "/status", "/events"],
                })
        except Exception as exc:  # a broken scrape must not kill the server
            logger.exception("ops endpoint %s failed", url.path)
            try:
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            except OSError:
                pass  # client already went away


class OpsServer:
    """The background ops endpoint; use via :func:`start_ops_server`.

    Each request reads the *currently active* metrics registry and trace
    collector, so a server started before ``enable_metrics()`` still
    serves live data.  The two sinks it reads beyond those are passed in,
    already subscribed to the bus by whoever built them: *recorder* backs
    ``/events`` (an empty tail without one) and *slo* adds the ``slo``
    block to ``/status``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        recorder: FlightRecorder | None = None,
        slo: SLOEngine | None = None,
        ready: bool = False,
    ) -> None:
        self._recorder = recorder
        self._slo = slo
        self._ready = ready
        self._started = time.monotonic()
        self._httpd = _OpsHTTPServer((host, port), _OpsHandler)
        self._httpd.ops = self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-ops-{self._httpd.server_address[1]}",
            daemon=True,
        )
        self._stopped = False

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "OpsServer":
        self._started = time.monotonic()
        self._thread.start()
        logger.info("ops server listening on %s", self.url)
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        if self._stopped:
            return
        self._stopped = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
        logger.info("ops server on port %d stopped", self.port)

    def __enter__(self) -> "OpsServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- state ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    def set_ready(self, ready: bool = True) -> None:
        """Flip readiness (used once the model/pipeline is warm)."""
        self._ready = ready

    def is_ready(self) -> bool:
        return self._ready

    # -- endpoint backends --------------------------------------------------------

    def event_tail(self, n: int | None = None):
        return [] if self._recorder is None else self._recorder.tail(n)

    @property
    def events_seen(self) -> int:
        return 0 if self._recorder is None else self._recorder.events_seen

    def status(self) -> dict[str, object]:
        """The ``/status`` payload: a mid-run RunReport snapshot + liveness."""
        report = build_run_report(registry=metrics(), collector=get_collector())
        payload = report.to_dict()
        payload["ops"] = {
            "ready": self.is_ready(),
            "uptime_s": self.uptime_s,
            "events_seen": self.events_seen,
            "url": self.url,
        }
        if self._slo is not None:
            payload["slo"] = self._slo.snapshot()
        for name, provider in status_sections().items():
            try:
                payload[name] = provider()
            except Exception as exc:  # a broken provider must not 500 /status
                payload[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return payload


#: Keys :meth:`OpsServer.status` produces itself; providers cannot shadow
#: them (nor the RunReport's own top-level keys — first write wins there
#: is the provider's, so they are merely discouraged, but these two would
#: silently disappear).
_RESERVED_SECTIONS = frozenset({"ops", "slo"})

_status_sections: dict[str, object] = {}
_sections_lock = threading.Lock()


def register_status_section(name: str, provider) -> None:
    """Add a named block to every ``/status`` payload.

    *provider* is a zero-argument callable returning a JSON-serializable
    dict, invoked per scrape; exceptions are captured into the block
    instead of failing the endpoint.  How subsystems without their own
    HTTP surface (the request front-end's queue depths and cache stats)
    appear on the one ops page.  Re-registering a name replaces it.
    """
    if name in _RESERVED_SECTIONS:
        raise ValueError(
            f"status section {name!r} is reserved; pick another name"
        )
    with _sections_lock:
        _status_sections[name] = provider


def unregister_status_section(name: str) -> None:
    """Remove a registered section (no-op when absent)."""
    with _sections_lock:
        _status_sections.pop(name, None)


def status_sections() -> dict[str, object]:
    """A snapshot of the registered section providers."""
    with _sections_lock:
        return dict(_status_sections)


_active: OpsServer | None = None


def active_ops_server() -> OpsServer | None:
    """The running server started by :func:`start_ops_server`, if any."""
    return _active


def start_ops_server(
    port: int = 0,
    host: str = "127.0.0.1",
    *,
    recorder: FlightRecorder | None = None,
    slo: SLOEngine | None = None,
    ready: bool = False,
) -> OpsServer:
    """Start the ops endpoint on a background thread and return it.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.port``).  Only one process-wide server is tracked: starting a
    second stops the first.  *recorder*, *slo* and *ready* are passed to
    :class:`OpsServer`.
    """
    global _active
    if _active is not None:
        _active.stop()
    _active = OpsServer(
        host, port, recorder=recorder, slo=slo, ready=ready
    ).start()
    return _active


def stop_ops_server() -> None:
    """Stop the tracked server (no-op when none is running)."""
    global _active
    if _active is not None:
        _active.stop()
        _active = None


def mark_ready(ready: bool = True) -> None:
    """Flip the tracked server's readiness; no-op without a server.

    Lets deep pipeline code (the CLI after its model build, a future
    request router after cache warmup) signal readiness without threading
    the server handle through every layer.
    """
    if _active is not None:
        _active.set_ready(ready)
