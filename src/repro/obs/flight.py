"""Black-box flight recorder: the last N events, dumped on failure.

Metrics tell you *that* something quarantined; the flight recorder tells
you *what led up to it*.  A :class:`FlightRecorder` is an
:class:`~repro.obs.events.EventBus` subscriber holding a bounded ring of
the most recent :class:`~repro.obs.events.PipelineEvent` s.  Whenever a
trigger event arrives — by default a ``quarantine`` or a ``degradation``,
the two points where the pipeline absorbed a failure — it freezes the ring
into a *capture*: the trigger, the surrounding event tail, and (when
tracing is live) the most recent finished spans.  Captures are kept
in memory (bounded) and, when a ``dump_dir`` is configured, written as one
JSONL file each, so a production failure is debuggable after the process
moved on.

Designed to be **always on**: the per-event cost is one lock + one deque
append, and the expensive part (serializing a capture) only runs on the
failure path.  ``BENCH_obs.json`` records an overhead under 5 % for
running with the recorder subscribed, but that was measured at
15.5 ms per item, before map matching halved the item cost, and has not
been re-measured since; the fixed per-event cost is now a larger share.

Like every sink, the recorder attaches to the bus with a plain
``subscribe``::

    from repro import obs

    recorder = obs.FlightRecorder(dump_dir="flight/")
    obs.enable_events().subscribe(recorder)
    stmaker.summarize_many(trips)          # failures dump themselves
    print(recorder.captures[-1]["trigger"])
    obs.events().unsubscribe(recorder)
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from collections import deque

from repro.obs.events import PipelineEvent
from repro.obs.trace import get_collector

logger = logging.getLogger("repro.obs.flight")

#: Event kinds that freeze the ring into a capture by default: the two
#: points where the pipeline absorbed a failure, plus an SLO excursion —
#: exactly when you want the event tail that led up to it.
DEFAULT_TRIGGER_KINDS: frozenset[str] = frozenset({
    "quarantine", "degradation", "slo_breach",
})

#: Finished spans frozen into each capture (the most recent ones).
SPAN_TAIL = 64

#: Captures kept in memory; dumps on disk are bounded by ``max_dumps``.
MAX_CAPTURES = 32

_UNSAFE_FILENAME = re.compile(r"[^A-Za-z0-9._-]+")


def _safe_slug(text: str, fallback: str = "event") -> str:
    out = _UNSAFE_FILENAME.sub("-", text).strip("-")
    return out[:80] or fallback


class FlightRecorder:
    """A bounded ring of recent events that snapshots itself on failure.

    Subscribe it to an :class:`~repro.obs.events.EventBus`.  Thread
    safety: the ring and capture list are lock-guarded; captures taken
    from concurrent worker threads serialize against each other but not
    against the pipeline.
    """

    def __init__(
        self,
        capacity: int = 512,
        *,
        dump_dir=None,
        trigger_kinds: frozenset[str] | set[str] = DEFAULT_TRIGGER_KINDS,
        max_dumps: int = 100,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dump_dir = dump_dir
        self.trigger_kinds = frozenset(trigger_kinds)
        self.max_dumps = max_dumps
        self._lock = threading.Lock()
        self._ring: deque[PipelineEvent] = deque(maxlen=capacity)
        #: Most recent captures, oldest first (bounded by ``MAX_CAPTURES``).
        self.captures: deque[dict[str, object]] = deque(maxlen=MAX_CAPTURES)
        #: Paths of the JSONL dumps written so far, in order.
        self.dump_paths: list[str] = []
        #: Captures skipped because ``max_dumps`` was reached.
        self.suppressed = 0
        self._events_seen = 0
        self._capture_seq = 0

    # -- subscriber -------------------------------------------------------------

    def __call__(self, event: PipelineEvent) -> None:
        """The EventBus subscriber: record, and capture on a trigger."""
        with self._lock:
            self._ring.append(event)
            self._events_seen += 1
        if event.kind in self.trigger_kinds:
            self.capture(event)

    # -- reading ----------------------------------------------------------------

    def tail(self, n: int | None = None) -> list[PipelineEvent]:
        """The most recent *n* events (all retained events when ``None``)."""
        with self._lock:
            ring = list(self._ring)
        if n is None or n >= len(ring):
            return ring
        if n <= 0:
            return []
        return ring[-n:]

    @property
    def events_seen(self) -> int:
        with self._lock:
            return self._events_seen

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    # -- capturing --------------------------------------------------------------

    def capture(self, trigger: PipelineEvent | None = None) -> dict[str, object] | None:
        """Freeze the current ring (and recent spans) into one capture.

        Called automatically on trigger events; callable manually to
        snapshot an interesting moment.  Returns the capture dict, or
        ``None`` when the ``max_dumps`` budget is exhausted (counted in
        :attr:`suppressed` — a failure storm must not fill the disk).
        """
        with self._lock:
            if self._capture_seq >= self.max_dumps:
                self.suppressed += 1
                return None
            self._capture_seq += 1
            seq = self._capture_seq
            ring = [event.to_dict() for event in self._ring]
        spans: list[dict[str, object]] = []
        collector = get_collector()
        if collector is not None:
            spans = [record.to_dict() for record in collector.spans()[-SPAN_TAIL:]]
        capture = {
            "capture": seq,
            "captured_unix": time.time(),
            "trigger": trigger.to_dict() if trigger is not None else None,
            "events": ring,
            "spans": spans,
        }
        with self._lock:
            self.captures.append(capture)
        if self.dump_dir is not None:
            self._write_dump(capture, trigger)
        return capture

    def _write_dump(self, capture: dict[str, object], trigger: PipelineEvent | None) -> None:
        """One JSONL file per capture: header, then events, then spans."""
        import os

        label = "manual"
        if trigger is not None:
            label = _safe_slug(trigger.trajectory_id or trigger.kind)
        path = os.path.join(
            str(self.dump_dir), f"flight-{capture['capture']:04d}-{label}.jsonl"
        )
        try:
            os.makedirs(str(self.dump_dir), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                header = {
                    "record": "flight",
                    "capture": capture["capture"],
                    "captured_unix": capture["captured_unix"],
                    "trigger": capture["trigger"],
                    "events": len(capture["events"]),  # type: ignore[arg-type]
                    "spans": len(capture["spans"]),  # type: ignore[arg-type]
                }
                fh.write(json.dumps(header, default=str) + "\n")
                for event in capture["events"]:  # type: ignore[union-attr]
                    fh.write(json.dumps({"record": "event", **event}, default=str) + "\n")
                for span in capture["spans"]:  # type: ignore[union-attr]
                    fh.write(json.dumps({"record": "span", **span}, default=str) + "\n")
        except OSError as exc:
            # The black box must never take down the flight: log and move on.
            logger.warning("flight recorder could not write %s: %s", path, exc)
            return
        with self._lock:
            self.dump_paths.append(path)
        logger.info("flight recorder dump written to %s", path)
