"""Result types for batch summarization with per-item error isolation.

A batch never raises because one trajectory is broken (unless ``strict``):
healthy items come back as summaries, broken ones land in the quarantine
list with enough context to triage them offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.trajectory.sanitize import SanitizationReport

if TYPE_CHECKING:  # avoid the repro.core <-> repro.resilience import cycle
    from repro.core.types import TrajectorySummary


@dataclass(slots=True)
class LatencyBreakdown:
    """Where one batch item's wall-clock time went, phase by phase.

    Recorded for **every** item — serial, thread, or process executor —
    regardless of whether tracing/metrics/events are enabled: every
    duration here is read from a span the item runs anyway, so the cost
    is one listener call per span against items that take milliseconds.
    A plain mutable dataclass so it pickles across the process boundary
    inside its :class:`ItemOutcome`.

    The phases tile the item's life: *admission wait* (blocked in
    :meth:`~repro.serving.AdmissionPolicy.admit` before the batch
    started), *queue wait* (admitted but not yet picked up by a
    worker or the serial run), *exec* (inside summarization attempts),
    and *backoff* (sleeping between transient retries).  The batch's
    input-order reassembly is a per-batch constant that runs after every
    item settled; it is the runner's ``reassemble`` span, not a phase here.
    ``stages_s`` is the item span's subtree summed per span name, heard
    through a :class:`~repro.obs.span_listener` whether or not tracing
    is on; ``exec_s`` is its ``attempt`` entry and ``total_s`` the
    ``item`` span itself.
    """

    #: Request identity, when a :class:`~repro.obs.TraceContext` was active.
    trace_id: str | None = None
    admission_wait_s: float = 0.0
    queue_wait_s: float = 0.0
    #: Summarization attempts made (retries included; 0 = never started).
    attempts: int = 0
    exec_s: float = 0.0
    backoff_s: float = 0.0
    #: The ``item`` span's seconds, pickup to settled outcome: sanitize,
    #: exec and backoff.
    total_s: float = 0.0
    #: Seconds per span name below the item's ``item`` span: the
    #: pipeline stages (``calibrate``, ``partition``, ...), ``partition.dp``,
    #: and the umbrella ``sanitize``, ``attempt`` and ``summarize`` spans.
    stages_s: dict[str, float] = field(default_factory=dict)

    def note_span(self, name: str, duration_s: float, ok: bool = True) -> None:
        """A :data:`~repro.obs.trace.SpanListener`-shaped accumulator."""
        self.stages_s[name] = self.stages_s.get(name, 0.0) + duration_s

    def to_dict(self) -> dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "admission_wait_s": self.admission_wait_s,
            "queue_wait_s": self.queue_wait_s,
            "attempts": self.attempts,
            "exec_s": self.exec_s,
            "backoff_s": self.backoff_s,
            "total_s": self.total_s,
            "stages_s": dict(self.stages_s),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "LatencyBreakdown":
        """Inverse of :meth:`to_dict`; keys it does not know (the
        ``reassembly_s`` of older event files) are ignored."""
        return cls(
            trace_id=(
                None if data.get("trace_id") is None else str(data["trace_id"])
            ),
            admission_wait_s=float(data.get("admission_wait_s", 0.0)),  # type: ignore[arg-type]
            queue_wait_s=float(data.get("queue_wait_s", 0.0)),  # type: ignore[arg-type]
            attempts=int(data.get("attempts", 0)),  # type: ignore[arg-type]
            exec_s=float(data.get("exec_s", 0.0)),  # type: ignore[arg-type]
            backoff_s=float(data.get("backoff_s", 0.0)),  # type: ignore[arg-type]
            total_s=float(data.get("total_s", 0.0)),  # type: ignore[arg-type]
            stages_s=dict(data.get("stages_s") or {}),  # type: ignore[arg-type]
        )


@dataclass(frozen=True, slots=True)
class QuarantineEntry:
    """One trajectory that failed even after degradation (or retries).

    Carries enough for a post-mortem to distinguish "failed instantly
    once" from "retried three times over eleven seconds and then took a
    worker down": the final error, the attempt count, the total wall
    clock the item consumed, and which shard was serving it.  The two
    timing/placement fields are excluded from equality — the parallel ≡
    serial differential contract compares *what* failed and *why*, not
    how long it took or where it was scheduled.
    """

    #: Position of the item in the input batch.
    index: int
    trajectory_id: str
    #: Exception class name (``"CalibrationError"``, ``"DeadlineExceeded"``, ...).
    error_type: str
    #: Exception message.
    error: str
    #: How many summarization attempts were made (0 = never started).
    attempts: int
    #: Wall-clock seconds spent on the item across every attempt,
    #: including retry backoff (0.0 when it never started).
    total_duration_s: float = field(default=0.0, compare=False)
    #: Shard that served the item (``None`` on the serial path).
    shard_id: int | None = field(default=None, compare=False)
    #: Phase-by-phase timing of the doomed item (``None`` for entries
    #: synthesized before latency accounting existed).  Excluded from
    #: equality like the other forensic fields.
    latency: "LatencyBreakdown | None" = field(default=None, compare=False)

    def to_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "trajectory_id": self.trajectory_id,
            "error_type": self.error_type,
            "error": self.error,
            "attempts": self.attempts,
            "total_duration_s": self.total_duration_s,
            "shard_id": self.shard_id,
            "latency": None if self.latency is None else self.latency.to_dict(),
        }


@dataclass(frozen=True, slots=True)
class ItemOutcome:
    """The complete outcome of one batch item, keyed by its input index.

    Exactly one of ``summary`` / ``quarantine`` is set.  This is the unit
    of work of the one shard loop, :func:`repro.serving.run_shard`, which
    every executor of :meth:`repro.core.STMaker.summarize_many` runs —
    serial and pooled alike — which is what makes "parallel ≡ serial"
    hold by construction.
    """

    #: Position of the item in the input batch.
    index: int
    summary: "TrajectorySummary | None"
    quarantine: QuarantineEntry | None
    #: The item's sanitization report (``None`` when sanitization was off
    #: or the item never reached the cleaning pass).
    sanitization: SanitizationReport | None
    #: Transient retries this item consumed before succeeding or giving up.
    retries: int = 0
    #: Phase-by-phase wall-clock accounting; excluded from equality so the
    #: parallel ≡ serial differential contract compares outcomes, not
    #: schedules.
    latency: LatencyBreakdown | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if (self.summary is None) == (self.quarantine is None):
            raise ValueError(
                f"item {self.index}: exactly one of summary/quarantine must be set"
            )


@dataclass(frozen=True, slots=True)
class BatchProgress:
    """A live throughput snapshot, delivered after each batch item.

    :meth:`repro.core.STMaker.summarize_many` hands one of these to its
    ``progress`` callback (and mirrors the rate/ETA into the
    ``resilience.batch.items_per_s`` / ``resilience.batch.eta_s`` gauges)
    so long batches are observable while they run, not just afterwards.
    """

    #: Items finished so far (ok + quarantined), 1-based.
    done: int
    #: Total items in the batch.
    total: int
    ok: int
    quarantined: int
    retries: int
    elapsed_s: float
    items_per_s: float
    #: Estimated seconds to completion (``None`` until the rate is known).
    eta_s: float | None

    @property
    def percent(self) -> float:
        return 100.0 * self.done / self.total if self.total else 100.0

    def to_dict(self) -> dict[str, object]:
        """The snapshot as a plain dict — the ``progress`` event payload."""
        return {
            "done": self.done,
            "total": self.total,
            "ok": self.ok,
            "quarantined": self.quarantined,
            "retries": self.retries,
            "elapsed_s": self.elapsed_s,
            "items_per_s": self.items_per_s,
            "eta_s": self.eta_s,
        }

    def describe(self) -> str:
        """A one-line human-readable progress report."""
        eta = f"eta {self.eta_s:.0f}s" if self.eta_s is not None else "eta -"
        return (
            f"{self.done}/{self.total} ({self.percent:.0f}%) "
            f"ok={self.ok} quarantined={self.quarantined} retries={self.retries} "
            f"{self.items_per_s:.1f} items/s {eta}"
        )


@dataclass(slots=True)
class BatchResult:
    """Outcome of :meth:`repro.core.STMaker.summarize_many`."""

    #: Summaries of the healthy items, in input order.
    summaries: list["TrajectorySummary"] = field(default_factory=list)
    #: Items that could not be summarized at all.
    quarantined: list[QuarantineEntry] = field(default_factory=list)
    #: Per-item sanitization reports (input order; ``None`` when sanitization
    #: was disabled or the item was quarantined before cleaning).
    sanitization: list[SanitizationReport | None] = field(default_factory=list)
    #: Per-item latency breakdowns (input order, healthy and quarantined
    #: alike; ``None`` for outcomes produced before accounting existed).
    latencies: list[LatencyBreakdown | None] = field(default_factory=list)

    @property
    def ok_count(self) -> int:
        return len(self.summaries)

    @property
    def quarantined_count(self) -> int:
        return len(self.quarantined)

    @property
    def degraded_count(self) -> int:
        """How many of the healthy summaries needed at least one fallback."""
        return sum(1 for s in self.summaries if s.degradation.degraded)

    def __repr__(self) -> str:
        return (
            f"BatchResult(ok={self.ok_count}, degraded={self.degraded_count}, "
            f"quarantined={self.quarantined_count})"
        )
