"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch every failure mode of the pipeline with a single ``except`` clause
while still being able to discriminate the individual stages.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GeometryError(ReproError):
    """Raised for invalid geometric input (empty polylines, bad coordinates)."""


class RoadNetworkError(ReproError):
    """Raised for inconsistent road-network operations (unknown nodes, ...)."""


class NoPathError(RoadNetworkError):
    """Raised when no path exists between two road-network nodes."""


class TrajectoryError(ReproError):
    """Raised for malformed trajectories (too short, unsorted timestamps)."""


class CalibrationError(ReproError):
    """Raised when a raw trajectory cannot be calibrated to landmarks."""


class MapMatchError(ReproError):
    """Raised when map matching cannot produce a road sequence."""


class FeatureError(ReproError):
    """Raised for unknown features or invalid feature definitions."""


class PartitionError(ReproError):
    """Raised for invalid partition requests (e.g. k larger than #segments)."""


class SummarizationError(ReproError):
    """Raised when the summarizer cannot produce a summary."""


class TransientError(ReproError):
    """A stage failure expected to succeed on retry (timeouts, flaky IO).

    :meth:`STMaker.summarize` lets transient errors propagate instead of
    degrading the summary, so a batch layer can retry the whole item with
    backoff; :meth:`STMaker.summarize_many` does exactly that.
    """


class DeadlineExceeded(ReproError):
    """Raised (or recorded) when a deadline budget runs out mid-batch."""


class ConfigError(ReproError):
    """Raised for invalid configuration values."""


class ArtifactError(ReproError):
    """Raised for unusable city-model artifacts.

    Covers unreadable files, unknown magic/format versions, and content
    fingerprints that do not match the payload (truncated or tampered
    files).  A crash *during* :func:`repro.artifact.save_artifact` never
    produces one of these for the target path — writes are atomic
    (temp file + rename), so the target is either absent, the previous
    version, or the complete new version.
    """


class WorkerCrashError(ReproError):
    """A worker died — or would have died — while serving a batch item.

    Raised (and recorded in quarantine entries) in three situations:

    * a worker *process* serving a shard terminated abruptly (segfault,
      ``os._exit`` from native code, OOM kill) and shard supervision
      isolated the poison item by retry and bisection;
    * a worker stopped making progress past its deadline budget and was
      killed by the supervisor (a hang is a crash that wastes more time);
    * a ``crash``/``hang``/``oom-sim`` fault fired in a context that
      cannot be killed safely (a serial or thread-executor run) — the
      fault raises this instead, so serial and supervised process runs
      quarantine the same items.
    """


class OverloadError(ReproError):
    """Admission control shed work instead of accepting it.

    Raised by the serving intake when a batch would exceed the configured
    queue/tenant budgets under a ``shed="reject"`` policy.  Deliberate
    back-pressure, not a bug: the caller should retry later, lower the
    batch size, or run with a ``shed="degrade"`` policy.
    """


class ServingError(ReproError):
    """Raised when the sharded serving layer violates an invariant.

    Seeing one means a bug in :mod:`repro.serving` itself (lost, duplicated
    or out-of-range item indices during reassembly), never bad user input —
    bad items are quarantined, not raised.
    """


class ServerClosedError(ReproError):
    """The request front-end is not accepting or serving work.

    Raised by :meth:`repro.server.SummarizationServer.submit` when the
    server has not been started (or has been stopped), and delivered
    through pending :class:`~repro.server.RequestHandle` s when a
    non-draining ``stop()`` abandons queued requests — a typed verdict,
    never a hang.
    """
