"""Deterministic fault injection for the summarization pipeline.

The harness arms exceptions and/or latency against named pipeline stages;
:class:`repro.core.STMaker` consults its installed injector at every stage
boundary.  Everything is deterministic: firing is governed by explicit
per-spec counters or by a seeded RNG, never by wall-clock state, so a chaos
test replays identically on every run.

Typical chaos-test usage::

    injector = FaultInjector([FaultSpec(stage="partition")])
    with injector.installed(stmaker):
        summary = stmaker.summarize(raw)          # degrades, does not raise
    assert "partition" in summary.degradation.stages()
    assert injector.fired("partition") == 1
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.exceptions import ConfigError, ReproError, WorkerCrashError
from repro.resilience.degradation import STAGES

#: What an armed spec does when it fires.
#:
#: * ``"error"`` — apply latency, then raise ``spec.error`` (the original
#:   behaviour; ``error=None`` makes it latency-only);
#: * ``"crash"`` — die the way a segfaulting native extension does: inside
#:   a worker *process* the interpreter exits via ``os._exit`` (no
#:   cleanup, no exception, the pool sees a dead worker); anywhere that
#:   cannot be killed safely (a serial or thread-executor run) it raises
#:   :class:`~repro.exceptions.WorkerCrashError` instead, so every
#:   executor quarantines the same items;
#: * ``"hang"`` — stop making progress: sleep ``latency_s`` (default
#:   :data:`DEFAULT_HANG_S`) through the injector's sleeper, then raise
#:   :class:`WorkerCrashError`.  In a real worker process with the real
#:   sleeper the parent-side supervisor declares the hang first and kills
#:   the worker — the raise is only reached by stubbed-sleeper tests and
#:   in-process executions;
#: * ``"oom-sim"`` — simulate the kernel OOM killer: a worker process
#:   gets ``SIGKILL`` (even less polite than ``crash``); elsewhere it
#:   raises :class:`WorkerCrashError`.
FAULT_KINDS: tuple[str, ...] = ("error", "crash", "hang", "oom-sim")

#: How long a ``hang`` fault sleeps when its spec gives no ``latency_s``.
DEFAULT_HANG_S: float = 3600.0

#: Exit code of a ``crash`` fault in a worker process (mirrors SIGKILL's
#: conventional 128+9 so post-mortems read like a real worker death).
CRASH_EXIT_CODE: int = 137


class InjectedFault(ReproError):
    """Default exception raised by an armed :class:`FaultSpec`."""


def in_worker_process() -> bool:
    """True inside a ``multiprocessing`` child (e.g. a process-pool worker).

    Crash-grade faults must only take down processes whose death is
    contained by shard supervision; killing the parent would take the
    whole batch (or the test runner) with it.
    """
    return multiprocessing.parent_process() is not None


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One armed fault: which stage, what to do, how often.

    ``kind`` selects the failure mode (:data:`FAULT_KINDS`); the default
    ``"error"`` keeps the original semantics.  ``error`` is an exception
    *type* instantiated with a message at fire time (``None`` = latency
    only; only meaningful for ``kind="error"``).  ``times`` bounds how
    often the spec fires (``None`` = every matching call).  When
    ``probability`` is set, each matching call fires with that seeded
    probability instead of unconditionally.  ``trajectory_id`` narrows
    the spec to one input item — the shape crash-containment tests need
    ("this exact trajectory is poison"), and deterministic under any
    scheduling because it does not depend on call order.

    Everything here is plain data, so a spec list pickles across the
    process boundary: the serving executor rebuilds an equivalent
    injector inside every worker from ``(specs, seed)``.
    """

    #: Stage name from :data:`repro.resilience.STAGES`, or ``"*"`` for all.
    stage: str
    error: type[BaseException] | None = InjectedFault
    latency_s: float = 0.0
    times: int | None = 1
    probability: float | None = None
    #: One of :data:`FAULT_KINDS`.
    kind: str = "error"
    #: Only fire for this input item (``None`` = any).
    trajectory_id: str | None = None

    def __post_init__(self) -> None:
        if self.stage != "*" and self.stage not in STAGES:
            raise ConfigError(
                f"unknown stage {self.stage!r}; expected one of {STAGES} or '*'"
            )
        if self.latency_s < 0.0:
            raise ConfigError(f"latency_s must be >= 0, got {self.latency_s}")
        if self.times is not None and self.times < 0:
            raise ConfigError(f"times must be >= 0, got {self.times}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"probability must be in [0, 1], got {self.probability}")
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )


class FaultInjector:
    """Evaluates armed :class:`FaultSpec` s at stage boundaries."""

    def __init__(
        self,
        specs: Iterable[FaultSpec],
        seed: int = 0,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        self._specs = list(specs)
        self._remaining = [spec.times for spec in self._specs]
        self.seed = seed
        self._rng = random.Random(seed)
        self._sleeper = sleeper
        self._fired: dict[str, int] = {}
        # Shared injectors get hit concurrently by serving pool workers;
        # the counters must not lose updates (the stress suite checks).
        self._lock = threading.Lock()

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        """The armed specs, as configured (fire counts are not reflected).

        Together with :attr:`seed` this is everything needed to rebuild an
        equivalent injector elsewhere — e.g. inside a process-pool worker,
        where the injector itself cannot travel (it holds a lock and
        possibly an unpicklable sleeper).
        """
        return tuple(self._specs)

    @classmethod
    def raising(
        cls,
        stage: str,
        error: type[BaseException] = InjectedFault,
        times: int | None = 1,
        seed: int = 0,
    ) -> "FaultInjector":
        """Shorthand for a single exception-raising spec."""
        return cls([FaultSpec(stage=stage, error=error, times=times)], seed=seed)

    def before(self, stage: str, trajectory_id: str | None = None) -> None:
        """Called by the pipeline when *stage* is about to run.

        Applies latency, then raises (or crashes — see
        :data:`FAULT_KINDS`), for every armed spec matching the stage and,
        when the spec targets one, the *trajectory_id* being processed.
        A no-op when nothing matches or all specs are exhausted.
        Thread-safe: the spec bookkeeping happens under a lock, the
        latency sleeps and the raise happen outside it, so concurrent
        pool workers never lose a fire count and never sleep serialized.
        """
        firing: list[FaultSpec] = []
        with self._lock:
            for i, spec in enumerate(self._specs):
                if spec.stage not in (stage, "*"):
                    continue
                if (
                    spec.trajectory_id is not None
                    and spec.trajectory_id != trajectory_id
                ):
                    continue
                if self._remaining[i] == 0:
                    continue
                if (
                    spec.probability is not None
                    and self._rng.random() >= spec.probability
                ):
                    continue
                if self._remaining[i] is not None:
                    self._remaining[i] -= 1
                self._fired[stage] = self._fired.get(stage, 0) + 1
                firing.append(spec)
                if spec.kind != "error" or spec.error is not None:
                    # The raise below ends this call; later specs stay
                    # armed exactly as in the original serial semantics.
                    break
        for spec in firing:
            self._fire(spec, stage)

    def _fire(self, spec: FaultSpec, stage: str) -> None:
        """Execute one armed spec's failure mode (outside the lock)."""
        if spec.kind == "crash":
            if in_worker_process():
                os._exit(CRASH_EXIT_CODE)
            raise WorkerCrashError(f"injected crash in stage {stage!r}")
        if spec.kind == "oom-sim":
            if in_worker_process():
                os.kill(os.getpid(), signal.SIGKILL)
            raise WorkerCrashError(f"injected oom kill in stage {stage!r}")
        if spec.kind == "hang":
            self._sleeper(spec.latency_s or DEFAULT_HANG_S)
            raise WorkerCrashError(f"injected hang in stage {stage!r}")
        if spec.latency_s > 0.0:
            self._sleeper(spec.latency_s)
        if spec.error is not None:
            raise spec.error(f"injected fault in stage {stage!r}")

    def fired(self, stage: str | None = None) -> int:
        """How often faults fired — for one stage, or in total."""
        with self._lock:
            if stage is not None:
                return self._fired.get(stage, 0)
            return sum(self._fired.values())

    def fired_by_stage(self) -> dict[str, int]:
        with self._lock:
            return dict(self._fired)

    @contextlib.contextmanager
    def installed(self, stmaker) -> Iterator["FaultInjector"]:
        """Install this injector on *stmaker* for the duration of the block."""
        previous = stmaker.fault_injector
        stmaker.fault_injector = self
        try:
            yield self
        finally:
            stmaker.fault_injector = previous
