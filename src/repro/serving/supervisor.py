"""Shard supervision: crash containment for the process executor.

A :class:`~concurrent.futures.ProcessPoolExecutor` has exactly one
failure story: when any worker process dies (segfault, OOM kill,
``os._exit`` from native code), the pool marks itself broken and fails
*every* in-flight future with ``BrokenProcessPool`` — the whole batch
aborts and every healthy shard's work is lost.  That is the opposite of
the per-item isolation :meth:`repro.core.STMaker.summarize_many`
promises.  This module puts a supervisor between :mod:`repro.serving.pool`
and the process pool so that worker death is a *contained, attributed,
bounded* event:

1. **Windowed submission** — at most ``max_in_flight`` shards (default:
   2× workers) live inside the pool at once, so one crash dooms a
   bounded set of futures, not the entire batch.
2. **Attribution** — a crash is charged to a shard only when the
   attribution is *exact* (exactly one shard was in flight).  With
   several in flight the pool cannot say which one killed the worker,
   so all of them are requeued uncharged and the supervisor switches to
   **serialized recovery** (one shard in flight) where every subsequent
   crash is exactly attributable.  This can never quarantine a healthy
   shard on circumstantial evidence.
3. **Retry → bisect → quarantine** — a charged shard is retried on the
   replacement pool under the bounded :class:`ShardRetryPolicy` (attempts,
   deterministic geometric backoff; each run gets the full per-shard
   deadline as always).  A shard that keeps killing workers is
   **bisected**: its halves re-enter the queue with a fresh attempt
   budget, so healthy items escape and the poison converges to a
   single-item shard in ``log2(len(shard))`` rounds.  A single-item
   shard that still crashes is the proven poison: the supervisor
   synthesizes a quarantined outcome with a typed
   :class:`~repro.exceptions.WorkerCrashError`, folds it for the runner
   to settle like any other, and the batch moves on.
4. **Hang detection** — progress-based: when no in-flight shard
   completes within the hang window (``deadline_s`` + grace, or the
   policy's explicit ``hang_timeout_s``), the workers are killed and
   the in-flight shards handled exactly like a crash.  A hang is a
   crash that wastes more time; without this, one stuck worker parks
   the batch forever.  With no deadline and no explicit timeout the
   supervisor waits indefinitely (the pre-supervision contract).
5. **Circuit breaking** — an optional
   :class:`~repro.serving.breaker.CircuitBreaker` records every shard
   outcome; once tripped, subsequent shards bypass the pool and run
   **in-parent** (the degraded path: same item semantics, no process
   isolation) until a half-open probe succeeds.

Everything reports through the standard obs surface: ``shard_retry``
events (actions ``retry``/``bisect``/``requeue``/``quarantine``), the
``serving.crashes`` / ``serving.retried_shards`` / ``serving.bisected_shards``
counters, and the run report's "Failure containment" section.

**Pool lifetime.**  A pool outlives the call that created it, so its
workers keep the model they loaded, the network's search trees and its
edge index for the next batch.  The calling process holds idle pools,
one list per worker count, and each call **checks one out
exclusively**: concurrent callers (say, two server consumers) never
share a pool, so one caller's poison can only break its own pool and
attribution stays exact.  A pool is **checked back in** only when its
call ended with nothing in flight.  A broken pool is shut down and
joined, then replaced, also when it breaks between two submits (the
shard whose submit raised never ran and goes back uncharged); a hung
pool is killed; a pool left by an exception (a strict-mode raise) is
dropped; an idle pool whose worker died in the meantime is killed at
the next checkout.  A forked child starts with no idle pools (they
belong to the parent).  Idle pools end at interpreter exit through
``concurrent.futures``' own exit hook, which joins their workers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.exceptions import ConfigError, WorkerCrashError
from repro.obs import emit_event, metrics
from repro.resilience import ItemOutcome, LatencyBreakdown, QuarantineEntry, RetryPolicy
from repro.serving.executor import (
    ShardResult,
    ShardTask,
    mp_context,
    run_shard_in_process,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.breaker import CircuitBreaker


@dataclass(frozen=True, slots=True)
class ShardRetryPolicy(RetryPolicy):
    """Bounds on how hard the supervisor fights for a lost shard.

    The backoff schedule and its checks are :class:`RetryPolicy`'s;
    ``delay_s(n)`` is the wait before re-running a shard charged ``n``
    times.  ``max_retries`` is per *shard identity*: a bisected half
    starts with a fresh attempt budget (it is new evidence — the crash
    may have been the other half's fault).  ``hang_timeout_s`` overrides
    the progress window used for hang detection; when ``None`` the window
    is ``deadline_s + hang_grace_s`` (and unbounded when there is no
    deadline either — hang detection needs *some* notion of "too long").
    ``hang_grace_s`` must comfortably exceed the slowest single item:
    the per-shard deadline bounds when the last item may *start*, the
    grace covers how long it may then run.
    """

    max_retries: int = 2
    hang_timeout_s: float | None = None
    hang_grace_s: float = 30.0
    #: How long to let a broken pool's survivor futures settle so work
    #: that finished before the crash is preserved, not re-run.
    settle_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        # Zero-argument super() cannot find the class cell of a slots
        # dataclass, which is a new class object.
        RetryPolicy.__post_init__(self)
        if self.hang_timeout_s is not None and not self.hang_timeout_s > 0.0:
            raise ConfigError(f"hang_timeout_s must be > 0, got {self.hang_timeout_s}")
        if not self.hang_grace_s >= 0.0:
            raise ConfigError(f"hang_grace_s must be >= 0, got {self.hang_grace_s}")
        if not self.settle_timeout_s >= 0.0:
            raise ConfigError(
                f"settle_timeout_s must be >= 0, got {self.settle_timeout_s}"
            )

    def hang_window_s(self, deadline_s: float | None) -> float | None:
        """The no-progress window before in-flight shards count as hung."""
        if self.hang_timeout_s is not None:
            return self.hang_timeout_s
        if deadline_s is not None:
            return deadline_s + self.hang_grace_s
        return None


class _Unit:
    """One supervised shard: its task plus how often it was charged."""

    __slots__ = ("task", "attempts")

    def __init__(self, task: ShardTask, attempts: int = 0) -> None:
        self.task = task
        self.attempts = attempts


def supervise_process_shards(
    tasks: Sequence[ShardTask],
    *,
    workers: int,
    policy: ShardRetryPolicy,
    fold: Callable[[ShardResult], None],
    local_runner: Callable[[ShardTask], ShardResult],
    breaker: "CircuitBreaker | None" = None,
    max_in_flight: int | None = None,
) -> None:
    """Run *tasks* on supervised worker processes; deliver results via *fold*.

    Completes every task exactly once — as a worker result, a degraded
    in-parent result (*local_runner*, while the breaker is open), or a
    synthesized crash-quarantine result — no matter how many workers die
    on the way.  Worker exceptions that are *not* pool breakage
    (strict-mode item errors, genuine bugs) propagate to the caller
    unchanged.  The batch-wide options (deadline, sleeper, strictness)
    are read off the tasks, which all carry the same
    :class:`~repro.serving.ItemOptions`.  See the module docstring for
    the containment model.
    """
    if not tasks:
        return
    options = tasks[0].options
    queue: deque[_Unit] = deque(_Unit(task) for task in tasks)
    next_shard_id = max(t.shard_id for t in tasks) + 1
    pending: dict[Future, _Unit] = {}
    serialize = False
    m = metrics()
    hang_window = policy.hang_window_s(options.deadline_s)
    pool = _checkout(workers)

    def charge(unit: _Unit, reason: str) -> None:
        """The retry → bisect → quarantine ladder for an attributed loss."""
        nonlocal next_shard_id
        unit.attempts += 1
        shard_id = unit.task.shard_id
        if unit.attempts <= policy.max_retries:
            m.counter("serving.retried_shards").inc()
            emit_event(
                "shard_retry", shard_id=shard_id, action="retry",
                attempt=unit.attempts, reason=reason,
                items=len(unit.task.items),
            )
            delay = policy.delay_s(unit.attempts)
            if delay > 0.0:
                options.sleeper(delay)
            queue.appendleft(unit)
            return
        if len(unit.task.items) > 1:
            mid = len(unit.task.items) // 2
            halves = []
            for lo, hi in ((0, mid), (mid, len(unit.task.items))):
                halves.append(_Unit(dataclasses.replace(
                    unit.task,
                    shard_id=next_shard_id,
                    indices=unit.task.indices[lo:hi],
                    items=unit.task.items[lo:hi],
                    traces=unit.task.traces[lo:hi],
                )))
                next_shard_id += 1
            m.counter("serving.bisected_shards").inc()
            emit_event(
                "shard_retry", shard_id=shard_id, action="bisect",
                attempt=unit.attempts, reason=reason,
                halves=[h.task.shard_id for h in halves],
            )
            for half in reversed(halves):
                queue.appendleft(half)
            return
        # A single-item shard that exhausted its retries: proven poison.
        message = (
            f"worker process died ({reason}) on every attempt while item "
            f"{unit.task.indices[0]} was the only one in flight; "
            f"isolated after {unit.attempts} attempt(s)"
        )
        if options.strict:
            raise WorkerCrashError(message)
        emit_event(
            "shard_retry", shard_id=shard_id, action="quarantine",
            attempt=unit.attempts, reason=reason,
        )
        fold(_synthesize_crash_result(unit, message))

    def handle_incident(lost: list[_Unit], reason: str) -> None:
        """Classify one worker-death event over the *lost* in-flight units."""
        nonlocal serialize
        m.counter("serving.crashes").inc()
        if breaker is not None:
            breaker.record_failure()
        if len(lost) == 1:
            charge(lost[0], reason)
            return
        if not lost:
            return  # the worker died with nothing of this call lost
        # Ambiguous: the pool cannot say which shard killed the worker.
        # Requeue everything uncharged and recover serialized, where every
        # further loss is exactly attributable.
        serialize = True
        for unit in reversed(lost):
            emit_event(
                "shard_retry", shard_id=unit.task.shard_id, action="requeue",
                reason=reason, charged=False,
            )
            queue.appendleft(unit)

    def drain_settled(reason: str) -> list[_Unit]:
        """Fold what finished before the pool died; return the lost units.

        Each pending future is consulted exactly once, so a shard can
        never be both folded and requeued (which would duplicate items
        at reassembly).
        """
        lost: list[_Unit] = []
        for future, unit in pending.items():
            sr = None
            if future.done() and not future.cancelled():
                try:
                    sr = future.result(timeout=0)
                except BaseException:
                    sr = None
            if sr is not None:
                if breaker is not None:
                    breaker.record_success()
                fold(sr)
            else:
                lost.append(unit)
        pending.clear()
        return lost

    def replace_broken_pool(lost: list[_Unit]) -> None:
        """Keep what a broken pool finished, replace it, attribute the loss.

        The broken pool's remaining futures settle fast (the executor
        fails them all).  Joining the pool ends its manager and feeder
        threads, so a single-threaded caller's replacement still forks.
        """
        nonlocal pool
        if pending:
            wait(list(pending), timeout=policy.settle_timeout_s)
        lost.extend(drain_settled("crash"))
        pool.shutdown(wait=True, cancel_futures=True)
        pool = _new_pool(workers)
        handle_incident(lost, "crash")

    try:
        while queue or pending:
            limit = 1 if serialize else (max_in_flight or workers * 2)
            while queue and len(pending) < limit:
                unit = queue.popleft()
                if breaker is not None and not breaker.allow():
                    m.counter("serving.breaker.denied_shards").inc()
                    fold(local_runner(unit.task))
                    continue
                try:
                    pending[pool.submit(run_shard_in_process, unit.task)] = unit
                except BrokenExecutor:
                    # A worker died since the last wait.  This shard never
                    # ran: requeue it uncharged.
                    queue.appendleft(unit)
                    replace_broken_pool([])
            if not pending:
                continue
            done, _ = wait(
                list(pending), timeout=hang_window, return_when=FIRST_COMPLETED
            )
            if not done:
                # No shard made progress inside the hang window: kill the
                # stuck workers and treat the in-flight shards as lost.
                lost = drain_settled("hang")
                _kill_pool(pool)
                pool = _new_pool(workers)
                handle_incident(lost, "hang")
                continue
            broken = False
            lost = []
            for future in done:
                unit = pending.pop(future)
                try:
                    sr = future.result()
                except BrokenExecutor:
                    broken = True
                    lost.append(unit)
                except Exception as exc:
                    # Not pool breakage: a strict-mode item error or a real
                    # bug.  Containment does not swallow those — but the
                    # caller's contract is "first failure in shard order",
                    # so let the other in-flight shards settle and raise
                    # the lowest-shard-id failure among them.
                    _raise_first_by_shard_order(exc, unit, pending)
                else:
                    if breaker is not None:
                        breaker.record_success()
                    fold(sr)
            if broken:
                replace_broken_pool(lost)
    except BaseException:
        # Shards may still be in flight: this pool serves no other call.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    _checkin(pool, workers)


def _raise_first_by_shard_order(
    exc: Exception, unit: _Unit, pending: dict[Future, _Unit]
) -> None:
    """Abort with the lowest-shard-id worker exception, as serial would.

    Strict mode promises the *first* failure in input order.  Shards
    complete in any order under the supervisor, so when one raises we
    briefly let the other in-flight shards settle and pick the failure
    with the smallest shard id (shards are contiguous, so input order and
    shard order coincide).  ``BrokenExecutor`` losses during the
    drain are ignored — we are aborting anyway.
    """
    failures: list[tuple[int, Exception]] = [(unit.task.shard_id, exc)]
    if pending:
        wait(list(pending), timeout=30.0)
        for future, other in pending.items():
            if not future.done() or future.cancelled():
                continue
            try:
                future.result(timeout=0)
            except BrokenExecutor:
                continue
            except Exception as other_exc:
                failures.append((other.task.shard_id, other_exc))
    raise min(failures, key=lambda pair: pair[0])[1]


def _synthesize_crash_result(unit: _Unit, message: str) -> ShardResult:
    """A quarantined :class:`ShardResult` for a proven-poison shard.

    The worker that could have timed these items died with them; what
    survives is each item's request identity and how many times the
    supervisor charged the shard, so each breakdown has ``total_s=0``.
    The result is folded like any other: the runner settles every item
    (batch counters, latency histogram, ``quarantine`` and ``item_end``
    events), so the totals match a serial run that quarantined the same
    items.
    """
    outcomes = []
    for offset, (index, raw) in enumerate(zip(unit.task.indices, unit.task.items)):
        breakdown = LatencyBreakdown(
            trace_id=unit.task.traces[offset].trace_id, attempts=unit.attempts,
        )
        outcomes.append(ItemOutcome(index, None, QuarantineEntry(
            index, raw.trajectory_id, "WorkerCrashError", message,
            unit.attempts, shard_id=unit.task.shard_id, latency=breakdown,
        ), None, latency=breakdown))
    return ShardResult(
        shard_id=unit.task.shard_id, outcomes=tuple(outcomes),
        ok=0, quarantined=len(outcomes),
        duration_ms=0.0, items_per_s=0.0,
    )


def _new_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, mp_context=mp_context())


_idle_lock = threading.Lock()
#: Pools between calls, by worker count.  A call owns its pool outright
#: from :func:`_checkout` until :func:`_checkin`.
_idle_pools: dict[int, list[ProcessPoolExecutor]] = {}


def _checkout(workers: int) -> ProcessPoolExecutor:
    """Take an idle pool of *workers* processes, or start a new one.

    An idle pool whose worker died since its last call (an OOM kill, an
    operator's ``kill``) is killed instead of handed out: a healthy shard
    must never be charged for a death that happened before it ran.
    """
    while True:
        with _idle_lock:
            pools = _idle_pools.get(workers)
            pool = pools.pop() if pools else None
        if pool is None:
            return _new_pool(workers)
        if not pool._broken and all(
            process.is_alive() for process in pool._processes.values()
        ):
            return pool
        _kill_pool(pool)


def _checkin(pool: ProcessPoolExecutor, workers: int) -> None:
    """Return a pool whose call ended clean, for the next call to reuse."""
    with _idle_lock:
        _idle_pools.setdefault(workers, []).append(pool)


def _forget_idle_pools() -> None:
    """Fork hook: a child does not own its parent's pools or their lock."""
    global _idle_lock
    _idle_lock = threading.Lock()
    _idle_pools.clear()


os.register_at_fork(after_in_child=_forget_idle_pools)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a hung pool, or an idle one that lost a worker.

    Reaches into the executor's live worker table (no public API exposes
    it) to SIGTERM the stuck processes before shutdown; shutdown alone
    would *join* them and hang the parent right behind the worker.
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        with contextlib.suppress(Exception):
            process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
