"""Chaos suite: worker death is contained, attributed, and bounded.

The acceptance contract for shard supervision: a process-executor batch
with a poison item that *kills its worker* (``os._exit``, simulated OOM
SIGKILL, or a hang) must still complete — every healthy item summarized
exactly as serial would, the poison quarantined with a typed
``WorkerCrashError``, input order preserved, and the batch never hangs
or aborts with ``BrokenProcessPool``.

The differential half runs under the ``SERVING_TEST_EXECUTOR`` matrix:
for the thread executor crash-grade faults raise ``WorkerCrashError``
in-parent (process death would take the test runner), so both executors
must reach the *same verdicts* — same indices, same trajectory ids, same
error type — as the serial reference.  Crash **messages** legitimately
differ (serial sees the injected raise, the supervisor synthesizes a
post-mortem), so verdict comparisons use ``(index, trajectory_id,
error_type)``, not full entry equality.

Everything here is deterministic: faults target explicit trajectory ids
(``FaultSpec.trajectory_id``), so scheduling order and worker re-arming
cannot change which items die.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from repro import obs
from repro.exceptions import WorkerCrashError
from repro.obs.metrics import MetricsRegistry
from repro.resilience import FaultInjector, FaultSpec
from repro.serving import ShardRetryPolicy, supervisor
from repro.trajectory import RawTrajectory

#: Worker count of the parallel side (CI matrix 1/4).
WORKERS = int(os.environ.get("SERVING_TEST_WORKERS", "4"))

#: Pool backend of the matrix-differential tests (CI matrix thread/process).
EXECUTOR = os.environ.get("SERVING_TEST_EXECUTOR", "thread")

#: No-backoff policy so containment tests converge fast; retries/bisection
#: still run, they just don't sleep.
FAST_RETRY = ShardRetryPolicy(max_retries=1, backoff_base_s=0.0)

#: Quarantine-quickly policy for tests where retries are not the point.
NO_RETRY = ShardRetryPolicy(max_retries=0, backoff_base_s=0.0)


@pytest.fixture(scope="module")
def corpus(scenario) -> list[RawTrajectory]:
    rng = np.random.default_rng(88)
    sims = [
        scenario.simulate_trips(1, depart_time=(6.5 + 0.7 * i) * 3600.0, rng=rng)[0]
        for i in range(8)
    ]
    return [
        RawTrajectory(s.raw.points, f"ct-{i:02d}") for i, s in enumerate(sims)
    ]


@pytest.fixture(scope="module")
def stmaker(scenario):
    return scenario.stmaker


@pytest.fixture()
def clean_obs():
    yield
    obs.disable_metrics()
    obs.disable_tracing()
    obs.disable_events()


def _crash_specs(*trajectory_ids: str, kind: str = "crash", stage: str = "extract"):
    return [
        FaultSpec(stage=stage, kind=kind, times=None, trajectory_id=tid)
        for tid in trajectory_ids
    ]


def _verdicts(batch) -> set[tuple[int, str, str]]:
    """What failed and why — the cross-executor comparable projection."""
    return {
        (e.index, e.trajectory_id, e.error_type) for e in batch.quarantined
    }


def _assert_healthy_match_serial(serial, chaotic, poison_ids: set[str]) -> None:
    """Every non-poison item must come out exactly as the serial run's."""
    serial_by_id = {s.trajectory_id: s for s in serial.summaries}
    chaotic_ids = [s.trajectory_id for s in chaotic.summaries]
    assert chaotic_ids == [
        s.trajectory_id for s in serial.summaries if s.trajectory_id not in poison_ids
    ], "input order must be preserved among survivors"
    for summary in chaotic.summaries:
        reference = serial_by_id[summary.trajectory_id]
        assert summary.text == reference.text
        assert summary.partitions == reference.partitions
        assert summary.degradation.to_dict() == reference.degradation.to_dict()


# -- the acceptance proof: a worker-killing item cannot take the batch --------


class TestCrashContainment:
    def test_poison_crash_is_quarantined_batch_completes(
        self, stmaker, corpus, clean_obs
    ):
        """workers=4, one item calls ``os._exit`` in its worker: the batch
        completes, survivors match serial, the poison is quarantined with
        a typed ``WorkerCrashError``, and order is preserved."""
        serial = stmaker.summarize_many(corpus, k=2)

        registry = obs.enable_metrics(MetricsRegistry())
        log = obs.EventLog()
        obs.enable_events().subscribe(log)
        poison = corpus[3].trajectory_id
        injector = FaultInjector(_crash_specs(poison))
        with injector.installed(stmaker):
            batch = stmaker.summarize_many(
                corpus, k=2, workers=4, shard_size=2, executor="process",
                shard_retry=FAST_RETRY,
            )

        assert batch.ok_count == len(corpus) - 1
        [entry] = batch.quarantined
        assert entry.index == 3
        assert entry.trajectory_id == poison
        assert entry.error_type == "WorkerCrashError"
        assert "worker process died" in entry.error
        assert entry.attempts >= 1
        assert entry.shard_id is not None  # forensics: which shard served it
        _assert_healthy_match_serial(serial, batch, {poison})

        # The containment machinery visibly did its job.
        assert registry.counter("serving.crashes").value >= 1.0
        assert registry.counter("serving.retried_shards").value >= 1.0
        actions = {e.payload["action"] for e in log.events("shard_retry")}
        assert "quarantine" in actions

    def test_oom_sim_is_contained_identically(self, stmaker, corpus, clean_obs):
        """SIGKILL (the OOM killer's signature) gets the same containment."""
        poison = corpus[5].trajectory_id
        injector = FaultInjector(_crash_specs(poison, kind="oom-sim"))
        with injector.installed(stmaker):
            batch = stmaker.summarize_many(
                corpus, k=2, workers=2, shard_size=2, executor="process",
                shard_retry=NO_RETRY,
            )
        assert batch.ok_count == len(corpus) - 1
        [entry] = batch.quarantined
        assert entry.trajectory_id == poison
        assert entry.error_type == "WorkerCrashError"

    def test_bisection_rescues_healthy_shardmates(
        self, stmaker, corpus, clean_obs
    ):
        """With big shards the poison's shardmates must not be collateral:
        the supervisor bisects the crashing shard down to the single
        poison item and only that one is quarantined."""
        registry = obs.enable_metrics(MetricsRegistry())
        poison = corpus[2].trajectory_id
        injector = FaultInjector(_crash_specs(poison))
        with injector.installed(stmaker):
            batch = stmaker.summarize_many(
                corpus, k=2, workers=2, shard_size=4, executor="process",
                shard_retry=NO_RETRY,
            )
        assert batch.ok_count == len(corpus) - 1
        assert _verdicts(batch) == {(2, poison, "WorkerCrashError")}
        assert registry.counter("serving.bisected_shards").value >= 1.0

    def test_crash_quarantine_observes_the_item_latency_histogram(
        self, stmaker, corpus, clean_obs
    ):
        """An item quarantined parent-side for a worker crash settles like
        a serial one: one ``resilience.item.latency_ms`` observation and
        one ``item_end`` event per counted item, at zero duration."""
        registry = obs.enable_metrics(MetricsRegistry())
        log = obs.EventLog()
        obs.enable_events().subscribe(log)
        items = corpus[:6]
        poison = items[3].trajectory_id
        injector = FaultInjector(_crash_specs(poison))
        with injector.installed(stmaker):
            batch = stmaker.summarize_many(
                items, k=2, workers=2, shard_size=2, executor="process",
                shard_retry=NO_RETRY,
            )
        assert _verdicts(batch) == {(3, poison, "WorkerCrashError")}
        counted = registry.counter("resilience.batch.items").value
        assert counted == len(items)
        assert registry.histogram("resilience.item.latency_ms").count == counted
        [crashed] = [
            e for e in log.events("item_end") if e.trajectory_id == poison
        ]
        assert (crashed.payload["ok"], crashed.payload["duration_ms"]) == (False, 0.0)

    def test_multiple_poison_items(self, stmaker, corpus, clean_obs):
        poisons = {corpus[1].trajectory_id, corpus[6].trajectory_id}
        injector = FaultInjector(_crash_specs(*sorted(poisons)))
        with injector.installed(stmaker):
            batch = stmaker.summarize_many(
                corpus, k=2, workers=4, shard_size=2, executor="process",
                shard_retry=NO_RETRY,
            )
        assert batch.ok_count == len(corpus) - 2
        assert {e.trajectory_id for e in batch.quarantined} == poisons
        assert all(
            e.error_type == "WorkerCrashError" for e in batch.quarantined
        )

    def test_strict_mode_raises_typed_worker_crash(self, stmaker, corpus):
        """``strict=True`` still never surfaces ``BrokenProcessPool``: the
        proven poison aborts the batch with ``WorkerCrashError``."""
        injector = FaultInjector(_crash_specs(corpus[0].trajectory_id))
        with injector.installed(stmaker):
            with pytest.raises(WorkerCrashError, match="worker process died"):
                stmaker.summarize_many(
                    corpus, k=2, workers=2, shard_size=2, executor="process",
                    shard_retry=NO_RETRY, strict=True,
                )


class TestHangContainment:
    def test_hung_worker_is_killed_and_quarantined(
        self, stmaker, corpus, clean_obs
    ):
        """A worker that stops making progress (sleeps "forever") is
        detected by the progress window, killed, and its item quarantined
        — the batch returns instead of parking on a dead future."""
        poison = corpus[4].trajectory_id
        small = corpus[:6]
        injector = FaultInjector(_crash_specs(poison, kind="hang"))
        policy = ShardRetryPolicy(
            max_retries=0, backoff_base_s=0.0, hang_timeout_s=1.0
        )
        with injector.installed(stmaker):
            batch = stmaker.summarize_many(
                small, k=2, workers=2, shard_size=1, executor="process",
                shard_retry=policy,
            )
        assert batch.ok_count == len(small) - 1
        [entry] = batch.quarantined
        assert entry.trajectory_id == poison
        assert entry.error_type == "WorkerCrashError"
        assert "(hang)" in entry.error


# -- the differential half: both executors reach the serial verdicts ---------


class TestChaosDifferential:
    def test_crash_verdicts_match_serial(self, stmaker, corpus, clean_obs):
        """Serial, thread, and process executors must quarantine the same
        items for the same typed reason under the same crash faults."""
        poisons = {corpus[2].trajectory_id, corpus[5].trajectory_id}

        def run(workers: int):
            injector = FaultInjector(_crash_specs(*sorted(poisons)))
            with injector.installed(stmaker):
                if workers == 1:
                    return stmaker.summarize_many(corpus, k=2)
                return stmaker.summarize_many(
                    corpus, k=2, workers=workers, shard_size=2,
                    executor=EXECUTOR, shard_retry=FAST_RETRY,
                )

        serial, parallel = run(1), run(WORKERS)
        assert _verdicts(serial) == {
            (i, raw.trajectory_id, "WorkerCrashError")
            for i, raw in enumerate(corpus)
            if raw.trajectory_id in poisons
        }
        assert _verdicts(parallel) == _verdicts(serial)
        assert parallel.ok_count == serial.ok_count
        _assert_healthy_match_serial(serial, parallel, poisons)
        # Sanitization reports match wherever an item actually ran.
        for i, raw in enumerate(corpus):
            if raw.trajectory_id not in poisons:
                assert parallel.sanitization[i] == serial.sanitization[i]
        if EXECUTOR == "thread":
            # In-parent crash faults raise, so even the messages agree.
            assert parallel.quarantined == serial.quarantined

    def test_fault_free_supervised_run_matches_serial_exactly(
        self, stmaker, corpus, clean_obs
    ):
        """Supervision must be invisible when nothing crashes: full
        element-wise equality, including batch telemetry totals."""
        serial_registry = obs.enable_metrics(MetricsRegistry())
        serial = stmaker.summarize_many(corpus, k=2)
        obs.disable_metrics()

        registry = obs.enable_metrics(MetricsRegistry())
        parallel = stmaker.summarize_many(
            corpus, k=2, workers=WORKERS, shard_size=2, executor=EXECUTOR,
            shard_retry=FAST_RETRY,
        )
        assert parallel.ok_count == serial.ok_count
        assert parallel.quarantined == serial.quarantined
        assert parallel.sanitization == serial.sanitization
        for ours, theirs in zip(parallel.summaries, serial.summaries, strict=True):
            assert ours.trajectory_id == theirs.trajectory_id
            assert ours.text == theirs.text
            assert ours.partitions == theirs.partitions
        for name in ("resilience.batch.items", "resilience.batch.quarantined"):
            ours = registry.get(name)
            theirs = serial_registry.get(name)
            assert (ours.value if ours else 0.0) == (
                theirs.value if theirs else 0.0
            )
        # No containment machinery fired on a healthy batch.
        assert registry.get("serving.crashes") is None
        assert registry.get("serving.retried_shards") is None


# -- warm pools: reuse across calls never weakens containment -----------------


def _idle(workers: int) -> list:
    with supervisor._idle_lock:
        return list(supervisor._idle_pools.get(workers, ()))


def _count(registry: MetricsRegistry, name: str) -> float:
    metric = registry.get(name)
    return metric.value if metric is not None else 0.0


@pytest.fixture()
def no_idle_pools():
    """Start with no idle pools, so every pool a test sees is its own."""
    with supervisor._idle_lock:
        pools = [p for group in supervisor._idle_pools.values() for p in group]
        supervisor._idle_pools.clear()
    for pool in pools:
        pool.shutdown(wait=True)


class TestWarmPool:
    def test_crash_replaces_the_pool_and_the_next_batch_runs_warm(
        self, stmaker, corpus, clean_obs, no_idle_pools
    ):
        """Clean, poison, clean, clean on one-worker pools.  The poison is
        contained as on a fresh pool; its crash replaces the warm pool,
        whose worker is joined; the replacement's worker loads the
        artifact exactly once, and a warm pool loads nothing.  (A worker
        that crashes takes its telemetry with it, so only the surviving
        pool's loads are countable.)"""
        serial = stmaker.summarize_many(corpus, k=2)
        poison = corpus[3].trajectory_id

        def run(*poisons: str):
            registry = obs.enable_metrics(MetricsRegistry())
            try:
                with FaultInjector(_crash_specs(*poisons)).installed(stmaker):
                    batch = stmaker.summarize_many(
                        corpus, k=2, workers=1, shard_size=2,
                        executor="process", shard_retry=FAST_RETRY,
                    )
            finally:
                obs.disable_metrics()
            return batch, registry

        first, registry = run()
        assert first.ok_count == len(corpus)
        assert _count(registry, "artifact.loads") == 1.0
        [warm] = _idle(1)
        warm_pids = set(warm._processes)

        chaotic, registry = run(poison)
        assert _verdicts(chaotic) == {(3, poison, "WorkerCrashError")}
        _assert_healthy_match_serial(serial, chaotic, {poison})
        assert _count(registry, "serving.crashes") >= 1.0
        [replacement] = _idle(1)
        assert replacement is not warm
        # A pool starts its worker at its first shard.
        started_in_poison_batch = bool(replacement._processes)
        live = {child.pid for child in multiprocessing.active_children()}
        assert not warm_pids & live, "the broken pool's worker was joined"

        third, registry = run()
        assert third.quarantined == serial.quarantined
        assert [s.text for s in third.summaries] == [
            s.text for s in serial.summaries
        ]
        assert [s.partitions for s in third.summaries] == [
            s.partitions for s in serial.summaries
        ]
        # The replacement worker loads the artifact once, in whichever
        # batch it first ran.
        assert _count(registry, "artifact.loads") == (
            0.0 if started_in_poison_batch else 1.0
        )
        assert _idle(1) == [replacement]

        _, registry = run()
        assert _count(registry, "artifact.loads") == 0.0
        assert _idle(1) == [replacement]

    def test_idle_pool_that_lost_a_worker_is_not_handed_out(
        self, stmaker, corpus, clean_obs, no_idle_pools
    ):
        """A worker killed while its pool sits idle (the OOM killer) must
        not cost the next call anything: that call runs strict with no
        retries, so a charge or a ``BrokenProcessPool`` would raise."""
        stmaker.summarize_many(
            corpus[:4], k=2, workers=2, shard_size=1, executor="process"
        )
        [pool] = _idle(2)
        victim = next(iter(pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        for _ in range(100):
            if not victim.is_alive():
                break
            time.sleep(0.05)
        batch = stmaker.summarize_many(
            corpus[:4], k=2, workers=2, shard_size=1, executor="process",
            shard_retry=NO_RETRY, strict=True,
        )
        assert batch.ok_count == 4
        [fresh] = _idle(2)
        assert fresh is not pool

    def test_pool_that_breaks_before_a_submit_is_replaced(
        self, stmaker, corpus, clean_obs, no_idle_pools, monkeypatch
    ):
        """A worker that dies after the checkout, before the next submit,
        breaks the pool under the call: ``submit`` raises.  That is a pool
        incident, not an error of the call: the unsubmitted shard goes
        back uncharged, the pool is replaced, and a strict call with no
        retries comes back whole."""
        stmaker.summarize_many(
            corpus[:4], k=2, workers=2, shard_size=1, executor="process"
        )
        with supervisor._idle_lock:
            [pool] = supervisor._idle_pools.pop(2)
        victim = next(iter(pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        for _ in range(200):
            if pool._broken:
                break
            time.sleep(0.05)
        assert pool._broken
        # Hand the broken pool out as if the worker died just after the
        # checkout's liveness check.
        monkeypatch.setattr(supervisor, "_checkout", lambda workers: pool)
        batch = stmaker.summarize_many(
            corpus, k=2, workers=2, shard_size=1, executor="process",
            shard_retry=NO_RETRY, strict=True,
        )
        assert batch.ok_count == len(corpus) and batch.quarantined == []
        [fresh] = _idle(2)
        assert fresh is not pool

    def test_concurrent_callers_never_share_a_pool(
        self, stmaker, corpus, clean_obs, no_idle_pools
    ):
        """Two threads run process batches at once while one warm pool is
        idle; only A's batch holds a poison.  B runs strict with no
        retries on one-item shards, so a single charge against any of its
        shards would raise: it must come back whole, because only one of
        the two calls gets the idle pool and the other starts its own."""
        stmaker.summarize_many(
            corpus[:2], k=2, workers=2, shard_size=1, executor="process"
        )
        assert len(_idle(2)) == 1
        poisoned = stmaker.with_config(stmaker.config)
        poison = corpus[1].trajectory_id
        barrier = threading.Barrier(2)
        results: dict[str, object] = {}

        def call(name: str, fn) -> None:
            barrier.wait()
            try:
                results[name] = fn()
            except Exception as exc:  # reported by the assertions below
                results[name] = exc

        with FaultInjector(_crash_specs(poison)).installed(poisoned):
            threads = [
                threading.Thread(target=call, args=("a", lambda: poisoned.summarize_many(
                    corpus[:4], k=2, workers=2, shard_size=1,
                    executor="process", shard_retry=NO_RETRY,
                ))),
                threading.Thread(target=call, args=("b", lambda: stmaker.summarize_many(
                    corpus, k=2, workers=2, shard_size=1,
                    executor="process", shard_retry=NO_RETRY, strict=True,
                ))),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
                assert not thread.is_alive()

        a, b = results["a"], results["b"]
        assert not isinstance(b, Exception), b
        assert b.ok_count == len(corpus) and b.quarantined == []
        assert not isinstance(a, Exception), a
        assert _verdicts(a) == {(1, poison, "WorkerCrashError")}
        assert len(_idle(2)) == 2

    def test_forked_child_starts_with_no_idle_pools(self, stmaker, corpus):
        stmaker.summarize_many(corpus[:2], k=2, workers=2, executor="process")
        assert _idle(2)
        with warnings.catch_warnings():
            # The idle pool's threads are alive; the child touches none.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if not any(supervisor._idle_pools.values()) else 3
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert _idle(2), "the parent keeps its pool"
