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

import os

import numpy as np
import pytest

from repro import obs
from repro.exceptions import WorkerCrashError
from repro.obs.metrics import MetricsRegistry
from repro.resilience import FaultInjector, FaultSpec
from repro.serving import ShardRetryPolicy
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
