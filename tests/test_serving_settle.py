"""Every batch item settles exactly once, in the caller's process.

The batch runner's per-outcome callback is the one publisher of a
settled item: the ``resilience.batch.items``/``.ok``/``.quarantined``
counters, one ``resilience.item.latency_ms`` observation, the
``quarantine`` event, the ``item_end`` event, then the ``progress``
event.  Each path below must publish exactly that per counted item —
serial, process pools of 2 and 4 workers, a process batch whose poison
shard is crash-quarantined by the supervisor, and the breaker's degraded
in-parent path — and none of it may arrive relayed from a worker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.exceptions import TransientError
from repro.obs import SLObjective, SLOEngine
from repro.obs.metrics import MetricsRegistry
from repro.resilience import FaultInjector, FaultSpec, RetryPolicy
from repro.resilience.faultinject import InjectedFault
from repro.serving import CircuitBreaker, ShardRetryPolicy
from repro.trajectory import RawTrajectory

POISON = 3

#: One fast retry, so the transient poison also exercises the retry path.
ONE_RETRY = RetryPolicy(max_retries=1, backoff_base_s=0.0)

NO_RETRY = ShardRetryPolicy(max_retries=0, backoff_base_s=0.0)

PROCESS = {"executor": "process"}


def _open_breaker() -> CircuitBreaker:
    breaker = CircuitBreaker(
        "settle-test", min_volume=2, cooldown_s=1e9, clock=lambda: 0.0
    )
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "open"
    return breaker


#: path name -> (summarize_many options, poison fault kind).  A
#: ``"transient"`` poison is quarantined by the item loop wherever it
#: runs; a ``"crash"`` poison kills its worker process and is
#: quarantined by the supervisor.
PATHS = {
    "serial": ({}, "transient"),
    "process-2": ({**PROCESS, "workers": 2}, "transient"),
    "process-4": ({**PROCESS, "workers": 4}, "transient"),
    "process-crash": (
        {**PROCESS, "workers": 2, "shard_size": 2, "shard_retry": NO_RETRY},
        "crash",
    ),
    "degraded": ({**PROCESS, "workers": 2, "shard_size": 2}, "transient"),
}


@pytest.fixture(scope="module")
def corpus(scenario) -> list[RawTrajectory]:
    rng = np.random.default_rng(21)
    sims = [
        scenario.simulate_trips(1, depart_time=(7.0 + 0.5 * i) * 3600.0, rng=rng)[0]
        for i in range(6)
    ]
    return [RawTrajectory(s.raw.points, f"st-{i:02d}") for i, s in enumerate(sims)]


@pytest.fixture()
def sinks():
    registry = obs.enable_metrics(MetricsRegistry())
    log = obs.EventLog()
    obs.enable_events().subscribe(log)
    yield registry, log
    obs.disable_metrics()
    obs.disable_tracing()
    obs.disable_events()


def _poison_spec(trajectory_id: str, kind: str) -> FaultSpec:
    if kind == "crash":
        return FaultSpec(
            stage="extract", kind="crash", times=None, trajectory_id=trajectory_id
        )
    return FaultSpec(
        stage="extract", error=TransientError, times=None,
        trajectory_id=trajectory_id,
    )


def _run(stmaker, corpus, path: str, **extra):
    options, kind = PATHS[path]
    if path == "degraded":
        options = {**options, "breaker": _open_breaker()}
    injector = FaultInjector([_poison_spec(corpus[POISON].trajectory_id, kind)])
    with injector.installed(stmaker):
        return stmaker.summarize_many(
            corpus, k=2, retry=ONE_RETRY, **options, **extra
        )


def _settle_kinds(log) -> list[str]:
    return [
        e.kind for e in log if e.kind in ("quarantine", "item_end", "progress")
    ]


@pytest.mark.parametrize("path", list(PATHS))
def test_each_counted_item_settles_once(scenario, corpus, path, sinks):
    registry, log = sinks
    batch = _run(scenario.stmaker, corpus, path)

    assert [e.index for e in batch.quarantined] == [POISON]
    counted = registry.counter("resilience.batch.items").value
    assert counted == len(corpus)
    assert registry.counter("resilience.batch.ok").value == batch.ok_count
    assert (
        registry.counter("resilience.batch.quarantined").value
        == batch.quarantined_count
    )
    assert registry.histogram("resilience.item.latency_ms").count == counted
    assert len(log.events("item_end")) == counted
    assert len(log.events("progress")) == counted
    quarantines = log.events("quarantine")
    assert [e.trajectory_id for e in quarantines] == [
        e.trajectory_id for e in batch.quarantined
    ]
    # Per item, in this order: quarantine (when it failed), item_end,
    # progress.
    expected: list[str] = []
    for event in log.events("item_end"):
        if not event.payload["ok"]:
            expected.append("quarantine")
        expected += ["item_end", "progress"]
    assert _settle_kinds(log) == expected
    # Emitted by the caller, never relayed from a worker.
    for event in log.events("item_end") + quarantines:
        assert not [key for key in event.payload if key.startswith("relay_")]
    if path == "degraded":
        assert registry.counter("serving.breaker.denied_shards").value == 3.0


@pytest.mark.parametrize("path", ["serial", "process-2"])
def test_slo_engine_sees_one_sample_per_item(scenario, corpus, path, sinks):
    engine = SLOEngine(
        [SLObjective(name="p95", kind="latency_p95", threshold_ms=5000.0)]
    )
    obs.enable_events().subscribe(engine)
    batch = _run(scenario.stmaker, corpus, path)
    assert batch.ok_count + batch.quarantined_count == len(corpus)
    assert engine.snapshot()["samples"] == len(corpus)


def test_strict_batch_counts_only_the_items_before_the_raise(
    scenario, corpus, sinks
):
    """The item that raises never settles: items before it do."""
    registry, log = sinks
    injector = FaultInjector([FaultSpec(
        stage="calibrate", times=None,
        trajectory_id=corpus[POISON].trajectory_id,
    )])
    with injector.installed(scenario.stmaker), pytest.raises(InjectedFault):
        scenario.stmaker.summarize_many(corpus, k=2, strict=True)
    assert registry.counter("resilience.batch.items").value == POISON
    assert registry.histogram("resilience.item.latency_ms").count == POISON
    assert len(log.events("item_end")) == POISON
    assert len(log.events("progress")) == POISON
