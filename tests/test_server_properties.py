"""Property and stress tests for the request queue and hot caches.

These pin the front-end's *mechanical* contracts — the differential
suite pins its bytes:

* FIFO within a tenant; weighted round-robin across tenants; no
  starvation however lopsided the backlog.
* Bounded everything: queue ``put`` over capacity is a typed
  :class:`OverloadError`; the LRU never exceeds its capacity and counts
  its evictions.
* Deadlines expire as typed ``DeadlineExceeded`` quarantine entries — a
  shed, never a hang.
* Cache keys carry the artifact fingerprint; a model swap invalidates.
* ``hits + misses == lookups`` holds exactly under 8-thread concurrency.
* Lifecycle edges: submit before start / after stop, non-draining stop
  abandoning the backlog with typed errors, exactly-once settlement.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.exceptions import (
    ConfigError,
    OverloadError,
    ServerClosedError,
    TransientError,
)
from repro.resilience import FaultInjector, FaultSpec, RetryPolicy
from repro.server import (
    MISS,
    HotQueryCaches,
    LRUCache,
    RequestQueue,
    ServerConfig,
    SummarizationServer,
)

TIMEOUT_S = 120.0


@pytest.fixture(scope="module")
def corpus(scenario):
    rng = np.random.default_rng(99)
    trips = scenario.simulate_trips(3, depart_time=8.5 * 3600.0, rng=rng)
    return [trip.raw for trip in trips]


# -- queue ordering -----------------------------------------------------------


def test_fifo_within_tenant():
    queue: RequestQueue[int] = RequestQueue(capacity=16)
    for i in range(10):
        queue.put("a", i)
    taken = [queue.take(timeout=0.0) for _ in range(10)]
    assert taken == [("a", i) for i in range(10)]


def test_weighted_round_robin_interleave():
    """Weight 2 vs 1 drains as a, a, b, a, a, b, ... deterministically."""
    queue: RequestQueue[str] = RequestQueue(capacity=16, weights={"a": 2})
    for i in range(4):
        queue.put("a", f"a{i}")
    for i in range(2):
        queue.put("b", f"b{i}")
    order = [queue.take(timeout=0.0) for _ in range(6)]
    assert order == [
        ("a", "a0"), ("a", "a1"), ("b", "b0"),
        ("a", "a2"), ("a", "a3"), ("b", "b1"),
    ]


def test_no_starvation_under_lopsided_backlog():
    """A 40-deep heavy tenant cannot starve a 5-deep light one."""
    queue: RequestQueue[int] = RequestQueue(capacity=64)
    for i in range(40):
        queue.put("heavy", i)
    for i in range(5):
        queue.put("light", i)
    positions = {
        (tenant, entry): pos
        for pos in range(45)
        for tenant, entry in [queue.take(timeout=0.0)]
    }
    light_last = max(
        pos for (tenant, _), pos in positions.items() if tenant == "light"
    )
    # Equal weights alternate the lanes: every light request is served
    # within the first 2 * 5 takes, not after the 40-deep backlog.
    assert light_last < 10


def test_rotation_skips_emptied_lanes():
    queue: RequestQueue[int] = RequestQueue(capacity=16, weights={"a": 3})
    queue.put("a", 0)
    queue.put("b", 1)
    assert queue.take(timeout=0.0) == ("a", 0)
    assert queue.take(timeout=0.0) == ("b", 1)
    queue.put("b", 2)  # "a" is empty; WRR must not spin on its turn
    assert queue.take(timeout=0.0) == ("b", 2)
    assert queue.take(timeout=0.0) is None


def test_drained_tenant_lanes_are_dropped():
    """Idle tenants cost nothing: a drained lane leaves the queue entirely."""
    queue: RequestQueue[int] = RequestQueue(capacity=32)
    for t in range(12):
        queue.put(f"tenant-{t}", t)
    for _ in range(12):
        assert queue.take(timeout=0.0) is not None
    assert queue.depths() == {}
    # A returning tenant simply re-registers — FIFO + WRR still hold.
    queue.put("tenant-3", 99)
    assert queue.depths() == {"tenant-3": 1}
    assert queue.take(timeout=0.0) == ("tenant-3", 99)
    assert queue.depths() == {}


def test_queue_overflow_is_typed():
    queue: RequestQueue[int] = RequestQueue(capacity=2)
    queue.put("a", 0)
    queue.put("b", 1)
    with pytest.raises(OverloadError, match="request queue is full"):
        queue.put("a", 2)


def test_queue_close_semantics():
    queue: RequestQueue[int] = RequestQueue(capacity=4)
    queue.put("a", 0)
    queue.put("a", 1)
    queue.close()
    with pytest.raises(ServerClosedError):
        queue.put("a", 2)
    # The backlog still drains...
    assert queue.take(timeout=0.0) == ("a", 0)
    assert queue.take(timeout=0.0) == ("a", 1)
    # ...and then take returns None immediately, even with no timeout.
    assert queue.take() is None


def test_queue_validation():
    with pytest.raises(ConfigError):
        RequestQueue(capacity=0)
    with pytest.raises(ConfigError):
        RequestQueue(capacity=4, weights={"a": 0})
    with pytest.raises(ConfigError):
        RequestQueue(capacity=4, default_weight=0)


def test_queue_concurrent_exactly_once():
    """4 producers × 50 entries, 3 consumers: nothing lost, nothing twice."""
    queue: RequestQueue[tuple[int, int]] = RequestQueue(capacity=200)
    taken: list[tuple[str, tuple[int, int]]] = []
    taken_lock = threading.Lock()

    def produce(p: int) -> None:
        for i in range(50):
            queue.put(f"tenant-{p}", (p, i))

    def consume() -> None:
        while True:
            got = queue.take(timeout=1.0)
            if got is None:
                if queue.closed:
                    return
                continue
            with taken_lock:
                taken.append(got)

    consumers = [threading.Thread(target=consume) for _ in range(3)]
    for thread in consumers:
        thread.start()
    producers = [
        threading.Thread(target=produce, args=(p,)) for p in range(4)
    ]
    for thread in producers:
        thread.start()
    for thread in producers:
        thread.join()
    while queue.size:
        threading.Event().wait(0.01)
    queue.close()
    for thread in consumers:
        thread.join()

    assert len(taken) == 200
    assert len(set(taken)) == 200  # no duplicates
    for p in range(4):  # FIFO survived the concurrency, per tenant
        lane = [entry for tenant, entry in taken if tenant == f"tenant-{p}"]
        assert sorted(lane) == [(p, i) for i in range(50)]


# -- LRU cache ----------------------------------------------------------------


def test_lru_bounded_and_counts_evictions():
    cache = LRUCache("test", capacity=4)
    for i in range(10):
        cache.put(i, i * 10)
    assert len(cache) == 4
    stats = cache.stats()
    assert stats["evictions"] == 6
    assert all(i in cache for i in range(6, 10))
    assert all(i not in cache for i in range(6))


def test_lru_get_refreshes_recency():
    cache = LRUCache("test", capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a": now "b" is the LRU tail
    cache.put("c", 3)
    assert "a" in cache and "c" in cache and "b" not in cache


def test_lru_caches_none_values():
    """A cached ``None`` is a hit, not a recomputation trigger."""
    cache = LRUCache("test", capacity=4)
    assert cache.get("unseen-hop") is MISS
    cache.put("unseen-hop", None)
    assert cache.get("unseen-hop") is None
    assert cache.stats()["hits"] == 1


def test_lru_capacity_validation():
    with pytest.raises(ConfigError):
        LRUCache("test", capacity=0)


def test_lru_accounting_exact_under_concurrency():
    """hits + misses == lookups, size <= capacity — 8 threads hammering."""
    cache = LRUCache("test", capacity=32)
    per_thread = 500

    def hammer(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(per_thread):
            key = int(rng.integers(0, 64))
            if cache.get(key) is MISS:
                cache.put(key, key)

    threads = [
        threading.Thread(target=hammer, args=(seed,)) for seed in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == cache.lookups == 8 * per_thread
    assert len(cache) <= 32
    assert stats["hits"] > 0 and stats["misses"] > 0


def test_hot_caches_invalidate_on_fingerprint_change():
    caches = HotQueryCaches("fp-a", route_capacity=8, anchor_capacity=8)
    caches.routes.put(("fp-a", 1, 2), ["hop"])
    caches.anchors.put(("fp-a", 1, 2, "speed"), 13.5)

    assert caches.invalidate("fp-a") is False  # same model: keep warm
    assert len(caches.routes) == 1

    assert caches.invalidate("fp-b") is True
    assert caches.fingerprint == "fp-b"
    assert len(caches.routes) == 0 and len(caches.anchors) == 0
    assert caches.invalidations == 1
    assert caches.stats()["fingerprint"] == "fp-b"


def test_cached_view_fingerprint_matches_artifact(scenario, tmp_path):
    """The cache fingerprint is the artifact fingerprint — same bytes."""
    from repro.artifact import artifact_info, save_artifact
    from repro.server import model_fingerprint

    path = tmp_path / "fp-check.stm"
    save_artifact(scenario.stmaker, path)
    assert model_fingerprint(scenario.stmaker) == artifact_info(path).fingerprint


def test_view_keys_pin_build_time_fingerprint():
    """A view racing a model swap cannot poison the new model's cache.

    The fingerprint in a cache key is captured when the view is built,
    not read at lookup time: a request in flight across
    ``invalidate(new_fp)`` computes from the OLD model, so its writes
    must land under the old (already cleared) fingerprint — never under
    the new one, where later requests would mistake them for new-model
    values.
    """
    from repro.server.cache import _CachingFeatureMap

    class _StubMap:
        def regular_value(self, src: int, dst: int, key: str) -> float:
            return 42.0

    caches = HotQueryCaches("fp-old", route_capacity=8, anchor_capacity=8)
    view_map = _CachingFeatureMap(_StubMap(), caches, caches.fingerprint)
    # The swap happens while this view's request is still in flight.
    assert caches.invalidate("fp-new") is True
    assert view_map.regular_value(1, 2, "speed") == 42.0
    assert ("fp-old", 1, 2, "speed") in caches.anchors  # straggler, dead key
    assert ("fp-new", 1, 2, "speed") not in caches.anchors  # never poisoned


# -- server lifecycle and deadlines -------------------------------------------


def test_submit_before_start_and_after_stop_raise(scenario, corpus):
    server = SummarizationServer(scenario.stmaker, ServerConfig())
    with pytest.raises(ServerClosedError, match="not running"):
        server.submit(corpus)
    server.start()
    server.stop()
    with pytest.raises(ServerClosedError, match="not running"):
        server.submit(corpus)
    # The queue is closed for good: restarting would yield a server that
    # claims to run but can never serve — refuse it loudly instead.
    with pytest.raises(ServerClosedError, match="cannot be restarted"):
        server.start()
    assert server.running is False


def test_stop_clears_ops_readiness(scenario):
    """/readyz must stop answering 200 once the front-end is gone."""
    from repro import obs

    ops = obs.start_ops_server(port=0)
    try:
        with SummarizationServer(scenario.stmaker, ServerConfig()):
            assert ops.is_ready() is True
        assert ops.is_ready() is False
    finally:
        obs.stop_ops_server()


def test_negative_deadline_rejected_without_leaking_admission(scenario, corpus):
    """A bad per-request deadline fails fast and releases no-op cleanly:
    the admission ticket must not be consumed (it was never taken)."""
    config = ServerConfig(max_queued_items=len(corpus))
    with SummarizationServer(scenario.stmaker, config) as server:
        for _ in range(3):  # a leak would exhaust the budget by round 2
            with pytest.raises(ConfigError, match="deadline budget"):
                server.submit(corpus, deadline_s=-1.0)
        assert server.admission.queued_items == 0
        # The full item budget is still there: a valid submit sails through.
        handle = server.submit(corpus)
        assert handle.result(timeout=TIMEOUT_S).ok_count == len(corpus)


def test_expired_deadline_is_typed_shed_not_hang(scenario, corpus):
    """deadline_s=0 resolves promptly with DeadlineExceeded quarantines."""
    with SummarizationServer(scenario.stmaker, ServerConfig()) as server:
        handle = server.submit(corpus, deadline_s=0.0)
        result = handle.result(timeout=TIMEOUT_S)
    assert result.ok_count == 0
    assert result.quarantined_count == len(corpus)
    for entry in result.quarantined:
        assert entry.error_type == "DeadlineExceeded"
        assert entry.attempts == 0


def test_ledger_settles_before_the_handle(scenario, corpus, monkeypatch):
    """A caller woken by its handle already sees the request accounted for:
    served, not in flight, ticket released, ``request_done`` emitted."""
    from repro import obs
    from repro.server import RequestHandle

    log = obs.EventLog()
    obs.enable_events().subscribe(log)
    seen = []
    resolve = RequestHandle._resolve

    def snapshot_then_resolve(handle, result):
        stats = server.stats()
        seen.append((
            stats["served"], stats["in_flight"],
            server.admission.queued_items, len(log.events("request_done")),
        ))
        resolve(handle, result)

    monkeypatch.setattr(RequestHandle, "_resolve", snapshot_then_resolve)
    with SummarizationServer(scenario.stmaker, ServerConfig()) as server:
        server.submit(corpus).result(timeout=TIMEOUT_S)
    assert seen == [(1, 0, 0, 1)]


def test_tenant_deadline_defaults_apply(scenario, corpus):
    config = ServerConfig(tenant_deadline_s={"impatient": 0.0})
    with SummarizationServer(scenario.stmaker, config) as server:
        strict_handle = server.submit(corpus, tenant="impatient")
        lax_handle = server.submit(corpus, tenant="patient")
        strict_result = strict_handle.result(timeout=TIMEOUT_S)
        lax_result = lax_handle.result(timeout=TIMEOUT_S)
    assert all(
        e.error_type == "DeadlineExceeded" for e in strict_result.quarantined
    )
    assert strict_result.ok_count == 0
    assert lax_result.ok_count == len(corpus)


@contextmanager
def _blocked_consumer(scenario, corpus, config):
    """A running server whose single consumer is parked inside a request.

    A fault injector turns every attempt into a TransientError and the
    retry sleeper blocks on an Event, so the consumer sits in the first
    request until the test releases it — making "requests stuck behind
    the head of the queue" deterministic.  Yields
    ``(server, blocker_handle, release_event)``.
    """
    entered = threading.Event()
    release = threading.Event()

    def blocking_sleeper(delay: float) -> None:
        entered.set()
        release.wait(timeout=TIMEOUT_S)

    retry = RetryPolicy(max_retries=1, backoff_base_s=0.05)
    injector = FaultInjector(
        [FaultSpec(stage="extract", error=TransientError, times=None)]
    )
    server = SummarizationServer(scenario.stmaker, config)
    with injector.installed(scenario.stmaker):
        server.start()
        blocker = server.submit(
            corpus[:1], retry=retry, sleeper=blocking_sleeper
        )
        assert entered.wait(timeout=TIMEOUT_S)
        try:
            yield server, blocker, release
        finally:
            release.set()
            if server.running:
                server.stop()


def test_queue_full_submit_sheds_typed(scenario, corpus):
    config = ServerConfig(consumers=1, max_queue_requests=1)
    with _blocked_consumer(scenario, corpus, config) as (
        server, blocker, release,
    ):
        queued = server.submit(corpus[:1])  # fills the 1-deep queue
        with pytest.raises(OverloadError, match="request queue is full"):
            server.submit(corpus[:1])
        assert server.stats()["shed"] == 1
        release.set()
        server.stop()
    # Both surviving requests settled (as quarantined results — the
    # injector stayed armed — but settled exactly once, never hung).
    assert blocker.result(timeout=TIMEOUT_S) is not None
    assert queued.result(timeout=TIMEOUT_S) is not None


def test_stop_without_drain_fails_backlog_typed(scenario, corpus):
    config = ServerConfig(consumers=1, max_queue_requests=8)
    with _blocked_consumer(scenario, corpus, config) as (
        server, blocker, release,
    ):
        abandoned = [server.submit(corpus[:1]) for _ in range(3)]
        release.set()
        server.stop(drain=False)
        for handle in abandoned:
            with pytest.raises(ServerClosedError, match="server stopped"):
                handle.result(timeout=TIMEOUT_S)
        # The in-flight request still settled normally — exactly once.
        assert blocker.result(timeout=TIMEOUT_S) is not None
        stats = server.stats()
        assert stats["submitted"] == 4
        assert stats["served"] + stats["failed"] == 4
        assert server.admission.queued_items == 0  # every ticket released


def test_admission_rejects_over_budget_typed(scenario, corpus):
    config = ServerConfig(max_queued_items=2)
    with SummarizationServer(scenario.stmaker, config) as server:
        with pytest.raises(OverloadError):
            server.submit(corpus)  # 3 items > 2-item budget
        assert server.stats()["shed"] == 1
    # A priority at/above the bypass floor must still get through.
    config = ServerConfig(max_queued_items=2, bypass_priority=5)
    with SummarizationServer(scenario.stmaker, config) as server:
        handle = server.submit(corpus, priority=5)
        assert handle.result(timeout=TIMEOUT_S).ok_count == len(corpus)


def test_status_section_shape(scenario, corpus):
    from repro import obs

    with SummarizationServer(scenario.stmaker, ServerConfig()) as server:
        assert "server" in obs.status_sections()
        server.submit(corpus).result(timeout=TIMEOUT_S)
        section = server.status_section()
        assert section["running"] is True
        assert section["queue"]["capacity"] == 64
        assert section["requests"]["served"] == 1
        assert section["caches"]["fingerprint"] == server.caches.fingerprint
    assert "server" not in obs.status_sections()


def test_ops_status_reports_server_block(scenario, corpus):
    """The ops /status page carries the server section end to end."""
    import json
    from urllib.request import urlopen

    from repro import obs

    obs.enable_metrics()
    server = obs.start_ops_server(port=0)
    try:
        with SummarizationServer(scenario.stmaker, ServerConfig()) as front:
            front.submit(corpus).result(timeout=TIMEOUT_S)
            payload = json.loads(
                urlopen(f"{server.url}/status", timeout=10.0).read()
            )
        assert payload["server"]["requests"]["served"] == 1
        assert payload["server"]["queue"]["depth"] == 0
    finally:
        obs.stop_ops_server()


def test_status_section_registry_guards():
    from repro import obs

    with pytest.raises(ValueError, match="reserved"):
        obs.register_status_section("ops", dict)
    obs.register_status_section("broken", lambda: 1 / 0)
    server = obs.start_ops_server(port=0)
    try:
        payload = server.status()
        assert payload["broken"] == {"error": "ZeroDivisionError: division by zero"}
    finally:
        obs.stop_ops_server()
        obs.unregister_status_section("broken")
    assert "broken" not in obs.status_sections()


def test_server_config_validation():
    with pytest.raises(ConfigError):
        ServerConfig(executor="fiber")
    with pytest.raises(ConfigError):
        ServerConfig(shard_size=0)
    with pytest.raises(ConfigError):
        ServerConfig(consumers=0)
    with pytest.raises(ConfigError):
        ServerConfig(max_queue_requests=0)
    with pytest.raises(ConfigError):
        ServerConfig(shed="explode")
    with pytest.raises(ConfigError):
        ServerConfig(tenant_weights={"a": 0})
    with pytest.raises(ConfigError):
        ServerConfig(default_deadline_s=-1.0)
    with pytest.raises(ConfigError):
        ServerConfig(tenant_deadline_s={"a": -1.0})
