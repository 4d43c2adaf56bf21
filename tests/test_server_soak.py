"""Soak: many requests, several tenants, zero lost or duplicated responses.

``SERVER_SOAK_REQUESTS`` scales the run (default small for the tier-1
suite; CI's server job sets ``>= 500``).  ``SERVING_TEST_EXECUTOR`` /
``SERVING_TEST_WORKERS`` shape the pool each request is served with
(default: the thread executor; CI runs both executors with 4 workers,
so under ``process`` the two consumers each hold a warm pool of their
own for the whole run).  Four tenants with skewed
weights submit concurrently while two consumers drain; every handle must
settle exactly once with the bytes of its corpus — cross-checked three
ways: per-handle results against precomputed direct ``summarize_many``
output, the server's own counters, and the ``request_done`` event stream
(one event per request id, no repeats).
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro import obs
from repro.server import ServerConfig, SummarizationServer

SOAK_REQUESTS = int(os.environ.get("SERVER_SOAK_REQUESTS", "40"))
WORKERS = int(os.environ.get("SERVING_TEST_WORKERS", "1"))
EXECUTOR = os.environ.get("SERVING_TEST_EXECUTOR", "thread")
TENANTS = ("alpha", "beta", "gamma", "delta")
RESULT_TIMEOUT_S = 900.0


def test_soak_exactly_once(scenario):
    rng = np.random.default_rng(1234)
    corpora = [
        [t.raw for t in scenario.simulate_trips(
            2, depart_time=(7.0 + i) * 3600.0, rng=rng
        )]
        for i in range(3)
    ]
    expected = [
        scenario.stmaker.summarize_many(corpus, k=2) for corpus in corpora
    ]

    bus = obs.enable_events()
    log = obs.EventLog()
    bus.subscribe(log)

    config = ServerConfig(
        max_queue_requests=SOAK_REQUESTS + 8,
        tenant_weights={"alpha": 4, "beta": 2},
        consumers=2,
        workers=WORKERS,
        executor=EXECUTOR,
    )
    handles = []
    handles_lock = threading.Lock()

    def submitter(offset: int) -> None:
        # Each submitter thread plays one tenant, cycling the corpora;
        # every 7th request carries an already-expired deadline.
        tenant = TENANTS[offset]
        for i in range(offset, SOAK_REQUESTS, len(TENANTS)):
            corpus_index = i % len(corpora)
            deadline = 0.0 if i % 7 == 6 else None
            handle = server.submit(
                corpora[corpus_index], tenant=tenant, k=2,
                deadline_s=deadline,
            )
            with handles_lock:
                handles.append((handle, corpus_index, deadline))

    with SummarizationServer(scenario.stmaker, config) as server:
        submitters = [
            threading.Thread(target=submitter, args=(offset,))
            for offset in range(len(TENANTS))
        ]
        for thread in submitters:
            thread.start()
        for thread in submitters:
            thread.join()

        results = [
            (handle, handle.result(timeout=RESULT_TIMEOUT_S), corpus_index, deadline)
            for handle, corpus_index, deadline in handles
        ]
        stats = server.stats()

    # Every submitted request settled exactly once, with its own bytes.
    assert len(results) == SOAK_REQUESTS
    for handle, result, corpus_index, deadline in results:
        assert handle.done
        if deadline == 0.0:
            assert result.ok_count == 0
            assert all(
                e.error_type == "DeadlineExceeded" for e in result.quarantined
            )
        else:
            want = expected[corpus_index]
            assert [s.text for s in result.summaries] == [
                s.text for s in want.summaries
            ]
            assert result.quarantined == want.quarantined

    # The server's own ledger agrees: nothing lost, nothing double-counted.
    assert stats["submitted"] == SOAK_REQUESTS
    assert stats["served"] == SOAK_REQUESTS
    assert stats["failed"] == 0 and stats["shed"] == 0
    assert stats["in_flight"] == 0
    assert server.admission.queued_items == 0

    # And so does the event stream: one request_done per request id.
    done_ids = [e.payload["request_id"] for e in log.events("request_done")]
    enqueued_ids = [
        e.payload["request_id"] for e in log.events("request_enqueued")
    ]
    assert len(done_ids) == SOAK_REQUESTS
    assert len(set(done_ids)) == SOAK_REQUESTS
    assert sorted(done_ids) == sorted(enqueued_ids)

    # Weighted fairness left footprints: every tenant got served.
    tenants_done = {e.payload["tenant"] for e in log.events("request_done")}
    assert tenants_done == set(TENANTS)
