"""Request front-end for long-lived summarization serving.

Every earlier layer drives :meth:`~repro.core.STMaker.summarize_many`
directly, one batch at a time.  This package is the front door a
long-lived process puts in front of it:

* :class:`~repro.server.config.ServerConfig` — declarative queue,
  deadline, cache, admission, and serving-path configuration;
* :class:`~repro.server.queue.RequestQueue` — bounded multi-tenant
  intake, FIFO within a tenant, weighted round-robin across tenants;
* :class:`~repro.server.frontend.SummarizationServer` /
  :class:`~repro.server.frontend.RequestHandle` — submit batches from
  any thread, consumer threads serve admitted work through
  ``summarize_many``, which forwards every request to the one batch
  runner, :func:`repro.serving.run_sharded` (serial in the consumer
  thread under ``executor="thread"``, a process pool otherwise;
  admission and circuit breaking consumed from :mod:`repro.serving`, not
  reinvented).
  The pool-shape fields of the config are checked by the runner's own
  validator (:func:`repro.serving.validate_pool_shape`), so a shape the
  runner would reject fails at server build time;
* :mod:`~repro.server.cache` — bounded LRU hot caches for the paper's
  expensive historical lookups (popular routes, anchor history), keyed
  on ``(artifact_fingerprint, query)``.

The contract — **server ≡ summarize_many**, byte-identical summaries and
quarantine verdicts, cold or warm cache, thread or process executor —
is pinned by ``tests/test_server_differential.py``; the queue/cache laws
by ``tests/test_server_properties.py``; zero lost or duplicated
responses by ``tests/test_server_soak.py``.  See ``docs/SERVING.md``
("Request front-end").
"""

from repro.server.cache import (
    MISS,
    CachingFeatureSelector,
    HotQueryCaches,
    LRUCache,
    cached_view,
    model_fingerprint,
)
from repro.server.config import ServerConfig
from repro.server.frontend import RequestHandle, SummarizationServer
from repro.server.queue import RequestQueue

__all__ = [
    "CachingFeatureSelector",
    "HotQueryCaches",
    "LRUCache",
    "MISS",
    "RequestHandle",
    "RequestQueue",
    "ServerConfig",
    "SummarizationServer",
    "cached_view",
    "model_fingerprint",
]
