"""Sharded parallel batch serving for ``STMaker.summarize_many``.

The paper's pipeline is embarrassingly parallel across trajectories: once
the landmark store and historical feature map are trained, every summary
is an independent pure function of its input.  This package exploits that
without changing semantics:

* :mod:`~repro.serving.sharder` — partition a batch into contiguous
  balanced shards;
* :mod:`~repro.serving.pool` — the one batch runner, :func:`run_sharded`:
  validation, admission, per-item traces, live progress, and
  reassembly; a batch runs serially in the calling thread on one
  deadline (every ``executor="thread"`` batch), or as shards on a
  supervised process pool under per-shard deadline budgets;
* :mod:`~repro.serving.executor` — the one shard loop,
  :func:`run_shard`, over a :class:`ShardTask` whose items all run under
  one :class:`ItemOptions`, and the
  ``executor="process"`` backend: tasks ship to
  :class:`~concurrent.futures.ProcessPoolExecutor` workers carrying a
  city-model **artifact reference** (:mod:`repro.artifact`) instead of
  the model itself, and come back as :class:`ShardResult` s carrying
  the worker's metrics snapshot, span records and events;
* :mod:`~repro.serving.supervisor` — crash containment for the process
  backend: worker death is retried, bisected down to the poison item,
  and quarantined with a typed
  :class:`~repro.exceptions.WorkerCrashError` under a bounded
  :class:`ShardRetryPolicy`, with progress-based hang detection —
  ``BrokenProcessPool`` never reaches the caller;
* :mod:`~repro.serving.breaker` — per-name circuit breakers
  (closed → open → half-open) that route shards to an in-parent
  degraded path during crash storms (:func:`get_breaker`);
* :mod:`~repro.serving.admission` — bounded intake with typed
  :class:`~repro.exceptions.OverloadError` shedding or degrade-to-cheap-``k``,
  per-tenant budgets, and priority bypass;
* :mod:`~repro.serving.ordering` — reassemble per-item outcomes into
  input order regardless of completion order (:func:`reassemble`).

The contract — **parallel ≡ serial** — is pinned by the differential and
property suites (``tests/test_serving_*.py``):
``summarize_many(workers=4, executor="process")`` returns element-wise
identical summaries, degradation reports, quarantine entries and
sanitization reports to ``workers=1``, including under deterministic
fault injection.  The chaos suite (``tests/test_serving_chaos.py``)
extends the contract to crash-grade faults: the same items end up
quarantined, for the same typed reason.  See ``docs/SERVING.md`` and ``docs/ROBUSTNESS.md``.
"""

from repro.serving.admission import (
    SHED_POLICIES,
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    AdmissionTicket,
)
from repro.serving.breaker import (
    BREAKER_STATES,
    CircuitBreaker,
    all_breakers,
    get_breaker,
    reset_breakers,
)
from repro.serving.executor import (
    EXECUTORS,
    ItemOptions,
    ShardResult,
    ShardTask,
    run_shard,
    run_shard_in_process,
)
from repro.serving.ordering import reassemble
from repro.serving.pool import run_sharded, validate_pool_shape
from repro.serving.sharder import Shard, plan_shards
from repro.serving.supervisor import ShardRetryPolicy, supervise_process_shards

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmissionTicket",
    "BREAKER_STATES",
    "CircuitBreaker",
    "EXECUTORS",
    "ItemOptions",
    "SHED_POLICIES",
    "Shard",
    "ShardResult",
    "ShardRetryPolicy",
    "ShardTask",
    "all_breakers",
    "get_breaker",
    "plan_shards",
    "reset_breakers",
    "run_shard",
    "run_shard_in_process",
    "run_sharded",
    "reassemble",
    "supervise_process_shards",
    "validate_pool_shape",
]
