"""Declarative configuration for the summarization server.

One frozen dataclass carries everything the front-end needs: queue
bounds and tenant weights, deadline defaults, the serving-path knobs it
forwards to :meth:`~repro.core.STMaker.summarize_many` (workers, shard
size, executor), and the admission budget it builds its
:class:`~repro.serving.AdmissionController` from.  Validation happens at
construction, so a bad config fails at server build time, not on the
first request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.exceptions import ConfigError
from repro.serving import AdmissionController, AdmissionPolicy, validate_pool_shape

#: Tenant a request submitted without one is accounted to.
DEFAULT_TENANT = "default"


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """Everything a :class:`~repro.server.SummarizationServer` is built from.

    Queue semantics: requests are FIFO within a tenant and drained by
    weighted round-robin across tenants (``tenant_weights``; unlisted
    tenants weigh ``1``).  ``max_queue_requests`` bounds the *queue* in
    requests; ``max_queued_items`` bounds *admission* in items (the same
    budget :class:`~repro.serving.AdmissionPolicy` enforces for direct
    ``summarize_many`` callers), with per-tenant ``tenant_budgets`` on
    top.  ``default_deadline_s`` / ``tenant_deadline_s`` start counting
    at enqueue — time spent queued eats the request's budget.
    """

    #: Max requests queued across all tenants; submits beyond raise
    #: :class:`~repro.exceptions.OverloadError`.
    max_queue_requests: int = 64
    #: Weighted-round-robin weight per tenant (missing tenants weigh 1).
    tenant_weights: Mapping[str, int] = field(default_factory=dict)
    #: Per-request deadline budget (seconds from enqueue); ``None`` = none.
    default_deadline_s: float | None = None
    #: Per-tenant overrides of ``default_deadline_s``.
    tenant_deadline_s: Mapping[str, float] = field(default_factory=dict)
    #: Consumer threads draining the queue.
    consumers: int = 1
    #: ``summarize_many`` pool shape used to serve each request;
    #: ``workers`` and ``shard_size`` only take effect with
    #: ``executor="process"`` (a ``"thread"`` request runs serially in
    #: its consumer thread).
    workers: int = 1
    shard_size: int | None = None
    executor: str = "thread"
    #: Admission budget in items (``None`` = unbounded globally).
    max_queued_items: int | None = None
    #: Per-tenant admission budgets in items.
    tenant_budgets: Mapping[str, int] = field(default_factory=dict)
    #: What to do with work over budget: ``"reject"`` or ``"degrade"``.
    shed: str = "reject"
    #: Partition count served under ``shed="degrade"``.
    degrade_k: int = 1
    #: Requests at or above this priority skip admission budgets.
    bypass_priority: int | None = None
    #: Route each sharded process request through the ``serving.process``
    #: circuit breaker (:func:`repro.serving.get_breaker`).
    breaker: bool = False

    def __post_init__(self) -> None:
        if self.max_queue_requests < 1:
            raise ConfigError(
                f"max_queue_requests must be >= 1, got {self.max_queue_requests}"
            )
        if self.consumers < 1:
            raise ConfigError(f"consumers must be >= 1, got {self.consumers}")
        validate_pool_shape(
            workers=self.workers, shard_size=self.shard_size,
            executor=self.executor,
        )
        self.build_admission()
        for tenant, weight in self.tenant_weights.items():
            if weight < 1:
                raise ConfigError(
                    f"tenant weight must be >= 1, got {weight} for {tenant!r}"
                )
        if self.default_deadline_s is not None and not self.default_deadline_s >= 0.0:
            raise ConfigError(
                f"default_deadline_s must be >= 0, got {self.default_deadline_s}"
            )
        for tenant, deadline in self.tenant_deadline_s.items():
            if not deadline >= 0.0:
                raise ConfigError(
                    f"tenant deadline must be >= 0, got {deadline} for {tenant!r}"
                )

    def build_admission(self) -> AdmissionController:
        """A fresh admission controller; checks the admission fields."""
        return AdmissionController(
            AdmissionPolicy(
                max_queued_items=self.max_queued_items,
                shed=self.shed,
                degrade_k=self.degrade_k,
                bypass_priority=self.bypass_priority,
            ),
            tenant_budgets=dict(self.tenant_budgets),
        )
