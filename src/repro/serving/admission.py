"""Admission control and load shedding for the batch-serving intake.

Unbounded intake is how overload turns into an outage: every queued item
holds memory, every in-flight shard holds a worker, and a service that
accepts everything degrades for *everyone* at once.  This module bounds
the intake and makes the overflow behaviour explicit:

* :class:`AdmissionPolicy` — the declarative budget: how many items may
  be queued at once, how many shards may be in flight inside the pool,
  and what to do with work over budget (``shed="reject"`` raises a typed
  :class:`~repro.exceptions.OverloadError`; ``shed="degrade"`` accepts
  the batch but serves it at the cheap ``degrade_k`` partition count).
  A stateless policy bounds each batch by itself.
* :class:`AdmissionController` — the stateful front door for a process
  serving many concurrent batches: it tracks live queued-item counts,
  globally and per tenant, and admits against the *combined* load.
  Releasing happens through the returned ticket, so a crashed batch
  cannot leak budget.

Both produce an :class:`AdmissionTicket` whose
:class:`AdmissionDecision` tells the caller what was granted; shed and
degrade decisions are reported through ``load_shed`` events and the
``serving.shed_items`` counter so overload is visible on the same
dashboards as crashes and retries.

Priority hook: requests with ``priority >= policy.bypass_priority``
skip the budget checks entirely — the escape hatch for health probes
and operator traffic during an incident.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.exceptions import ConfigError, OverloadError
from repro.obs import emit_event, metrics

#: Supported ``shed=`` policies for work over budget.
SHED_POLICIES = ("reject", "degrade")


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """What the intake granted (rejections raise, they are not returned)."""

    #: ``"accept"``, ``"degrade"``, or ``"bypass"`` (priority skip).
    action: str
    #: Partition count the batch must be served at (``None`` = as asked).
    k_override: int | None = None
    reason: str = ""


class AdmissionTicket:
    """One admitted batch's hold on the intake budget.

    Stateless policies hand out tickets that release nothing; the
    controller's tickets return the queued-item budget on
    :meth:`release` (idempotent, and callable from ``finally``).
    """

    __slots__ = ("decision", "_release", "_released")

    def __init__(self, decision: AdmissionDecision, release=None) -> None:
        self.decision = decision
        self._release = release
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        if self._release is not None:
            self._release()

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


@dataclass(frozen=True, slots=True)
class AdmissionPolicy:
    """Declarative intake budget (see module docstring).

    ``max_queued_items`` bounds how many items one admission may bring
    in; ``max_in_flight_shards`` bounds the serving pool's submission
    window (how many shards are materialized inside the executor at
    once); ``None`` means unbounded.  ``degrade_k`` is the partition
    count used for over-budget batches under ``shed="degrade"`` — the
    cheapest useful summary (``k=1``: one partition, one sentence) by
    default.
    """

    max_queued_items: int | None = None
    max_in_flight_shards: int | None = None
    shed: str = "reject"
    degrade_k: int = 1
    bypass_priority: int | None = None

    def __post_init__(self) -> None:
        if self.shed not in SHED_POLICIES:
            raise ConfigError(
                f"unknown shed policy {self.shed!r}; expected one of {SHED_POLICIES}"
            )
        if self.max_queued_items is not None and self.max_queued_items < 1:
            raise ConfigError(
                f"max_queued_items must be >= 1, got {self.max_queued_items}"
            )
        if self.max_in_flight_shards is not None and self.max_in_flight_shards < 1:
            raise ConfigError(
                f"max_in_flight_shards must be >= 1, got {self.max_in_flight_shards}"
            )
        if self.degrade_k < 1:
            raise ConfigError(f"degrade_k must be >= 1, got {self.degrade_k}")

    def admit(
        self, n_items: int, *, tenant: str | None = None, priority: int = 0
    ) -> AdmissionTicket:
        """Admit a batch of *n_items* against this (stateless) budget.

        Raises :class:`OverloadError` when the batch is over
        ``max_queued_items`` and ``shed="reject"``; returns a degrade
        ticket (with ``k_override``) under ``shed="degrade"``.
        """
        decision = _decide(
            self, n_items, queued_after=n_items,
            budget=self.max_queued_items, scope="batch",
            tenant=tenant, priority=priority,
        )
        return AdmissionTicket(decision)


class AdmissionController:
    """Stateful intake for many concurrent batches (see module docstring).

    *tenant_budgets* maps tenant name → max queued items for that tenant
    (checked on top of the policy's global ``max_queued_items``); like
    that budget, each must be at least 1.
    Thread-safe; budget is held from :meth:`admit` until the ticket's
    :meth:`~AdmissionTicket.release`.
    """

    def __init__(
        self,
        policy: AdmissionPolicy,
        *,
        tenant_budgets: dict[str, int] | None = None,
    ) -> None:
        self.policy = policy
        self.tenant_budgets = dict(tenant_budgets or {})
        for tenant, budget in self.tenant_budgets.items():
            if budget < 1:
                raise ConfigError(
                    f"tenant budget must be >= 1, got {budget} for {tenant!r}"
                )
        self._lock = threading.Lock()
        self._queued = 0
        self._queued_by_tenant: dict[str, int] = {}

    @property
    def max_in_flight_shards(self) -> int | None:
        return self.policy.max_in_flight_shards

    @property
    def queued_items(self) -> int:
        with self._lock:
            return self._queued

    def queued_for(self, tenant: str) -> int:
        with self._lock:
            return self._queued_by_tenant.get(tenant, 0)

    def admit(
        self, n_items: int, *, tenant: str | None = None, priority: int = 0
    ) -> AdmissionTicket:
        """Admit *n_items* against the live global and per-tenant load."""
        with self._lock:
            tenant_budget = (
                self.tenant_budgets.get(tenant) if tenant is not None else None
            )
            if tenant_budget is not None:
                tenant_after = self._queued_by_tenant.get(tenant, 0) + n_items
                decision = _decide(
                    self.policy, n_items, queued_after=tenant_after,
                    budget=tenant_budget, scope=f"tenant {tenant!r}",
                    tenant=tenant, priority=priority,
                )
                if decision.action != "accept":
                    # Bypass/degrade short-circuits the global check: the
                    # verdict is already the most permissive/most degraded.
                    self._charge(n_items, tenant)
                    return AdmissionTicket(
                        decision, release=lambda: self._release(n_items, tenant)
                    )
            decision = _decide(
                self.policy, n_items, queued_after=self._queued + n_items,
                budget=self.policy.max_queued_items, scope="global",
                tenant=tenant, priority=priority,
            )
            self._charge(n_items, tenant)
            return AdmissionTicket(
                decision, release=lambda: self._release(n_items, tenant)
            )

    def _charge(self, n_items: int, tenant: str | None) -> None:
        self._queued += n_items
        if tenant is not None:
            self._queued_by_tenant[tenant] = (
                self._queued_by_tenant.get(tenant, 0) + n_items
            )
        metrics().gauge("serving.admission.queued_items").set(float(self._queued))

    def _release(self, n_items: int, tenant: str | None) -> None:
        with self._lock:
            self._queued = max(0, self._queued - n_items)
            if tenant is not None:
                left = self._queued_by_tenant.get(tenant, 0) - n_items
                if left > 0:
                    self._queued_by_tenant[tenant] = left
                else:
                    self._queued_by_tenant.pop(tenant, None)
            metrics().gauge("serving.admission.queued_items").set(
                float(self._queued)
            )


def _decide(
    policy: AdmissionPolicy,
    n_items: int,
    *,
    queued_after: int,
    budget: int | None,
    scope: str,
    tenant: str | None,
    priority: int,
) -> AdmissionDecision:
    """One budget check: bypass, accept, degrade, or raise OverloadError."""
    if (
        policy.bypass_priority is not None
        and priority >= policy.bypass_priority
    ):
        return AdmissionDecision("bypass", reason=f"priority {priority} bypass")
    if budget is None or queued_after <= budget:
        return AdmissionDecision("accept")
    reason = (
        f"{scope} queue would hold {queued_after} items, "
        f"budget is {budget}"
    )
    if policy.shed == "degrade":
        emit_event(
            "load_shed", action="degrade", items=n_items,
            tenant=tenant, reason=reason, k=policy.degrade_k,
        )
        metrics().counter("serving.degraded_admissions").inc()
        return AdmissionDecision(
            "degrade", k_override=policy.degrade_k, reason=reason
        )
    emit_event(
        "load_shed", action="reject", items=n_items,
        tenant=tenant, reason=reason,
    )
    metrics().counter("serving.shed_items").inc(n_items)
    raise OverloadError(f"admission rejected {n_items} items: {reason}")
