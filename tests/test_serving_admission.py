"""Admission control: budgets, shedding, degrade-to-cheap-k, tenants.

Unit tests drive :class:`AdmissionPolicy` / :class:`AdmissionController`
directly; integration tests prove the intake actually guards both entry
points — the serial loop in ``summarize_many`` and the sharded pool —
rejecting before any work starts and degrading to ``degrade_k`` without
losing items.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.exceptions import ConfigError, OverloadError
from repro.obs.metrics import MetricsRegistry
from repro.serving import (
    SHED_POLICIES,
    AdmissionController,
    AdmissionPolicy,
)
from repro.trajectory import RawTrajectory


@pytest.fixture()
def clean_obs():
    yield
    obs.disable_metrics()
    obs.disable_tracing()
    obs.disable_events()


# -- policy: the stateless per-batch budget -----------------------------------


class TestAdmissionPolicy:
    def test_validation(self):
        assert SHED_POLICIES == ("reject", "degrade")
        with pytest.raises(ConfigError):
            AdmissionPolicy(shed="drop")
        with pytest.raises(ConfigError):
            AdmissionPolicy(max_queued_items=0)
        with pytest.raises(ConfigError):
            AdmissionPolicy(max_in_flight_shards=0)
        with pytest.raises(ConfigError):
            AdmissionPolicy(degrade_k=0)

    def test_unbounded_accepts_anything(self):
        ticket = AdmissionPolicy().admit(10_000)
        assert ticket.decision.action == "accept"
        assert ticket.decision.k_override is None

    def test_within_budget_accepts(self):
        ticket = AdmissionPolicy(max_queued_items=10).admit(10)
        assert ticket.decision.action == "accept"

    def test_over_budget_rejects_with_typed_error(self, clean_obs):
        registry = obs.enable_metrics(MetricsRegistry())
        log = obs.EventLog()
        obs.enable_events().subscribe(log)
        policy = AdmissionPolicy(max_queued_items=10)
        with pytest.raises(OverloadError, match="11 items"):
            policy.admit(11)
        assert registry.counter("serving.shed_items").value == 11.0
        [shed] = log.events("load_shed")
        assert shed.payload["action"] == "reject"
        assert shed.payload["items"] == 11

    def test_over_budget_degrades_when_asked(self, clean_obs):
        registry = obs.enable_metrics(MetricsRegistry())
        log = obs.EventLog()
        obs.enable_events().subscribe(log)
        policy = AdmissionPolicy(max_queued_items=10, shed="degrade", degrade_k=1)
        ticket = policy.admit(11)
        assert ticket.decision.action == "degrade"
        assert ticket.decision.k_override == 1
        assert registry.counter("serving.degraded_admissions").value == 1.0
        [shed] = log.events("load_shed")
        assert shed.payload["action"] == "degrade"
        assert shed.payload["k"] == 1

    def test_priority_bypasses_budget(self):
        policy = AdmissionPolicy(max_queued_items=1, bypass_priority=9)
        ticket = policy.admit(500, priority=9)
        assert ticket.decision.action == "bypass"
        with pytest.raises(OverloadError):
            policy.admit(500, priority=8)

    def test_ticket_release_is_idempotent_noop(self):
        ticket = AdmissionPolicy().admit(1)
        ticket.release()
        ticket.release()


# -- controller: live multi-batch state ---------------------------------------


class TestAdmissionController:
    def test_budget_held_until_release(self):
        ctrl = AdmissionController(AdmissionPolicy(max_queued_items=10))
        first = ctrl.admit(6)
        assert ctrl.queued_items == 6
        with pytest.raises(OverloadError):
            ctrl.admit(5)  # 6 + 5 > 10
        first.release()
        assert ctrl.queued_items == 0
        ctrl.admit(5)  # fits again

    def test_ticket_is_a_context_manager(self):
        ctrl = AdmissionController(AdmissionPolicy(max_queued_items=10))
        with ctrl.admit(6):
            assert ctrl.queued_items == 6
        assert ctrl.queued_items == 0

    def test_tenant_budget_checked_on_top_of_global(self):
        ctrl = AdmissionController(
            AdmissionPolicy(max_queued_items=100),
            tenant_budgets={"small": 5},
        )
        ctrl.admit(5, tenant="small")
        assert ctrl.queued_for("small") == 5
        with pytest.raises(OverloadError, match="tenant 'small'"):
            ctrl.admit(1, tenant="small")
        # Other tenants only answer to the global budget.
        ctrl.admit(50, tenant="big")
        assert ctrl.queued_items == 55

    def test_tenant_release_returns_tenant_budget(self):
        ctrl = AdmissionController(
            AdmissionPolicy(), tenant_budgets={"t": 4}
        )
        ticket = ctrl.admit(4, tenant="t")
        ticket.release()
        assert ctrl.queued_for("t") == 0
        ctrl.admit(4, tenant="t")  # budget actually returned

    def test_queued_items_gauge_tracks_live_load(self, clean_obs):
        registry = obs.enable_metrics(MetricsRegistry())
        ctrl = AdmissionController(AdmissionPolicy(max_queued_items=10))
        ticket = ctrl.admit(7)
        assert registry.gauge("serving.admission.queued_items").value == 7.0
        ticket.release()
        assert registry.gauge("serving.admission.queued_items").value == 0.0

    def test_max_in_flight_shards_exposed_for_the_pool(self):
        ctrl = AdmissionController(AdmissionPolicy(max_in_flight_shards=2))
        assert ctrl.max_in_flight_shards == 2


# -- integration through summarize_many ---------------------------------------


@pytest.fixture(scope="module")
def trips(scenario) -> list[RawTrajectory]:
    rng = np.random.default_rng(33)
    sims = [
        scenario.simulate_trips(1, depart_time=(9.0 + 0.4 * i) * 3600.0, rng=rng)[0]
        for i in range(6)
    ]
    return [
        RawTrajectory(s.raw.points, f"at-{i:02d}") for i, s in enumerate(sims)
    ]


class TestAdmissionIntegration:
    def test_reject_raises_before_any_work_serial(self, scenario, trips, clean_obs):
        registry = obs.enable_metrics(MetricsRegistry())
        policy = AdmissionPolicy(max_queued_items=3)
        with pytest.raises(OverloadError):
            scenario.stmaker.summarize_many(trips, k=2, admission=policy)
        # Nothing was summarized: the reject happened at the front door.
        assert registry.get("summarize.calls") is None
        assert registry.counter("serving.shed_items").value == float(len(trips))

    @pytest.mark.parametrize("workers,executor", [(1, None), (2, "thread"),
                                                  (2, "process")])
    def test_degrade_serves_batch_at_cheap_k(
        self, scenario, trips, workers, executor, clean_obs
    ):
        policy = AdmissionPolicy(max_queued_items=3, shed="degrade", degrade_k=1)
        kwargs = {} if executor is None else {
            "workers": workers, "shard_size": 2, "executor": executor,
        }
        batch = scenario.stmaker.summarize_many(
            trips, k=3, admission=policy, **kwargs
        )
        assert batch.ok_count == len(trips)
        # The k=3 ask was overridden to degrade_k=1: every summary is the
        # single-partition cheap shape.
        assert all(len(s.partitions) == 1 for s in batch.summaries)

    def test_reject_raises_before_any_work_sharded(self, scenario, trips, clean_obs):
        policy = AdmissionPolicy(max_queued_items=3)
        with pytest.raises(OverloadError):
            scenario.stmaker.summarize_many(
                trips, k=2, workers=2, shard_size=2, admission=policy
            )

    def test_bypass_priority_serves_over_budget(self, scenario, trips):
        policy = AdmissionPolicy(max_queued_items=1, bypass_priority=10)
        batch = scenario.stmaker.summarize_many(
            trips, k=2, admission=policy, priority=10
        )
        assert batch.ok_count == len(trips)

    def test_controller_budget_released_after_batch(self, scenario, trips):
        ctrl = AdmissionController(AdmissionPolicy(max_queued_items=50))
        scenario.stmaker.summarize_many(trips, k=2, admission=ctrl)
        assert ctrl.queued_items == 0  # released even though we kept no ticket
        scenario.stmaker.summarize_many(
            trips, k=2, workers=2, shard_size=2, admission=ctrl,
            tenant="acme",
        )
        assert ctrl.queued_items == 0
        assert ctrl.queued_for("acme") == 0

    def test_config_errors_release_no_budget(self, scenario, trips):
        """A rejected option leaves the admission budget untouched."""
        ctrl = AdmissionController(AdmissionPolicy(max_queued_items=4))
        batch = trips[:2]
        bad_options = (
            {"workers": 0},
            {"shard_size": 0},
            {"executor": "ray"},
            {"artifact": "model.bin"},
        )
        for options in bad_options:
            with pytest.raises(ConfigError):
                scenario.stmaker.summarize_many(
                    batch, k=2, admission=ctrl, **options
                )
            assert ctrl.queued_items == 0, options
        served = scenario.stmaker.summarize_many(
            trips[:4], k=2, workers=2, admission=ctrl
        )
        assert served.ok_count == 4

    def test_max_in_flight_caps_supervisor_window(self, scenario, trips):
        """A 1-shard window serializes the pool but changes no results."""
        ctrl = AdmissionController(
            AdmissionPolicy(max_in_flight_shards=1)
        )
        serial = scenario.stmaker.summarize_many(trips, k=2)
        windowed = scenario.stmaker.summarize_many(
            trips, k=2, workers=2, shard_size=2, executor="process",
            admission=ctrl,
        )
        assert windowed.ok_count == serial.ok_count
        for ours, theirs in zip(windowed.summaries, serial.summaries, strict=True):
            assert ours.text == theirs.text
