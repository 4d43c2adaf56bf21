"""The batch option values: one ``ItemOptions`` below the entry points.

``summarize_many`` and ``SummarizationServer.submit`` each turn their
keywords into one :class:`~repro.serving.ItemOptions`, and every layer
below them carries that value whole.  The forwarding tests set every
field away from its default and check that ``STMaker._summarize_item``
receives an equal value through both entry points, so a layer that
dropped or defaulted one option fails here.  A sharded process batch
runs its items in worker processes, out of the test's sight; there the
value is read off the shard tasks handed to the supervisor, which
``run_shard`` forwards unchanged.

Parameterization follows the serving suites: ``SERVING_TEST_WORKERS`` /
``SERVING_TEST_EXECUTOR`` shape the pool both entry points serve with.

The policy values are checked here too: ``ShardRetryPolicy`` is a
``RetryPolicy`` with its own defaults and hang bounds, and NaN is
rejected wherever a budget or a backoff is read.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro import obs
from repro.core.summarizer import STMaker
from repro.exceptions import ConfigError
from repro.obs import MetricsRegistry
from repro.resilience import Deadline, RetryPolicy
from repro.server import ServerConfig, SummarizationServer
from repro.serving import (
    AdmissionController,
    AdmissionPolicy,
    ItemOptions,
    ShardRetryPolicy,
    pool,
    supervisor,
)
from repro.trajectory import SanitizerConfig

WORKERS = int(os.environ.get("SERVING_TEST_WORKERS", "4"))
EXECUTOR = os.environ.get("SERVING_TEST_EXECUTOR", "thread")
RESULT_TIMEOUT_S = 600.0
NAN = float("nan")


def _no_sleep(seconds: float) -> None:
    """A sleeper that doesn't — module-level so it crosses process pools."""


#: Every field away from its default.
OPTIONS = ItemOptions(
    k=3,
    sanitize=False,
    sanitizer_config=SanitizerConfig(
        max_speed_kmh=250.0, max_consecutive_teleport_drops=4,
        duplicate_epsilon_s=0.5, sort_timestamps=False,
    ),
    strict=True,
    retry=RetryPolicy(max_retries=3, backoff_base_s=0.0, backoff_factor=1.5),
    deadline_s=600.0,
    sleeper=_no_sleep,
)


def _keywords(options: ItemOptions) -> dict:
    return {f.name: getattr(options, f.name) for f in dataclasses.fields(options)}


@pytest.fixture(scope="module")
def trips(scenario):
    rng = np.random.default_rng(2024)
    return [
        scenario.simulate_trips(1, depart_time=(7.0 + i) * 3600.0, rng=rng)[0].raw
        for i in range(3)
    ]


@pytest.fixture()
def seen(monkeypatch) -> list[ItemOptions]:
    """The options each item is served under, one entry per item."""
    seen: list[ItemOptions] = []
    summarize_item = STMaker._summarize_item
    supervise = pool.supervise_process_shards

    def spy_item(self, index, raw, options, **kwargs):
        seen.append(options)
        return summarize_item(self, index, raw, options, **kwargs)

    def spy_supervise(tasks, **kwargs):
        seen.extend(task.options for task in tasks for _ in task.items)
        return supervise(tasks, **kwargs)

    monkeypatch.setattr(STMaker, "_summarize_item", spy_item)
    monkeypatch.setattr(pool, "supervise_process_shards", spy_supervise)
    return seen


def _summarize_many(stmaker, trips, keywords, **shape):
    return stmaker.summarize_many(
        trips, workers=WORKERS, executor=EXECUTOR, **keywords, **shape
    )


def _submit(stmaker, trips, keywords, **config):
    server_config = ServerConfig(workers=WORKERS, executor=EXECUTOR, **config)
    with SummarizationServer(stmaker, server_config) as server:
        return server.submit(trips, **keywords).result(timeout=RESULT_TIMEOUT_S)


def _assert_served_under(seen, expected, n_items, *, queued=False):
    """Every item got *expected*; a queued request's deadline only shrinks."""
    assert len(seen) == n_items
    for options in seen:
        if queued and expected.deadline_s is not None:
            # The server passes what is left of the budget at pickup.
            assert 0.0 < options.deadline_s <= expected.deadline_s
            options = dataclasses.replace(options, deadline_s=expected.deadline_s)
        assert options == expected


class TestForwarding:
    def test_summarize_many_forwards_every_option(self, scenario, trips, seen):
        batch = _summarize_many(scenario.stmaker, trips, _keywords(OPTIONS))
        assert batch.ok_count == len(trips)
        _assert_served_under(seen, OPTIONS, len(trips))

    def test_submit_forwards_every_option(self, scenario, trips, seen):
        batch = _submit(scenario.stmaker, trips, _keywords(OPTIONS))
        assert batch.ok_count == len(trips)
        _assert_served_under(seen, OPTIONS, len(trips), queued=True)

    def test_entry_point_defaults_agree(self, scenario, trips, seen):
        """Both entry points' keyword defaults are ``ItemOptions()``."""
        _summarize_many(scenario.stmaker, trips, {})
        _submit(scenario.stmaker, trips, {})
        _assert_served_under(seen, ItemOptions(), 2 * len(trips))

    def test_degrade_admission_replaces_only_k(self, scenario, trips, seen):
        degraded = dataclasses.replace(OPTIONS, k=1)
        _summarize_many(
            scenario.stmaker, trips, _keywords(OPTIONS),
            admission=AdmissionPolicy(max_queued_items=1, shed="degrade"),
        )
        _assert_served_under(seen, degraded, len(trips))
        seen.clear()
        _submit(
            scenario.stmaker, trips, _keywords(OPTIONS),
            max_queued_items=1, shed="degrade",
        )
        _assert_served_under(seen, degraded, len(trips), queued=True)


class TestShardRetryPolicy:
    def test_is_a_retry_policy_with_its_own_retry_default(self):
        policy = ShardRetryPolicy()
        assert isinstance(policy, RetryPolicy)
        assert policy.max_retries == 2
        assert (policy.backoff_base_s, policy.backoff_factor) == (0.05, 2.0)
        custom = ShardRetryPolicy(max_retries=1, backoff_base_s=0.1)
        assert [custom.delay_s(n) for n in (1, 2, 3)] == [
            RetryPolicy(backoff_base_s=0.1).delay_s(n) for n in (1, 2, 3)
        ]

    @pytest.mark.parametrize("policy", [RetryPolicy, ShardRetryPolicy])
    @pytest.mark.parametrize("field", ["backoff_base_s", "backoff_factor"])
    def test_nan_backoff_rejected(self, policy, field):
        with pytest.raises(ConfigError, match=field):
            policy(**{field: NAN})

    @pytest.mark.parametrize("value", [-1.0, NAN])
    @pytest.mark.parametrize(
        "field", ["settle_timeout_s", "hang_grace_s", "hang_timeout_s"]
    )
    def test_bad_hang_bounds_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ShardRetryPolicy(**{field: value})


class TestNaNBudgets:
    def test_nan_deadline_rejected(self):
        with pytest.raises(ConfigError, match="deadline budget"):
            Deadline(NAN)

    def test_nan_batch_deadline_is_a_config_error(self, scenario, trips):
        """Not a batch of ``DeadlineExceeded`` quarantines."""
        with pytest.raises(ConfigError, match="deadline budget"):
            scenario.stmaker.summarize_many(trips, deadline_s=NAN)

    @pytest.mark.parametrize(
        "config",
        [{"default_deadline_s": NAN}, {"tenant_deadline_s": {"a": NAN}}],
    )
    def test_nan_server_deadline_rejected(self, config):
        with pytest.raises(ConfigError):
            ServerConfig(**config)


def _idle_pools(workers: int) -> list:
    with supervisor._idle_lock:
        return list(supervisor._idle_pools.get(workers, ()))


@pytest.fixture()
def observed():
    """Fresh metrics and an event log, both read after the call."""
    registry = obs.enable_metrics(MetricsRegistry())
    log = obs.EventLog()
    obs.enable_events().subscribe(log)
    return registry, log


class TestBadDeadlineFailsFirst:
    """A bad ``deadline_s`` is a ``ConfigError`` before the batch exists:
    no event, no batch counter, and a warm process pool stays warm."""

    @pytest.mark.parametrize("value", [-1.0, NAN])
    def test_item_options_checks_the_deadline(self, value):
        with pytest.raises(ConfigError, match="deadline budget"):
            ItemOptions(deadline_s=value)
        with pytest.raises(ConfigError, match="deadline budget"):
            dataclasses.replace(ItemOptions(), deadline_s=value)
        assert ItemOptions(deadline_s=0.0).deadline_s == 0.0

    @pytest.mark.parametrize("value", [-1.0, NAN])
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_summarize_many(self, scenario, trips, observed, executor, value):
        registry, log = observed
        if executor == "process":
            # Warm a pool first, so there is one to lose.
            scenario.stmaker.summarize_many(
                trips[:2], workers=2, executor="process"
            )
        idle = _idle_pools(2)
        log.clear()
        registry.reset()
        with pytest.raises(ConfigError, match="deadline budget"):
            scenario.stmaker.summarize_many(
                trips[:2], workers=2, executor=executor, deadline_s=value,
                admission=AdmissionPolicy(max_queued_items=8),
            )
        assert list(log) == []
        assert registry.get("resilience.batch.calls") is None
        assert _idle_pools(2) == idle
        if executor == "process":
            assert idle

    @pytest.mark.parametrize("value", [-1.0, NAN])
    def test_submit(self, scenario, trips, observed, value):
        registry, log = observed
        config = ServerConfig(workers=2, executor="process")
        with SummarizationServer(scenario.stmaker, config) as server:
            server.submit(trips[:2]).result(timeout=RESULT_TIMEOUT_S)
            idle = _idle_pools(2)
            log.clear()
            registry.reset()
            with pytest.raises(ConfigError, match="deadline budget"):
                server.submit(trips[:2], deadline_s=value)
            assert server.admission.queued_items == 0
        assert list(log) == []
        assert registry.get("resilience.batch.calls") is None
        assert registry.get("server.requests.submitted") is None
        assert _idle_pools(2) == idle
        assert idle


class TestAdmissionBudgets:
    def test_tenant_budget_below_one_rejected(self):
        with pytest.raises(ConfigError, match="tenant budget"):
            AdmissionController(AdmissionPolicy(), tenant_budgets={"a": -3})
        with pytest.raises(ConfigError, match="tenant budget"):
            AdmissionController(AdmissionPolicy(), tenant_budgets={"a": 0})

    @pytest.mark.parametrize(
        "config",
        [
            {"tenant_budgets": {"a": -3}},
            {"max_queued_items": 0},
            {"degrade_k": 0},
            {"shed": "explode"},
        ],
    )
    def test_server_config_checks_its_admission_fields(self, config):
        """Checked when the config is made, not when the server is built."""
        with pytest.raises(ConfigError):
            ServerConfig(**config)

    def test_server_builds_admission_from_its_config(self, scenario):
        config = ServerConfig(
            max_queued_items=8, shed="degrade", degrade_k=2,
            bypass_priority=5, tenant_budgets={"a": 3},
        )
        admission = SummarizationServer(scenario.stmaker, config).admission
        assert admission.policy == AdmissionPolicy(
            max_queued_items=8, shed="degrade", degrade_k=2, bypass_priority=5,
        )
        assert admission.tenant_budgets == {"a": 3}
