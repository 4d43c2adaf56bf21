"""SLO engine: spec parsing, burn-rate evaluation, transitions, surfaces.

The engine is driven here with a hand-cranked clock and a private
:class:`~repro.obs.EventBus`, so window arithmetic is exact — no sleeps,
no wall-clock flakiness.  The live integration (``item_end`` events from
a real batch reaching an engine subscribed to the active bus) rides in
``test_obs_trace_context.py``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.exceptions import ConfigError
from repro.obs.events import EventBus, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOEngine, SLObjective, parse_slo


class Clock:
    """Settable stand-in for ``time.perf_counter``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_engine(objectives, clock=None):
    bus = EventBus()
    log = EventLog()
    bus.subscribe(log)
    engine = SLOEngine(objectives, bus=bus, clock=clock or Clock())
    bus.subscribe(engine)
    return engine, bus, log


def feed(bus, *, n: int, duration_ms: float = 1.0, ok: bool = True) -> None:
    for _ in range(n):
        bus.emit("item_end", ok=ok, duration_ms=duration_ms, attempts=1)


LATENCY = SLObjective(
    name="lat", kind="latency_p95", threshold_ms=100.0,
    window_s=60.0, fast_window_s=10.0, min_samples=5,
)
SUCCESS = SLObjective(
    name="succ", kind="success_ratio", target=0.9,
    window_s=60.0, fast_window_s=10.0, min_samples=5,
)


# -- objective validation ------------------------------------------------------


def test_objective_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="unknown SLO kind"):
        SLObjective(name="x", kind="availability")


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(name="", kind="latency_p95", threshold_ms=1.0), "non-empty name"),
        (dict(name="x", kind="latency_p95"), "threshold_ms > 0"),
        (dict(name="x", kind="latency_p95", threshold_ms=0.0), "threshold_ms > 0"),
        (dict(name="x", kind="success_ratio"), "0 < target < 1"),
        (dict(name="x", kind="success_ratio", target=1.0), "0 < target < 1"),
        (
            dict(name="x", kind="latency_p95", threshold_ms=1.0, window_s=0.0),
            "windows must be",
        ),
        (
            dict(
                name="x", kind="latency_p95", threshold_ms=1.0,
                window_s=10.0, fast_window_s=20.0,
            ),
            "must not exceed",
        ),
        (
            dict(
                name="x", kind="latency_p95", threshold_ms=1.0,
                burn_rate_threshold=0.0,
            ),
            "burn_rate_threshold",
        ),
        (
            dict(name="x", kind="latency_p95", threshold_ms=1.0, min_samples=0),
            "min_samples",
        ),
    ],
)
def test_objective_validation(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        SLObjective(**kwargs)


def test_budget_fraction():
    assert LATENCY.budget_fraction == pytest.approx(0.05)
    assert SUCCESS.budget_fraction == pytest.approx(0.1)


def test_engine_rejects_empty_and_duplicate_objectives():
    with pytest.raises(ConfigError, match="at least one objective"):
        SLOEngine([])
    with pytest.raises(ConfigError, match="duplicate"):
        SLOEngine([LATENCY, LATENCY])


# -- spec parsing --------------------------------------------------------------


def test_parse_slo_latency_defaults():
    o = parse_slo("p95_ms=500")
    assert o.kind == "latency_p95"
    assert o.threshold_ms == 500.0
    assert o.name == "latency_p95"
    assert o.window_s == 300.0


def test_parse_slo_full_clause_set():
    o = parse_slo("p95_ms=250,window=60,fast=15,min=5,burn=2,name=items")
    assert (o.threshold_ms, o.window_s, o.fast_window_s) == (250.0, 60.0, 15.0)
    assert (o.min_samples, o.burn_rate_threshold, o.name) == (5, 2.0, "items")


def test_parse_slo_success_ratio():
    o = parse_slo("success=0.99")
    assert o.kind == "success_ratio"
    assert o.target == 0.99
    assert o.name == "success"


@pytest.mark.parametrize(
    "spec", ["", "window=60", "p95_ms=500,bogus=1", "p95_ms"]
)
def test_parse_slo_rejects_bad_specs(spec):
    with pytest.raises(ConfigError):
        parse_slo(spec)


# -- evaluation ----------------------------------------------------------------


def test_healthy_stream_never_breaches():
    engine, bus, log = make_engine([LATENCY, SUCCESS])
    feed(bus, n=50, duration_ms=5.0, ok=True)
    assert log.events("slo_breach") == []
    snap = engine.snapshot()
    by_name = {
        o["objective"]["name"]: o for o in snap["objectives"]
    }
    assert by_name["lat"]["breached"] is False
    assert by_name["lat"]["p95_ms"] == pytest.approx(5.0)
    assert by_name["succ"]["success_ratio"] == pytest.approx(1.0)
    assert by_name["succ"]["budget_remaining"] == pytest.approx(1.0)


def test_latency_breach_is_edge_triggered_and_rearms():
    clock = Clock()
    engine, bus, log = make_engine([LATENCY], clock)
    feed(bus, n=10, duration_ms=500.0)  # all over threshold -> burn 20x
    breaches = log.events("slo_breach")
    assert len(breaches) == 1  # edge-triggered, not once per item
    payload = breaches[0].payload
    assert payload["name"] == "lat"
    assert payload["objective_kind"] == "latency_p95"
    assert payload["burn_rate"] >= 1.0
    assert payload["p95_ms"] == pytest.approx(500.0)

    # Recovery: the slow samples age out of both windows, burn drops to 0.
    clock.now = 61.0
    feed(bus, n=10, duration_ms=1.0)
    state = engine.snapshot()["objectives"][0]
    assert state["breached"] is False
    assert state["breaches"] == 1

    # A second excursion pages again: the trigger re-armed.
    feed(bus, n=10, duration_ms=500.0)
    assert len(log.events("slo_breach")) == 2


def test_breach_requires_min_samples():
    engine, bus, log = make_engine([LATENCY])
    feed(bus, n=4, duration_ms=500.0)  # min_samples=5 -> abstain
    assert log.events("slo_breach") == []
    assert engine.snapshot()["objectives"][0]["breached"] is False


def test_breach_requires_fast_window_burn():
    clock = Clock()
    engine, bus, log = make_engine([LATENCY], clock)
    # Sustained damage in the slow window only: slow burn is high, but the
    # fast window sees healthy items -> no page (stale-signal guard).
    feed(bus, n=10, duration_ms=500.0)
    log.clear()
    engine.snapshot()["objectives"][0]  # breached once already; recover:
    clock.now = 55.0  # slow ones still inside window_s=60, outside fast=10
    feed(bus, n=40, duration_ms=1.0)
    assert log.events("slo_breach") == []


def test_success_ratio_breach_payload():
    engine, bus, log = make_engine([SUCCESS])
    feed(bus, n=10, duration_ms=1.0, ok=False)
    breaches = log.events("slo_breach")
    assert len(breaches) == 1
    assert breaches[0].payload["objective_kind"] == "success_ratio"
    assert breaches[0].payload["success_ratio"] == pytest.approx(0.0)


def test_budget_exhausted_emits_once():
    engine, bus, log = make_engine([SUCCESS])
    feed(bus, n=20, duration_ms=1.0, ok=False)
    exhausted = log.events("budget_exhausted")
    assert len(exhausted) == 1
    assert exhausted[0].payload["name"] == "succ"
    assert engine.snapshot()["objectives"][0]["budget_remaining"] == 0.0
    # More damage does not re-emit: the run's budget dies once.
    feed(bus, n=20, duration_ms=1.0, ok=False)
    assert len(log.events("budget_exhausted")) == 1


def test_engine_ignores_other_event_kinds():
    engine, bus, log = make_engine([LATENCY])
    bus.emit("shard_start", shard_id=0, items=1)
    bus.emit("retry", attempt=1)
    assert engine.snapshot()["samples"] == 0
    assert bus.errors == 0


def test_engine_subscriber_errors_are_isolated():
    engine, bus, log = make_engine([LATENCY])
    feed(bus, n=10, duration_ms=500.0)
    # The engine publishes onto the bus it subscribes to; a buggy payload
    # would surface as a swallowed subscriber error.  It must not.
    assert bus.errors == 0
    assert len(log.events("slo_breach")) == 1


def test_metrics_series_exported():
    registry = obs.enable_metrics(MetricsRegistry())
    try:
        engine, bus, log = make_engine([LATENCY])
        feed(bus, n=10, duration_ms=500.0)
        snap = registry.snapshot()
        assert snap["slo.lat.p95_ms"]["value"] == pytest.approx(500.0)
        assert snap["slo.lat.burn_rate"]["value"] >= 1.0
        assert snap["slo.lat.breached"]["value"] == 1.0
        assert snap["slo.lat.breaches"]["value"] == 1
    finally:
        obs.disable_metrics()

