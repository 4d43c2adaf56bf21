"""Tests for the live HTTP ops surface (repro.obs.server)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.obs.flight import FlightRecorder
from repro.obs.server import PROMETHEUS_CONTENT_TYPE


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.stop_ops_server()
    obs.disable_events()
    obs.disable_tracing()
    obs.disable_metrics()
    yield
    obs.stop_ops_server()
    obs.disable_events()
    obs.disable_tracing()
    obs.disable_metrics()


def _get(url: str):
    """(status, body bytes, content-type) — without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, response.read(), response.headers.get("Content-Type")
    except urllib.error.HTTPError as err:
        return err.code, err.read(), err.headers.get("Content-Type")


def _get_json(url: str):
    status, body, _ = _get(url)
    return status, json.loads(body)


def _tail_recorder() -> FlightRecorder:
    """The tail-only ring the CLI subscribes for ``/events``."""
    recorder = FlightRecorder(capacity=1024, trigger_kinds=frozenset())
    return obs.enable_events().subscribe(recorder)


@pytest.fixture
def server():
    srv = obs.start_ops_server(recorder=_tail_recorder())
    yield srv
    obs.stop_ops_server()


class TestEndpoints:
    def test_healthz_is_always_alive(self, server):
        status, payload = _get_json(server.url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0.0

    def test_readyz_flips_with_mark_ready(self, server):
        status, payload = _get_json(server.url + "/readyz")
        assert status == 503 and payload["ready"] is False
        obs.mark_ready()
        status, payload = _get_json(server.url + "/readyz")
        assert status == 200 and payload["ready"] is True
        obs.mark_ready(False)
        status, _ = _get_json(server.url + "/readyz")
        assert status == 503

    def test_metrics_serves_live_prometheus_exposition(self, server):
        registry = obs.enable_metrics()
        registry.counter("summarize.calls").inc(3)
        registry.histogram("lat.ms", buckets=(1.0, 10.0)).observe(2.0)
        status, body, content_type = _get(server.url + "/metrics")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        families = obs.parse_prometheus(body.decode("utf-8"))
        assert families["summarize_calls_total"]["type"] == "counter"
        assert families["lat_ms"]["type"] == "histogram"

    def test_status_is_a_run_report_snapshot(self, server):
        obs.enable_metrics().counter("summarize.calls").inc()
        status, payload = _get_json(server.url + "/status")
        assert status == 200
        assert "metrics" in payload and "resilience" in payload
        ops = payload["ops"]
        assert ops["ready"] is False
        assert ops["uptime_s"] >= 0.0
        assert ops["url"] == server.url

    def test_status_includes_slo_block_when_engine_active(self, server):
        _, payload = _get_json(server.url + "/status")
        assert "slo" not in payload  # no engine, no block
        bus = obs.enable_events()
        engine = bus.subscribe(obs.SLOEngine([obs.SLObjective(
            name="lat", kind="latency_p95", threshold_ms=100.0,
            min_samples=1,
        )], bus=bus))
        server = obs.start_ops_server(slo=engine)
        for _ in range(3):
            obs.emit_event("item_end", ok=True, duration_ms=500.0)
        status, payload = _get_json(server.url + "/status")
        assert status == 200
        slo = payload["slo"]
        assert slo["samples"] == 3
        objective = slo["objectives"][0]
        assert objective["objective"]["name"] == "lat"
        assert objective["breached"] is True
        assert objective["p95_ms"] == pytest.approx(500.0)

    def test_events_tail_and_n_param(self, server):
        bus = obs.enable_events()
        for i in range(5):
            bus.emit("progress", done=i)
        status, payload = _get_json(server.url + "/events?n=2")
        assert status == 200
        assert payload["count"] == 2
        assert payload["events_seen"] == 5
        assert [e["payload"]["done"] for e in payload["events"]] == [3, 4]

    def test_events_bad_n_is_400(self, server):
        status, payload = _get_json(server.url + "/events?n=bogus")
        assert status == 400 and "invalid n" in payload["error"]

    def test_unknown_path_is_404_with_directory(self, server):
        status, payload = _get_json(server.url + "/nope")
        assert status == 404
        assert "/metrics" in payload["endpoints"]
        assert "/status" in payload["endpoints"]


class TestLifecycle:
    def test_start_twice_stops_the_first(self):
        first = obs.start_ops_server()
        first_url = first.url
        second = obs.start_ops_server()
        assert obs.active_ops_server() is second
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(first_url + "/healthz", timeout=1.0)
        assert _get(second.url + "/healthz")[0] == 200

    def test_stop_is_idempotent_and_mark_ready_is_safe_without_server(self):
        obs.stop_ops_server()
        obs.stop_ops_server()
        obs.mark_ready()  # no server: must not raise
        assert obs.active_ops_server() is None

    def test_reuses_the_active_flight_recorder(self):
        recorder = obs.enable_events().subscribe(FlightRecorder(capacity=8))
        server = obs.start_ops_server(recorder=recorder)
        obs.emit_event("progress", done=1)
        _, payload = _get_json(server.url + "/events")
        assert payload["count"] == 1, "/events reads the given recorder"
        assert recorder.events_seen == 1
        obs.stop_ops_server()
        assert obs.events().subscriber_count == 1, "the server subscribes nothing"

    def test_without_a_recorder_events_is_an_empty_tail(self):
        server = obs.start_ops_server()
        obs.emit_event("progress", done=1)
        status, payload = _get_json(server.url + "/events")
        assert status == 200
        assert payload == {"count": 0, "events_seen": 0, "events": []}


class TestMidBatchIntegration:
    def test_scrape_during_a_running_batch(self, scenario):
        """The acceptance check: while ``summarize_many`` runs, /metrics
        returns exposition that parses and /status returns well-formed
        JSON reflecting the in-flight run."""
        rng = np.random.default_rng(606)
        trips = [
            t.raw
            for t in scenario.simulate_trips(3, depart_time=9 * 3600.0, rng=rng)
        ]
        obs.enable_metrics()
        server = obs.start_ops_server(recorder=_tail_recorder())
        scraped: dict[str, object] = {}

        def probe(snapshot) -> None:
            # Runs between items — the batch is mid-flight by construction.
            if scraped:
                return
            status, body, _ = _get(server.url + "/metrics")
            assert status == 200
            scraped["families"] = obs.parse_prometheus(body.decode("utf-8"))
            status, payload = _get_json(server.url + "/status")
            assert status == 200
            scraped["status"] = payload

        result = scenario.stmaker.summarize_many(trips, k=2, progress=probe)
        assert result.ok_count == 3
        families = scraped["families"]
        assert "summarize_calls_total" in families
        [(_, _, calls)] = families["summarize_calls_total"]["samples"]
        assert 1 <= calls <= 3, "scraped mid-run, not after the batch"
        status_payload = scraped["status"]
        assert status_payload["ops"]["events_seen"] > 0
        assert status_payload["metrics"], "RunReport snapshot has live metrics"
