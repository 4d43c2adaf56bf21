"""Record the observability no-op overhead baseline (``BENCH_obs.json``).

Summarizes the same scenario trips through ``summarize_many``, one trip
per call, so that every item settles on the batch path and its
``item_end`` event reaches the bus — once fully disabled, once with
tracing + metrics enabled, once with the full always-on production stack
(tracing + metrics + events + flight recorder), and once with that stack
plus a subscribed SLO engine — and writes the paired per-trajectory means
plus the relative overheads to ``BENCH_obs.json`` at the repository root.
The acceptance bars: the disabled ("no-op") path costs < 5 % relative to a
build without any instrumentation, and both the flight-recorder stack and
the SLO stack cost < 5 % relative to the disabled path, so they are safe
to leave on in serving.

Timing goes through :mod:`harness` (``measure_interleaved``): the two
configurations run round-robin and the median of several rounds is
reported, so scheduler noise does not masquerade as instrumentation
overhead.  The run is also appended to ``BENCH_history.jsonl``.

Usage::

    PYTHONPATH=src python benchmarks/record_obs_baseline.py [--rounds 5]
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

import harness
from repro import obs
from repro.simulate import CityScenario, ScenarioConfig


def run(rounds: int, n_trips: int) -> dict:
    scenario = CityScenario.build(
        ScenarioConfig(seed=7, n_training_trips=400, training_days=5)
    )
    trips = [t.raw for t in scenario.simulate_trips(n_trips, rng=np.random.default_rng(13))]

    def mean_ms() -> float:
        """Mean cost of one single-trip ``summarize_many`` call, ms."""
        times = []
        for raw in trips:
            start = time.perf_counter()
            scenario.stmaker.summarize_many([raw])
            times.append((time.perf_counter() - start) * 1000.0)
        return float(statistics.fmean(times))

    def disabled() -> float:
        obs.disable_tracing()
        obs.disable_metrics()
        return mean_ms()

    def enabled() -> float:
        obs.enable_tracing(max_spans=500_000)
        obs.enable_metrics()
        try:
            return mean_ms()
        finally:
            obs.disable_tracing()
            obs.disable_metrics()

    def stack(*, slo: bool) -> float:
        # The always-on serving stack: tracing + metrics + the event bus
        # with a flight recorder subscribed (ring appends on every event),
        # plus, with *slo*, an SLO engine that folds every item_end.
        recorder = obs.FlightRecorder(capacity=512)
        obs.enable_tracing(max_spans=500_000)
        obs.enable_metrics()
        bus = obs.enable_events()
        bus.subscribe(recorder)
        if slo:
            bus.subscribe(obs.SLOEngine([
                obs.SLObjective(name="latency", kind="latency_p95", threshold_ms=500.0),
            ], bus=bus))
        try:
            result = mean_ms()
        finally:
            obs.disable_events()
            obs.disable_tracing()
            obs.disable_metrics()
        # An idle bus would time the subscribers at no cost.
        if recorder.events_seen == 0:
            raise RuntimeError("the flight recorder captured no event")
        return result

    # The harness interleaves the configurations round-by-round; warmup
    # faults in caches and lazy structures on both paths before timing.
    stats = harness.measure_interleaved(
        {
            "obs.disabled_mean_ms": disabled,
            "obs.enabled_mean_ms": enabled,
            "obs.flight_mean_ms": lambda: stack(slo=False),
            "obs.slo_mean_ms": lambda: stack(slo=True),
        },
        repeats=rounds, warmup=1, sample="returned",
    )
    harness.append_history(stats, mode="obs_baseline")

    disabled_stats = stats["obs.disabled_mean_ms"]
    enabled_stats = stats["obs.enabled_mean_ms"]
    flight_stats = stats["obs.flight_mean_ms"]
    slo_stats = stats["obs.slo_mean_ms"]
    return {
        "benchmark": "summarize_many, one trip per call (mean ms per trajectory)",
        "rounds": rounds,
        "n_trips": n_trips,
        "disabled_ms": {
            "median": disabled_stats.median_ms,
            "rounds": list(disabled_stats.samples_ms),
        },
        "enabled_ms": {
            "median": enabled_stats.median_ms,
            "rounds": list(enabled_stats.samples_ms),
        },
        "flight_ms": {
            "median": flight_stats.median_ms,
            "rounds": list(flight_stats.samples_ms),
        },
        "slo_ms": {
            "median": slo_stats.median_ms,
            "rounds": list(slo_stats.samples_ms),
        },
        "enabled_overhead_pct": 100.0
        * (enabled_stats.median_ms - disabled_stats.median_ms)
        / disabled_stats.median_ms,
        "flight_overhead_pct": 100.0
        * (flight_stats.median_ms - disabled_stats.median_ms)
        / disabled_stats.median_ms,
        "slo_overhead_pct": 100.0
        * (slo_stats.median_ms - disabled_stats.median_ms)
        / disabled_stats.median_ms,
        "note": (
            "'disabled' is the default no-op observability path; the < 5 % "
            "acceptance bound applies to it versus an uninstrumented build. "
            "'enabled' has tracing + metrics fully on; 'flight' adds the "
            "event bus with a subscribed flight recorder (the always-on "
            "serving stack); 'slo' further subscribes an SLO engine to the "
            "bus.  Both stacks are bounded at < 5 % versus disabled."
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--trips", type=int, default=60)
    parser.add_argument(
        "--out", default=str(Path(__file__).resolve().parent.parent / "BENCH_obs.json")
    )
    args = parser.parse_args()
    payload = run(args.rounds, args.trips)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))
    print(f"\nwritten to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
