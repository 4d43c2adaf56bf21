"""Record the sharded-serving speedup baseline (``BENCH_serving.json``).

Measures :meth:`STMaker.summarize_many` serial versus sharded serving
at 2 / 4 / 8 workers on the smoke corpus, on the bare pipeline
(**cpu-bound**), recorded for both executors.  A thread batch runs the
serial loop at any worker count, so ~1.0× is its ceiling by construction
and the ratio watches the batch runner's overhead;
the process executor (``executor="process"``, serving from a city-model
artifact) is the one that can beat it, and its speedup is recorded
against the >1.5×-at-4-workers target — *advisory-skipped* when the
container has a single CPU, where no process count helps and the honest
expectation is ≤1.0× (pool + artifact overhead included, so the
regression gate still watches the overhead).

A further block records the **request front-end's hot query caches**
(:mod:`repro.server.cache`): the same batch served serially through an
uncached model, a cold-cache view (caches cleared before every round, so
population cost is included), and a warm-cache view (popular-route and
anchor-history lookups answered from the LRUs).  Caching is algorithmic
— it avoids recomputing Dijkstra runs and feature-map reads — so unlike
process parallelism it can pay off even on a 1-CPU container; how much
depends on how often the corpus repeats landmark hops, which is recorded
(hit rates included) rather than assumed.

All regimes run the *same* interleaved harness rounds, and every
configuration produces byte-identical summaries (checked each run — a
benchmark that quietly changed results would be measuring a different
program).  Results go to ``BENCH_serving.json`` at the repo root and the
run is appended to ``BENCH_history.jsonl``.

Usage::

    PYTHONPATH=src python benchmarks/record_serving_baseline.py [--rounds 3]
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

import harness
from repro.simulate import CityScenario, ScenarioConfig

WORKER_COUNTS = (2, 4, 8)


def build_corpus(training: int, trips: int):
    scenario = CityScenario.build(ScenarioConfig(seed=7, n_training_trips=training))
    batch = [
        scenario.simulate_trip(depart_time=(8.0 + 0.25 * i) * 3600.0).raw
        for i in range(trips)
    ]
    return scenario.stmaker, batch


def texts(result) -> list[str]:
    return [s.text for s in result.summaries]


def run(rounds: int, training: int, trips: int) -> dict:
    stmaker, batch = build_corpus(training, trips)
    expected = texts(stmaker.summarize_many(batch, k=2))

    def serial() -> int:
        result = stmaker.summarize_many(batch, k=2)
        assert texts(result) == expected, "serial run changed results"
        return len(batch)

    def pooled(workers: int):
        def fn() -> int:
            result = stmaker.summarize_many(batch, k=2, workers=workers)
            assert texts(result) == expected, f"workers={workers} changed results"
            return len(batch)

        return fn

    def process_pooled(workers: int):
        def fn() -> int:
            result = stmaker.summarize_many(
                batch, k=2, workers=workers, executor="process"
            )
            assert texts(result) == expected, (
                f"process workers={workers} changed results"
            )
            return len(batch)

        return fn

    # Hot-cache regime: serial serving through a cached view of the same
    # model (repro.server).  Cold clears the caches before every round
    # (so the measured cost includes populating them); warm is pre-warmed
    # once and then served from hits.  Byte identity is asserted per
    # round, same as every other configuration.
    from repro.server import HotQueryCaches, cached_view

    cold_caches = HotQueryCaches.for_model(stmaker)
    cold_view = cached_view(stmaker, cold_caches)

    def cached_cold() -> int:
        cold_caches.routes.clear()
        cold_caches.anchors.clear()
        result = cold_view.summarize_many(batch, k=2)
        assert texts(result) == expected, "cold cached view changed results"
        return len(batch)

    warm_caches = HotQueryCaches.for_model(stmaker)
    warm_view = cached_view(stmaker, warm_caches)
    warm_view.summarize_many(batch, k=2)  # populate before measuring

    def cached_warm() -> int:
        result = warm_view.summarize_many(batch, k=2)
        assert texts(result) == expected, "warm cached view changed results"
        return len(batch)

    configs = {"serving.cpu.serial_ms": serial}
    for workers in WORKER_COUNTS:
        configs[f"serving.cpu.workers{workers}_ms"] = pooled(workers)
    for workers in WORKER_COUNTS:
        configs[f"serving.cpu.process.workers{workers}_ms"] = process_pooled(
            workers
        )
    configs["server.cache.cold_ms"] = cached_cold
    configs["server.cache.warm_ms"] = cached_warm

    stats = harness.measure_interleaved(configs, repeats=rounds, warmup=1)
    harness.append_history(stats, mode="serving_baseline")

    def section(prefix: str) -> dict:
        base = stats[f"{prefix}.serial_ms"]
        out = {
            "serial_per_item_ms": {
                "median": base.median_ms, "rounds": list(base.samples_ms),
            },
            "workers": {},
            "speedup": {},
        }
        for workers in WORKER_COUNTS:
            pool = stats[f"{prefix}.workers{workers}_ms"]
            out["workers"][str(workers)] = {
                "median": pool.median_ms, "rounds": list(pool.samples_ms),
            }
            out["speedup"][str(workers)] = (
                base.median_ms / pool.median_ms if pool.median_ms else 0.0
            )
        return out

    cpu = section("serving.cpu")

    # Process-executor regime: same serial base, workers served by
    # ProcessPoolExecutor from the auto-published city-model artifact.
    base = stats["serving.cpu.serial_ms"]
    process = {
        "serial_per_item_ms": {
            "median": base.median_ms, "rounds": list(base.samples_ms),
        },
        "workers": {},
        "speedup": {},
    }
    for workers in WORKER_COUNTS:
        pool = stats[f"serving.cpu.process.workers{workers}_ms"]
        process["workers"][str(workers)] = {
            "median": pool.median_ms, "rounds": list(pool.samples_ms),
        }
        process["speedup"][str(workers)] = (
            base.median_ms / pool.median_ms if pool.median_ms else 0.0
        )
    cpu_count = os.cpu_count() or 1
    multicore = cpu_count > 1
    process["multicore_criterion"] = {
        "target_speedup_at_4_workers": 1.5,
        "measured_speedup_at_4_workers": process["speedup"]["4"],
        "cpu_count": cpu_count,
        "met": multicore and process["speedup"]["4"] > 1.5,
        "advisory_skipped": not multicore,
        "note": (
            "met on multi-core runners only; on a 1-CPU container process "
            "parallelism cannot exceed 1.0x and the criterion is "
            "advisory-skipped (recorded honestly, not faked)"
            if not multicore
            else "evaluated on a multi-core runner"
        ),
    }

    # Hot-cache regime: cold (population included) and warm cached views
    # against the same uncached serial base as the other cpu sections.
    cold = stats["server.cache.cold_ms"]
    warm = stats["server.cache.warm_ms"]
    hot_cache = {
        "uncached_per_item_ms": {
            "median": base.median_ms, "rounds": list(base.samples_ms),
        },
        "cold_per_item_ms": {
            "median": cold.median_ms, "rounds": list(cold.samples_ms),
        },
        "warm_per_item_ms": {
            "median": warm.median_ms, "rounds": list(warm.samples_ms),
        },
        "speedup_warm_vs_uncached": (
            base.median_ms / warm.median_ms if warm.median_ms else 0.0
        ),
        "speedup_warm_vs_cold": (
            cold.median_ms / warm.median_ms if warm.median_ms else 0.0
        ),
        "warm_cache_stats": warm_caches.stats(),
        "note": (
            "popular-route + anchor-history lookups served from the "
            "repro.server LRU caches; byte identity asserted every round. "
            "The gain is algorithmic (skipped Dijkstra runs and feature-map "
            "reads), so it is honest on a 1-CPU container too — its size "
            "depends on how much of the per-item cost those lookups are "
            "and how often the corpus repeats landmark hops (see "
            "warm_cache_stats hit rates), not on core count."
        ),
    }

    return {
        "benchmark": (
            "summarize_many serial vs sharded worker pool "
            "(mean ms per trajectory, smoke corpus)"
        ),
        "rounds": rounds,
        "n_trips": trips,
        "cpu_count": os.cpu_count(),
        "cpu_bound": cpu,
        "cpu_bound_process": process,
        "hot_cache": hot_cache,
        "process_speedup_at_4_workers": process["speedup"]["4"],
        "note": (
            "cpu_bound is the bare pipeline on the thread executor, which "
            "runs the serial loop at any worker count, so ~1.0x "
            "is its ceiling by construction; cpu_bound_process serves the same "
            "batch with executor='process' from the city-model artifact on "
            f"a {os.cpu_count()}-CPU container — see its multicore_criterion "
            "block for the >1.5x-at-4-workers acceptance status."
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--training", type=int, default=40)
    parser.add_argument("--trips", type=int, default=8)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_serving.json"),
    )
    args = parser.parse_args()
    payload = run(args.rounds, args.training, args.trips)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))
    print(f"\nwritten to {args.out}")
    criterion = payload["cpu_bound_process"]["multicore_criterion"]
    status = (
        "advisory-skipped (1 CPU)" if criterion["advisory_skipped"]
        else ("met" if criterion["met"] else "NOT met")
    )
    print(
        f"process cpu-bound speedup at 4 workers: "
        f"{payload['process_speedup_at_4_workers']:.2f}x "
        f"(target >1.5x on multi-core: {status})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
