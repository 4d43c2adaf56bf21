"""STMaker benchmark: one workload, host-drift corrected, optionally traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense-5s --seed 1 --seconds 20 --trace 0

Prints each metric with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Exits non-zero when an output check fails (including a
digest mismatch on the default seed) and, without printing a result,
when the program's sources are missing.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((HERE / "config.json").read_text())
WORKLOAD_NAMES = tuple(CONFIG["workloads"])


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles`` inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def timings(host, run) -> dict:
    """Corrected and raw latency and throughput of one measured phase."""
    ok = run.attempted - run.failed
    lat = [host.corrected(a, b) * 1000.0 for a, b in run.intervals]
    raw = [(b - a) * 1000.0 for a, b in run.intervals]
    busy = sum(host.corrected(a, b) for a, b in run.busy)
    raw_busy = sum(b - a for a, b in run.busy)
    return {
        "throughput_items_per_s": ok / busy,
        "latency_p50_ms": quantile(lat, 0.50),
        "latency_p95_ms": quantile(lat, 0.95),
        "latencies": lat,
        "raw.throughput_items_per_s": ok / raw_busy,
        "raw.latency_p50_ms": quantile(raw, 0.50),
        "raw.latency_p95_ms": quantile(raw, 0.95),
        "host.correction_factor": busy / raw_busy,
    }


def set_up(args, host, wl):
    """Build the scenario and start the workload ``setup_repeats`` times.

    Returns the last workload plus the median corrected and raw set-up
    seconds.  Import is timed once (a module imports once per process)
    and added to every repeat; the benchmark's own helper start and
    probes are not counted.
    """
    t0, t1 = args.imported
    samples = []
    workload = None
    for _ in range(CONFIG["setup_repeats"]):
        if workload is not None:
            workload.stop()
            workload = None
            gc.collect()
        host.sample()
        start = time.perf_counter()
        scenario = wl.build_scenario(CONFIG)
        workload = wl.WORKLOADS[args.workload](
            args.workload, scenario, CONFIG, args.seed, args.workdir
        )
        workload.start()
        end = time.perf_counter()
        del scenario
        host.sample()
        samples.append((start, end))
    corrected = statistics.median(
        host.corrected(t0, t1) + host.corrected(a, b) for a, b in samples
    )
    raw = statistics.median((t1 - t0) + (b - a) for a, b in samples)
    return workload, corrected, raw


def layer_metrics(host, tracer, n: int) -> dict[str, float]:
    """Per-item layer figures from the traced phase's spans and counts."""
    factors: list[float] = []
    self_ms: dict[str, float] = {}
    incl_ms: dict[str, float] = {}
    children: dict[int, float] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        f = factors[span.parent] if span.parent is not None else host.factor(span.start, span.end)
        factors.append(f)
        self_ms[span.name] = self_ms.get(span.name, 0.0) + own * f * 1000.0
        incl_ms[span.name] = incl_ms.get(span.name, 0.0) + (span.end - span.start) * f * 1000.0
        if span.parent is not None and tracer.spans[span.parent].name == "summarize_many":
            children[span.parent] = children.get(span.parent, 0.0) + span.end - span.start
    coverage = [
        100.0 * children.get(i, 0.0) / (s.end - s.start)
        for i, s in enumerate(tracer.spans) if s.name == "summarize_many"
    ]
    counts = tracer.counts
    runs = counts["dijkstra"]
    return {
        "mapmatch.self_ms": self_ms.get("mapmatch", 0.0) / n,
        "mapmatch.match_calls": counts["mapmatch"] / n,
        "roadnet.dijkstra_runs": runs / n,
        "roadnet.dijkstra_settled_per_run": counts["dijkstra.settled"] / runs if runs else 0.0,
        "roadnet.dijkstra_ms": incl_ms.get("dijkstra", 0.0) / n,
        "roadnet.out_edges_calls": counts["out_edges"] / n,
        "roadnet.edges_near_calls": counts["edges_near"] / n,
        "calibration.self_ms": self_ms.get("calibrate", 0.0) / n,
        "features.extract_self_ms": self_ms.get("extract", 0.0) / n,
        "trajectory.sanitize_ms": incl_ms.get("sanitize", 0.0) / n,
        "core.partition_ms": incl_ms.get("partition", 0.0) / n,
        "core.select_ms": incl_ms.get("select", 0.0) / n,
        "core.realize_ms": incl_ms.get("realize", 0.0) / n,
        "routes.popular_route_calls": counts["popular_route"] / n,
        "routes.regular_value_calls": counts["regular_value"] / n,
        "trace.item_coverage_pct": statistics.median(coverage) if coverage else 0.0,
    }


def server_metrics(host, workload, run, n: int) -> dict[str, float]:
    """Queue, service, cache and generator figures of the served workload."""
    out = dict.fromkeys((
        "server.queue_wait_ms_p50", "server.queue_wait_ms_p95", "server.service_ms_p50",
        "server.cache.routes.hit_ratio", "server.cache.routes.lookups",
        "server.cache.anchors.hit_ratio", "server.cache.anchors.lookups",
        "generator.late_ms_p95",
    ), 0.0)
    if not run.sent:
        return out
    waits, services, late = [], [], []
    for record, (due, done) in zip(run.sent, run.intervals):
        f = host.factor(due, done)
        late.append((record.sent - due) * f * 1000.0)
        handle = record.handle
        if not isinstance(handle, Exception):
            waits.append(handle.queue_wait_s * f * 1000.0)
            services.append(handle.service_s * f * 1000.0)
    out["server.queue_wait_ms_p50"] = quantile(waits, 0.50)
    out["server.queue_wait_ms_p95"] = quantile(waits, 0.95)
    out["server.service_ms_p50"] = quantile(services, 0.50)
    out["generator.late_ms_p95"] = quantile(late, 0.95)
    stats = workload.server.caches.stats()
    for cache in ("routes", "anchors"):
        lookups = stats[cache]["hits"] + stats[cache]["misses"]
        out[f"server.cache.{cache}.hit_ratio"] = stats[cache]["hits"] / lookups if lookups else 0.0
        out[f"server.cache.{cache}.lookups"] = lookups / n
    return out


def pool_metrics(host, registry, run, n: int) -> dict[str, float]:
    """Per-call pool overhead and per-item artifact loads and resilience."""
    overhead, execs = [], []
    for start, end, exec_s in run.calls:
        f = host.factor(start, end)
        execs.append(exec_s * f * 1000.0)
        overhead.append((end - start - exec_s) * f * 1000.0)

    def counter(name: str) -> float:
        metric = registry.get(name)
        return metric.value / n if metric is not None else 0.0

    return {
        "serving.call_overhead_ms": statistics.fmean(overhead) if overhead else 0.0,
        "serving.worker_exec_ms": statistics.fmean(execs) if execs else 0.0,
        "artifact.loads": counter("artifact.loads"),
        "resilience.retries": counter("resilience.batch.retries"),
        "resilience.quarantined": counter("resilience.batch.quarantined"),
    }


def traced_phase(host, workload, base):
    """Replay *base*'s inputs with the entry points wrapped."""
    from repro import obs
    from tracer import Tracer, entry_points

    tracer = Tracer()
    registry = obs.enable_metrics()
    tracer.install(entry_points(top_only=not workload.traces_items))
    try:
        traced = workload.measure(host, 0.0, replay=base)
    finally:
        tracer.restore()
        obs.disable_metrics()
    return tracer, registry, traced


def report(name: str, value: float, unit: str) -> None:
    print(f"{name:<36} {value:>14.4f} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    args.workdir = ROOT / ".perfbench_work"

    from hostref import DriftCorrector, HelperProbe

    # Probe the CPUs the work runs on (see hostref): pin a single-threaded
    # workload to one CPU; leave a workload with several threads or
    # processes on the first `cpus` CPUs and probe each of them.
    spec = CONFIG["workloads"][args.workload]
    cpus = sorted(os.sched_getaffinity(0))[:spec.get("cpus", 1)]
    if len(cpus) == 1:
        os.sched_setaffinity(0, cpus)
    host = DriftCorrector(
        CONFIG["nominal_ref_ms"], HelperProbe(cpus), interval_s=CONFIG["probe_interval_s"]
    )
    workload = None
    try:
        host.sample()
        t0 = time.perf_counter()
        import workloads as wl
        args.imported = (t0, time.perf_counter())
        host.sample()
        workload, setup_s, raw_setup_s = set_up(args, host, wl)
        return measure_and_report(args, host, wl, workload, setup_s, raw_setup_s)
    finally:
        if workload is not None:
            workload.stop()
        host.probe.close()
        shutil.rmtree(args.workdir, ignore_errors=True)


def measure_and_report(args, host, wl, workload, setup_s, raw_setup_s) -> int:
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    run = workload.measure(host, seconds, keep=bool(args.trace))
    checks = []
    spec = CONFIG["workloads"][args.workload]
    prefix = wl.digest(run.outputs[:CONFIG["digest_items"]])
    if args.seed == CONFIG["default_seed"] and spec["digest"] is not None:
        checks.append(("digest", prefix == spec["digest"]))
    if isinstance(workload, wl.Served):
        checks.append(("spot-check", workload.spot_check(run, CONFIG["spot_checks"]) == 0))
    t = timings(host, run)
    n = run.attempted
    metrics = {
        "setup_s": setup_s,
        "throughput_items_per_s": t["throughput_items_per_s"],
        "latency_p50_ms": t["latency_p50_ms"],
        "latency_p95_ms": t["latency_p95_ms"],
        # A failed item never finishes within the limit.
        "slo_attainment": sum(
            x <= spec["slo_ms"] for x, out in zip(t["latencies"], run.outputs)
            if out[1] is not None
        ) / n,
        "peak_rss_mb": peak_rss_mb(include_children=isinstance(workload, wl.ProcessPool)),
    }
    diagnostics = {
        "host.ref_kernel_ms": statistics.median(host.values),
        "host.correction_factor": t["host.correction_factor"],
        "raw.setup_s": raw_setup_s,
        "raw.throughput_items_per_s": t["raw.throughput_items_per_s"],
        "raw.latency_p50_ms": t["raw.latency_p50_ms"],
        "raw.latency_p95_ms": t["raw.latency_p95_ms"],
    }

    print(f"workload {args.workload}  seed {args.seed}  items {n}  failed {run.failed}"
          f"  host probes {len(host.values)}")
    print(f"digest of first {CONFIG['digest_items']} outputs: {prefix}")
    units = declared_units("end_to_end")
    for name, value in metrics.items():
        report(name, value, units[name])
    report("error_rate", run.failed / n, "ratio")
    per_layer_units = declared_units("per_layer")
    for name, value in diagnostics.items():
        report(name, value, per_layer_units[name])
    result_metrics = {
        name: {"value": value, "unit": units[name]} for name, value in metrics.items()
    }

    if args.trace:
        tracer, registry, traced = traced_phase(host, workload, run)
        checks.append(("traced-outputs", traced.outputs == run.outputs))
        per_item = traced.attempted
        tt = timings(host, traced)
        layers = layer_metrics(host, tracer, per_item)
        layers.update(server_metrics(host, workload, traced, per_item))
        layers.update(pool_metrics(host, registry, traced, per_item))
        layers.update(diagnostics)
        layers["trace.overhead_pct"] = 100.0 * (
            1.0 - tt["throughput_items_per_s"] / t["throughput_items_per_s"]
        )
        layers["trace.items"] = float(per_item)
        for name, value in layers.items():
            report(name, value, per_layer_units[name])
        result_metrics = {
            name: {"value": value, "unit": per_layer_units[name]}
            for name, value in layers.items()
        }

    for name, ok in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    correct = all(ok for _, ok in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": run.failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
