"""Shared statistical benchmark runner with history and a regression gate.

Every benchmark in this repo funnels through the same measurement core:

* :func:`measure` — warmup + repeated runs of a callable, reporting
  median / IQR / min / max / mean in milliseconds (per unit of work when
  the callable returns how many units it processed);
* :func:`measure_interleaved` — several configurations timed round-robin,
  round by round, so scheduler drift hits all of them equally (the
  technique the obs/resilience overhead baselines rely on);
* :func:`append_history` — each run appends one JSON line (timestamp,
  environment fingerprint, stats per benchmark, gate outcome) to
  ``BENCH_history.jsonl`` at the repo root, growing a perf trajectory
  instead of overwriting one-off snapshots;
* :func:`check_regressions` — compares medians against the committed
  ``benchmarks/BENCH_baseline.json`` with a tolerance threshold.  CI runs
  this in smoke mode as an **advisory** gate: it warns (and can exit
  non-zero with ``--gate``) when a median regresses, but hardware varies,
  so the default is to report, not to block.

Two built-in suites share the machinery:

* ``--smoke`` (default) — small end-to-end pipeline workloads;
* ``--figures`` — miniature versions of the per-figure experiment
  runners behind ``benchmarks/bench_fig*.py``, so a perf regression in
  any figure pipeline trips the same history/trend gate without anyone
  re-running the full figure harness.  Each suite records history under
  its own ``mode``, so trends never mix the two.

Run directly::

    PYTHONPATH=src python benchmarks/harness.py --smoke
    PYTHONPATH=src python benchmarks/harness.py --figures
    PYTHONPATH=src python benchmarks/harness.py --smoke --update-baseline
    PYTHONPATH=src python benchmarks/harness.py --smoke --gate  # exit 1 on regress
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_HISTORY = REPO_ROOT / "BENCH_history.jsonl"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_baseline.json"
DEFAULT_TOLERANCE_PCT = 20.0


@dataclass(frozen=True, slots=True)
class BenchStats:
    """Summary statistics of one benchmark's repeated samples (ms)."""

    name: str
    samples_ms: tuple[float, ...]
    warmup: int

    @property
    def repeats(self) -> int:
        return len(self.samples_ms)

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)

    @property
    def mean_ms(self) -> float:
        return statistics.fmean(self.samples_ms)

    @property
    def min_ms(self) -> float:
        return min(self.samples_ms)

    @property
    def max_ms(self) -> float:
        return max(self.samples_ms)

    @property
    def iqr_ms(self) -> float:
        if len(self.samples_ms) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.samples_ms, n=4)
        return q3 - q1

    def to_dict(self) -> dict[str, object]:
        return {
            "repeats": self.repeats,
            "warmup": self.warmup,
            "median_ms": self.median_ms,
            "iqr_ms": self.iqr_ms,
            "min_ms": self.min_ms,
            "max_ms": self.max_ms,
            "mean_ms": self.mean_ms,
            "samples_ms": list(self.samples_ms),
        }


def stats_from_samples(name: str, samples_ms, warmup: int = 0) -> BenchStats:
    """Wrap already-collected samples (ms) in a :class:`BenchStats`."""
    if not samples_ms:
        raise ValueError(f"benchmark {name!r} produced no samples")
    return BenchStats(name, tuple(float(s) for s in samples_ms), warmup)


def _run_once(fn: Callable[[], object], sample: str) -> float:
    start = time.perf_counter()
    out = fn()
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if sample == "returned":
        return float(out)  # type: ignore[arg-type]
    units = out if isinstance(out, int) and out > 0 else 1
    return elapsed_ms / units


def measure(
    fn: Callable[[], object],
    *,
    name: str,
    repeats: int = 5,
    warmup: int = 1,
    sample: str = "wall",
) -> BenchStats:
    """Time ``fn()`` *repeats* times after *warmup* unmeasured runs.

    With ``sample="wall"`` (default) each sample is the wall time in ms,
    divided by the number of work units when ``fn`` returns a positive
    int — so callables that loop over a batch report per-item cost.  With
    ``sample="returned"`` the callable measures itself and returns the
    sample in ms (used by workloads whose cost metric is not plain wall
    time, e.g. the Fig. 12 per-trajectory means).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        fn()
    return stats_from_samples(
        name, [_run_once(fn, sample) for _ in range(repeats)], warmup
    )


def measure_interleaved(
    fns: dict[str, Callable[[], object]],
    *,
    repeats: int = 5,
    warmup: int = 1,
    sample: str = "wall",
) -> dict[str, BenchStats]:
    """Measure several configurations round-robin, one round at a time.

    Round *i* runs every configuration once before round *i+1* starts, so
    slow drift (thermal throttling, background load) biases all
    configurations equally instead of whichever ran last.
    """
    for _ in range(warmup):
        for fn in fns.values():
            fn()
    samples: dict[str, list[float]] = {name: [] for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            samples[name].append(_run_once(fn, sample))
    return {
        name: stats_from_samples(name, rounds, warmup)
        for name, rounds in samples.items()
    }


# -- history + regression gate ------------------------------------------------


def append_history(
    results: dict[str, BenchStats],
    *,
    path=DEFAULT_HISTORY,
    mode: str = "smoke",
    gate: list[dict[str, object]] | None = None,
    extra: dict[str, object] | None = None,
) -> dict[str, object]:
    """Append one JSONL record of this run; returns the record."""
    from repro.obs.report import environment_fingerprint

    record: dict[str, object] = {
        "ts_unix": time.time(),
        "mode": mode,
        "environment": environment_fingerprint(),
        "results": {name: stats.to_dict() for name, stats in results.items()},
    }
    if gate is not None:
        record["gate"] = gate
    if extra:
        record.update(extra)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, default=str) + "\n")
    return record


def load_baseline(path=DEFAULT_BASELINE) -> dict[str, object] | None:
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def write_baseline(
    results: dict[str, BenchStats],
    *,
    path=DEFAULT_BASELINE,
    tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
) -> dict[str, object]:
    from repro.obs.report import environment_fingerprint

    payload = {
        "recorded_unix": time.time(),
        "tolerance_pct": tolerance_pct,
        "environment": environment_fingerprint(),
        "medians_ms": {name: stats.median_ms for name, stats in results.items()},
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, default=str) + "\n", encoding="utf-8"
    )
    return payload


def check_regressions(
    results: dict[str, BenchStats],
    baseline: dict[str, object] | None,
    tolerance_pct: float | None = None,
) -> list[dict[str, object]]:
    """Compare medians against the baseline; one finding per benchmark.

    ``status`` is ``"ok"`` (within tolerance, or faster), ``"regressed"``
    (median more than ``tolerance_pct`` slower than baseline), or
    ``"new"`` (no baseline entry to compare against).
    """
    findings: list[dict[str, object]] = []
    medians: dict[str, float] = {}
    if baseline:
        medians = dict(baseline.get("medians_ms", {}))  # type: ignore[arg-type]
        if tolerance_pct is None:
            tolerance_pct = float(baseline.get("tolerance_pct", DEFAULT_TOLERANCE_PCT))
    if tolerance_pct is None:
        tolerance_pct = DEFAULT_TOLERANCE_PCT
    for name, stats in results.items():
        base = medians.get(name)
        if base is None:
            findings.append({
                "name": name, "status": "new",
                "median_ms": stats.median_ms, "baseline_ms": None,
                "delta_pct": None,
            })
            continue
        delta_pct = 100.0 * (stats.median_ms - base) / base if base else 0.0
        findings.append({
            "name": name,
            "status": "regressed" if delta_pct > tolerance_pct else "ok",
            "median_ms": stats.median_ms,
            "baseline_ms": base,
            "delta_pct": delta_pct,
        })
    return findings


def load_history(path=DEFAULT_HISTORY, *, mode: str | None = "smoke") -> list[dict]:
    """The parsed ``BENCH_history.jsonl`` records (oldest first).

    Unparseable lines are skipped — the history survives interrupted runs
    and hand edits.  *mode* filters to records of one benchmark mode
    (``None`` keeps everything).
    """
    path = Path(path)
    if not path.exists():
        return []
    records: list[dict] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if mode is not None and record.get("mode") != mode:
            continue
        records.append(record)
    return records


def check_trend(
    results: dict[str, BenchStats],
    history: list[dict],
    *,
    window: int = 5,
    tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
) -> list[dict[str, object]]:
    """Judge this run against the *trend* of the last *window* history runs.

    The reference for each benchmark is the median of its last *window*
    recorded medians — so one noisy historical run cannot poison the gate
    the way a single-sample baseline can.  ``status`` is ``"regressed"``
    when this run's median is more than *tolerance_pct* above the trend,
    ``"ok"`` when within it, and ``"new"`` with fewer than two prior runs
    (a trend needs history to exist).
    """
    findings: list[dict[str, object]] = []
    for name, stats in results.items():
        prior = [
            record["results"][name]["median_ms"]
            for record in history
            if name in record.get("results", {})
        ][-window:]
        if len(prior) < 2:
            findings.append({
                "name": name, "status": "new",
                "median_ms": stats.median_ms, "trend_ms": None,
                "delta_pct": None, "window": len(prior),
            })
            continue
        trend = statistics.median(prior)
        delta_pct = 100.0 * (stats.median_ms - trend) / trend if trend else 0.0
        findings.append({
            "name": name,
            "status": "regressed" if delta_pct > tolerance_pct else "ok",
            "median_ms": stats.median_ms,
            "trend_ms": trend,
            "delta_pct": delta_pct,
            "window": len(prior),
        })
    return findings


# -- regression attribution ----------------------------------------------------


def profile_stages(fn: Callable[[], object]) -> dict[str, float]:
    """One traced run of *fn*: per-stage span totals, in ms.

    Uses a private :class:`~repro.obs.TraceCollector` so the profiling
    pass never mixes with a collector the caller may have enabled; the
    prior collector (if any) is restored afterwards.
    """
    from repro import obs

    collector = obs.TraceCollector()
    prior = obs.get_collector()
    obs.enable_tracing(collector)
    try:
        fn()
    finally:
        if prior is not None:
            obs.enable_tracing(prior)
        else:
            obs.disable_tracing()
    return {total.name: total.total_ms for total in collector.stage_totals()}


def attribute_trend_regression(
    name: str,
    profile: dict[str, float],
    history: list[dict],
) -> list[dict[str, object]]:
    """Per-stage diff of this run's span profile vs the last recorded one.

    When the trend gate trips, "the median got slower" is the *what*; this
    is the *where* — which pipeline stages account for the movement.  The
    reference is the most recent history record carrying a
    ``stage_profile`` for *name* (each gated run appends its own, so the
    comparison is run-over-run).  Rows are sorted by absolute delta,
    biggest contributor first; empty when no prior profile exists.
    """
    prior_profile: dict[str, object] | None = None
    for record in reversed(history):
        profiles = record.get("stage_profile")
        if isinstance(profiles, dict) and isinstance(profiles.get(name), dict):
            prior_profile = profiles[name]
            break
    if not prior_profile:
        return []
    rows: list[dict[str, object]] = []
    for stage in sorted(set(profile) | set(prior_profile)):
        now = float(profile.get(stage, 0.0))
        then = float(prior_profile.get(stage, 0.0))  # type: ignore[arg-type]
        rows.append({
            "stage": stage, "now_ms": now, "then_ms": then,
            "delta_ms": now - then,
        })
    rows.sort(key=lambda row: -abs(row["delta_ms"]))  # type: ignore[arg-type]
    return rows


# -- smoke suite --------------------------------------------------------------


def smoke_suite(training: int = 40, trips: int = 8) -> dict[str, Callable[[], object]]:
    """Small end-to-end workloads that finish in seconds (the CI gate)."""
    from repro.simulate import CityScenario, ScenarioConfig
    from repro.trajectory import sanitize_trajectory

    scenario = CityScenario.build(
        ScenarioConfig(seed=7, n_training_trips=training)
    )
    stmaker = scenario.stmaker
    batch = [
        scenario.simulate_trip(depart_time=(8.0 + 0.25 * i) * 3600.0).raw
        for i in range(trips)
    ]

    def summarize_single() -> int:
        stmaker.summarize(batch[0], k=2)
        return 1

    def summarize_many_batch() -> int:
        stmaker.summarize_many(batch, k=2)
        return len(batch)

    def summarize_many_pooled() -> int:
        # Batch-runner smoke: a thread batch runs the serial loop at any
        # worker count, so this guards the runner/reassembly overhead;
        # there is no parallelism to measure
        # (benchmarks/record_serving_baseline.py records the process
        # executor's speedup).
        stmaker.summarize_many(batch, k=2, workers=4)
        return len(batch)

    def sanitize_clean() -> int:
        for raw in batch:
            sanitize_trajectory(raw)
        return len(batch)

    return {
        "smoke.summarize_single_ms": summarize_single,
        "smoke.summarize_many_per_item_ms": summarize_many_batch,
        "smoke.summarize_many_workers4_per_item_ms": summarize_many_pooled,
        "smoke.sanitize_clean_per_item_ms": sanitize_clean,
    }


# -- figures suite ------------------------------------------------------------


def figures_suite(training: int = 40) -> dict[str, Callable[[], object]]:
    """Miniature versions of the per-figure experiment workloads.

    Each callable drives the same :mod:`repro.experiments.runners`
    function that the corresponding ``benchmarks/bench_fig*.py`` pytest
    benchmark wraps, at sizes small enough for CI (seconds, not minutes).
    The point is coverage, not fidelity: a regression anywhere in a
    figure's pipeline — feature frequency, user study grading, sweep
    loops — moves its median here and trips the history/trend gate long
    before anyone reruns the full figure harness.  Samples are per work
    unit (trips summarized, or sweep cells), like the smoke suite.
    """
    from repro.experiments import runners
    from repro.simulate import CityScenario, ScenarioConfig

    scenario = CityScenario.build(
        ScenarioConfig(seed=7, n_training_trips=training)
    )

    def case_study() -> int:
        runners.run_case_study(scenario, ks=(1, 2, 3))
        return 3

    def time_of_day() -> int:
        runners.run_time_of_day(scenario, trips_per_bin=2)
        return 24  # 12 bins x 2 trips

    def landmark_usage() -> int:
        runners.run_landmark_usage(scenario, n_trips=10)
        return 10

    def feature_weight() -> int:
        runners.run_feature_weight_sweep(
            scenario, weights=(0.5, 2.0), n_trips=6
        )
        return 12  # 2 weights x 6 trips

    def partition_size() -> int:
        runners.run_partition_size_sweep(scenario, ks=(1, 3), n_trips=6)
        return 12  # 2 ks x 6 trips

    def user_study() -> int:
        runners.run_user_study_experiment(
            scenario, n_summaries=12, n_readers=5
        )
        return 12

    def efficiency() -> int:
        runners.run_efficiency(scenario, n_trips=8, ks=(1, 3))
        return 8

    return {
        "figures.fig06_case_study_per_k_ms": case_study,
        "figures.fig08_time_of_day_per_trip_ms": time_of_day,
        "figures.fig09_landmark_usage_per_trip_ms": landmark_usage,
        "figures.fig10a_feature_weight_per_cell_ms": feature_weight,
        "figures.fig10b_partition_size_per_cell_ms": partition_size,
        "figures.fig11_user_study_per_summary_ms": user_study,
        "figures.fig12_efficiency_per_trip_ms": efficiency,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the small end-to-end CI suite (the default)",
    )
    parser.add_argument(
        "--figures", action="store_true",
        help="run miniature per-figure experiment workloads (combinable "
        "with --smoke; each suite keeps its own history mode)",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument("--training", type=int, default=40)
    parser.add_argument("--trips", type=int, default=8)
    parser.add_argument("--history", default=str(DEFAULT_HISTORY))
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not append this run to the history file",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the measured medians as the new committed baseline",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="exit 1 when any benchmark regressed beyond tolerance "
        "(default: advisory — warn and exit 0)",
    )
    parser.add_argument(
        "--trend-window", type=int, default=0, metavar="K",
        help="also judge each median against the median of its last K "
        "history runs (0 = off); regressions count toward --gate",
    )
    args = parser.parse_args(argv)

    run_smoke = args.smoke or not args.figures
    suite: dict[str, Callable[[], object]] = {}
    if run_smoke:
        suite.update(smoke_suite(training=args.training, trips=args.trips))
    if args.figures:
        suite.update(figures_suite(training=args.training))
    # History records are tagged by suite so trends compare like with like.
    mode = "+".join(
        name for name, on in (("smoke", run_smoke), ("figures", args.figures)) if on
    )
    results: dict[str, BenchStats] = {}
    for name, fn in suite.items():
        results[name] = measure(
            fn, name=name, repeats=args.repeats, warmup=args.warmup
        )
        stats = results[name]
        print(
            f"{name:<40} median={stats.median_ms:9.3f} ms  "
            f"iqr={stats.iqr_ms:8.3f}  min={stats.min_ms:9.3f}  "
            f"(n={stats.repeats})"
        )

    baseline = load_baseline(args.baseline)
    findings = check_regressions(results, baseline)
    regressed = [f for f in findings if f["status"] == "regressed"]
    for finding in findings:
        if finding["status"] == "new":
            print(f"gate: {finding['name']}: no baseline entry (new)", file=sys.stderr)
        elif finding["status"] == "regressed":
            print(
                f"gate: REGRESSION {finding['name']}: "
                f"{finding['median_ms']:.3f} ms vs baseline "
                f"{finding['baseline_ms']:.3f} ms "
                f"({finding['delta_pct']:+.1f}%)",
                file=sys.stderr,
            )
    if not regressed and baseline is not None:
        print("gate: all benchmarks within tolerance", file=sys.stderr)

    trend_findings: list[dict[str, object]] = []
    stage_profiles: dict[str, dict[str, float]] = {}
    if args.trend_window > 0:
        # Judge against the recent history trend, not just the committed
        # one-shot baseline — the history file persists across CI runs.
        # One traced pass per benchmark records where the time went, so a
        # tripped gate can name the stages that moved, not just the total.
        history = load_history(args.history, mode=mode)
        stage_profiles = {name: profile_stages(fn) for name, fn in suite.items()}
        trend_findings = check_trend(
            results, history, window=args.trend_window
        )
        for finding in trend_findings:
            if finding["status"] == "new":
                print(
                    f"trend: {finding['name']}: only {finding['window']} "
                    f"prior run(s), need 2+ for a trend",
                    file=sys.stderr,
                )
            elif finding["status"] == "regressed":
                print(
                    f"trend: REGRESSION {finding['name']}: "
                    f"{finding['median_ms']:.3f} ms vs trend "
                    f"{finding['trend_ms']:.3f} ms over last "
                    f"{finding['window']} run(s) "
                    f"({finding['delta_pct']:+.1f}%)",
                    file=sys.stderr,
                )
                name = str(finding["name"])
                rows = attribute_trend_regression(
                    name, stage_profiles.get(name, {}), history
                )
                if not rows:
                    print(
                        "trend:   (no prior stage profile to attribute "
                        "against)",
                        file=sys.stderr,
                    )
                for row in rows[:5]:
                    print(
                        f"trend:   stage {row['stage']}: "
                        f"{row['now_ms']:.3f} ms vs {row['then_ms']:.3f} ms "
                        f"({row['delta_ms']:+.3f})",
                        file=sys.stderr,
                    )
        trend_regressed = [
            f for f in trend_findings if f["status"] == "regressed"
        ]
        if not trend_regressed and any(
            f["status"] == "ok" for f in trend_findings
        ):
            print(
                f"trend: all benchmarks within tolerance of the last "
                f"{args.trend_window}-run trend",
                file=sys.stderr,
            )
        regressed.extend(trend_regressed)

    if not args.no_history:
        append_history(
            results, path=args.history, mode=mode,
            gate=findings + trend_findings,
            extra=(
                {"stage_profile": stage_profiles} if stage_profiles else None
            ),
        )
        print(f"history appended to {args.history}", file=sys.stderr)
    if args.update_baseline:
        write_baseline(results, path=args.baseline)
        print(f"baseline written to {args.baseline}", file=sys.stderr)
    if regressed and args.gate:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
