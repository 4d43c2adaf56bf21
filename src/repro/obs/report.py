"""Run reports: one artifact that joins everything a run observed.

A :class:`RunReport` collects, for one batch of summarizations:

* the **environment** fingerprint (python, platform, numpy, CPU count);
* the **metrics** snapshot of the active registry;
* per-stage **time totals** aggregated from the trace collector;
* **resilience** roll-ups — degradation events per stage, quarantine and
  retry counts, sanitization repairs;
* **serving** breakdown — when the batch ran on the sharded worker pool
  (``summarize_many(workers=N)``), per-shard items/throughput/duration
  from the ``serving.shard.<id>.*`` gauges;
* **summary quality** — partition-count distribution, selected-feature
  rates and keys, and the distribution of the irregular rates Γ_f(TP)
  that drove selection (the paper's Sec. V criterion).

Build one with :func:`build_run_report`, then ``to_json()`` /
``to_markdown()`` or ``write(prefix)`` for the paired artifact the CLI
(``stmaker report``, ``stmaker summarize --report-out``) and CI publish.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.obs.metrics import MetricsRegistry, NullMetrics, clamped_p95
from repro.obs.trace import TraceCollector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.types import TrajectorySummary
    from repro.resilience import BatchResult, LatencyBreakdown


def environment_fingerprint() -> dict[str, object]:
    """What hardware/software produced a measurement (for comparability)."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "executable": sys.executable,
    }


def _distribution(values: list[float]) -> dict[str, object]:
    """count/min/mean/max/p50/p95 of a value list (``{}``-safe)."""
    if not values:
        return {"count": 0}
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "min": ordered[0],
        "mean": statistics.fmean(ordered),
        "max": ordered[-1],
        "p50": statistics.median(ordered),
        "p95": clamped_p95(ordered),
    }


def _markdown_table(headers: list[str], rows: list[list[object]]) -> str:
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(fmt(cell) for cell in row) + " |")
    return "\n".join(lines)


@dataclass(slots=True)
class RunReport:
    """The joined observability artifact of one run."""

    created_unix: float
    environment: dict[str, object]
    stages: list[dict[str, object]]
    resilience: dict[str, object]
    quality: dict[str, object]
    metrics: dict[str, dict[str, object]] = field(default_factory=dict)
    #: Sharded-serving breakdown (``{}`` when the batch ran serially).
    serving: dict[str, object] = field(default_factory=dict)
    #: Failure-containment roll-up — crashes, shard retries/bisections,
    #: breaker state, shed load (``{}`` when nothing was contained).
    containment: dict[str, object] = field(default_factory=dict)
    #: Per-item latency accounting rolled up from the
    #: :class:`~repro.resilience.LatencyBreakdown` s of the supplied
    #: batches — phase distributions plus per-stage execution totals
    #: (``{}`` when no batch carried breakdowns).
    latency: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "created_unix": self.created_unix,
            "environment": self.environment,
            "stages": self.stages,
            "resilience": self.resilience,
            "quality": self.quality,
            "metrics": self.metrics,
            "serving": self.serving,
            "containment": self.containment,
            "latency": self.latency,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def to_markdown(self) -> str:
        sections = [
            "# STMaker run report",
            "",
            f"Generated at unix time {self.created_unix:.0f} on "
            f"Python {self.environment.get('python')} "
            f"({self.environment.get('platform')}, "
            f"{self.environment.get('cpu_count')} CPUs).",
        ]

        quality = self.quality
        sections += [
            "",
            "## Summary quality",
            "",
            f"- summaries: **{quality.get('summaries', 0)}**",
            f"- partitions per summary: "
            f"{json.dumps(quality.get('partition_counts', {}))} "
            f"(mean {quality.get('partitions_mean', 0.0):.2f})",
            f"- selected features per partition: "
            f"{quality.get('selected_per_partition', 0.0):.2f}",
        ]
        top = quality.get("selected_feature_keys", {})
        if top:
            sections += [
                "",
                _markdown_table(
                    ["selected feature", "mentions"],
                    [[key, count] for key, count in top.items()],
                ),
            ]
        gamma = quality.get("gamma_selected", {"count": 0})
        if gamma.get("count"):
            sections += [
                "",
                "Γ (irregular rate) of selected features: "
                f"min {gamma['min']:.3f} · p50 {gamma['p50']:.3f} · "
                f"p95 {gamma['p95']:.3f} · max {gamma['max']:.3f} "
                f"over {gamma['count']} assessments.",
            ]

        resilience = self.resilience
        sections += [
            "",
            "## Resilience",
            "",
            f"- degraded summaries: **{resilience.get('degraded_summaries', 0)}**"
            f" / {quality.get('summaries', 0)}",
            f"- quarantined items: **{resilience.get('quarantined', 0)}**",
            f"- transient retries: {resilience.get('retries', 0)}",
            f"- sanitized inputs: {resilience.get('sanitized_inputs', 0)} "
            f"(points dropped: {resilience.get('points_dropped', 0)})",
        ]
        per_stage = resilience.get("fallbacks_by_stage", {})
        if per_stage:
            sections += [
                "",
                _markdown_table(
                    ["stage", "fallbacks"],
                    [[stage, count] for stage, count in per_stage.items()],
                ),
            ]
        entries = resilience.get("quarantine_entries", [])
        if entries:
            sections += [
                "",
                "Quarantine post-mortem:",
                "",
                _markdown_table(
                    ["index", "trajectory", "error", "attempts",
                     "duration s", "shard"],
                    [
                        [
                            e["index"], e["trajectory_id"], e["error_type"],
                            e["attempts"], e.get("total_duration_s", 0.0),
                            "-" if e.get("shard_id") is None else e["shard_id"],
                        ]
                        for e in entries
                    ],
                ),
            ]

        containment = self.containment
        if containment:
            sections += [
                "",
                "## Failure containment",
                "",
                f"- worker crash incidents: **{containment.get('crashes', 0)}**",
                f"- shards retried: {containment.get('retried_shards', 0)}"
                f" · bisected: {containment.get('bisected_shards', 0)}",
                f"- items shed by admission control: "
                f"{containment.get('shed_items', 0)}"
                f" · degraded admissions: "
                f"{containment.get('degraded_admissions', 0)}",
                f"- breaker trips: {containment.get('breaker_trips', 0)}"
                f" · shards denied by open breakers: "
                f"{containment.get('breaker_denied_shards', 0)}",
            ]
            breakers = containment.get("breakers", [])
            if breakers:
                sections += [
                    "",
                    _markdown_table(
                        ["breaker", "state"],
                        [[b["name"], b["state"]] for b in breakers],
                    ),
                ]

        phases = self.latency.get("phases_ms", {})
        if phases:
            sections += [
                "",
                "## Item latency accounting",
                "",
                f"Phase-by-phase wall clock of "
                f"**{self.latency.get('items', 0)} item(s)** "
                f"({self.latency.get('attempts_total', 0)} summarization "
                f"attempt(s)).",
                "",
                _markdown_table(
                    ["phase", "min ms", "mean ms", "p50 ms", "p95 ms", "max ms"],
                    [
                        [
                            phase, dist.get("min", 0.0), dist.get("mean", 0.0),
                            dist.get("p50", 0.0), dist.get("p95", 0.0),
                            dist.get("max", 0.0),
                        ]
                        for phase, dist in phases.items()
                        if dist.get("count")
                    ],
                ),
            ]
            stage_totals = self.latency.get("stage_totals_ms", {})
            if stage_totals:
                sections += [
                    "",
                    _markdown_table(
                        ["exec stage", "total ms"],
                        [[stage, total] for stage, total in stage_totals.items()],
                    ),
                ]

        shards = self.serving.get("shards", [])
        if shards:
            sections += [
                "",
                "## Sharded serving",
                "",
                f"Batch served by **{self.serving.get('workers', '?')} worker(s)** "
                f"over **{len(shards)} shard(s)**.",
                "",
                _markdown_table(
                    ["shard", "items", "ok", "quarantined", "duration ms", "items/s"],
                    [
                        [
                            s["shard_id"], s["items"], s["ok"], s["quarantined"],
                            s["duration_ms"], s["items_per_s"],
                        ]
                        for s in shards
                    ],
                ),
            ]

        if self.stages:
            sections += [
                "",
                "## Pipeline stage times (traced)",
                "",
                _markdown_table(
                    ["stage", "calls", "total ms", "mean ms"],
                    [
                        [s["name"], s["count"], s["total_ms"], s["mean_ms"]]
                        for s in self.stages
                    ],
                ),
            ]

        if self.metrics:
            rows = []
            for name, data in self.metrics.items():
                if data["type"] == "histogram":
                    rows.append([
                        name, "histogram",
                        f"count={data['count']:g} mean={data['mean']:.3f} "
                        f"p95={data['p95'] if data['p95'] is not None else '-'}",
                    ])
                else:
                    rows.append([name, data["type"], f"{data['value']:g}"])
            sections += [
                "",
                "## Metrics",
                "",
                _markdown_table(["series", "type", "value"], rows),
            ]
        return "\n".join(sections) + "\n"

    def write(self, prefix) -> tuple[str, str]:
        """Write ``<prefix>.json`` and ``<prefix>.md``; returns both paths."""
        json_path, md_path = f"{prefix}.json", f"{prefix}.md"
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")
        with open(md_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_markdown())
        return json_path, md_path


def _quality_stats(summaries: list["TrajectorySummary"]) -> dict[str, object]:
    partition_counts: dict[str, int] = {}
    selected_keys: dict[str, int] = {}
    gamma_selected: list[float] = []
    gamma_assessed: list[float] = []
    n_partitions = 0
    n_selected = 0
    for summary in summaries:
        key = str(summary.partition_count)
        partition_counts[key] = partition_counts.get(key, 0) + 1
        for partition in summary.partitions:
            n_partitions += 1
            n_selected += len(partition.selected)
            for assessment in partition.assessments:
                gamma_assessed.append(assessment.irregular_rate)
            for assessment in partition.selected:
                gamma_selected.append(assessment.irregular_rate)
                selected_keys[assessment.key] = selected_keys.get(assessment.key, 0) + 1
    return {
        "summaries": len(summaries),
        "partition_counts": dict(sorted(partition_counts.items())),
        "partitions_mean": n_partitions / len(summaries) if summaries else 0.0,
        "selected_per_partition": n_selected / n_partitions if n_partitions else 0.0,
        "selected_feature_keys": dict(
            sorted(selected_keys.items(), key=lambda kv: -kv[1])
        ),
        "gamma_selected": _distribution(gamma_selected),
        "gamma_assessed": _distribution(gamma_assessed),
    }


def _resilience_stats(
    summaries: list["TrajectorySummary"],
    batches: list["BatchResult"],
) -> dict[str, object]:
    fallbacks_by_stage: dict[str, int] = {}
    degraded = 0
    for summary in summaries:
        if summary.degradation.degraded:
            degraded += 1
        for event in summary.degradation:
            fallbacks_by_stage[event.stage] = fallbacks_by_stage.get(event.stage, 0) + 1
    quarantined = sum(len(batch.quarantined) for batch in batches)
    retries = sum(
        entry.attempts - 1
        for batch in batches
        for entry in batch.quarantined
        if entry.attempts > 1
    )
    sanitized = 0
    points_dropped = 0
    for batch in batches:
        for report in batch.sanitization:
            if report is not None and not report.clean:
                sanitized += 1
                points_dropped += report.dropped_total
    return {
        "degraded_summaries": degraded,
        "fallbacks_by_stage": dict(sorted(fallbacks_by_stage.items())),
        "quarantined": quarantined,
        "retries": retries,
        "sanitized_inputs": sanitized,
        "points_dropped": points_dropped,
        "quarantine_entries": [
            entry.to_dict() for batch in batches for entry in batch.quarantined
        ],
    }


def _serving_stats(
    metrics_snapshot: dict[str, dict[str, object]],
) -> dict[str, object]:
    """Per-shard throughput rows from the ``serving.shard.<id>.*`` gauges.

    Returns ``{}`` when the run never touched the worker pool, so serial
    run reports are unchanged.
    """
    per_shard: dict[int, dict[str, object]] = {}
    for name, data in metrics_snapshot.items():
        parts = name.split(".")
        if (
            len(parts) != 4
            or parts[0] != "serving"
            or parts[1] != "shard"
            or not parts[2].isdigit()
        ):
            continue
        shard = per_shard.setdefault(int(parts[2]), {"shard_id": int(parts[2])})
        value = data.get("value")
        # Counts arrive as float gauges; render them as the ints they are.
        if parts[3] in ("items", "ok", "quarantined") and value is not None:
            value = int(value)  # type: ignore[arg-type]
        shard[parts[3]] = value
    if not per_shard:
        return {}
    out: dict[str, object] = {
        "shards": [per_shard[shard_id] for shard_id in sorted(per_shard)],
    }
    for gauge, key in (("serving.workers", "workers"), ("serving.shards", "shard_count")):
        data = metrics_snapshot.get(gauge)
        if data and data.get("value") is not None:
            out[key] = int(data["value"])  # type: ignore[arg-type]
    return out


#: Containment counters lifted into the report, metric name → report key.
_CONTAINMENT_COUNTERS = {
    "serving.crashes": "crashes",
    "serving.retried_shards": "retried_shards",
    "serving.bisected_shards": "bisected_shards",
    "serving.shed_items": "shed_items",
    "serving.degraded_admissions": "degraded_admissions",
    "serving.breaker.trips": "breaker_trips",
    "serving.breaker.denied_shards": "breaker_denied_shards",
}

#: ``serving.breaker.<name>.state`` gauge values, index = gauge value.
_BREAKER_STATES = ("closed", "half_open", "open")


#: LatencyBreakdown phase attributes surfaced in the report, in the order
#: they occur in an item's life.
_LATENCY_PHASES = (
    "admission_wait_s", "queue_wait_s", "exec_s",
    "backoff_s", "total_s",
)


def latency_rollup(breakdowns: list["LatencyBreakdown"]) -> dict[str, object]:
    """Phase distributions + stage totals of latency breakdowns.

    The one roll-up behind both the run report's latency section and the
    ``stmaker obs analyze`` latency table.  Returns ``{}`` for no
    breakdowns (pre-existing artifacts, synthetic results), so such
    reports are unchanged.
    """
    if not breakdowns:
        return {}
    phases: dict[str, dict[str, object]] = {}
    for attr in _LATENCY_PHASES:
        values = [getattr(lat, attr) * 1000.0 for lat in breakdowns]
        phases[attr[: -len("_s")] + "_ms"] = _distribution(values)
    stage_totals: dict[str, float] = {}
    for lat in breakdowns:
        for stage, seconds in lat.stages_s.items():
            stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds * 1000.0
    return {
        "items": len(breakdowns),
        "attempts_total": sum(lat.attempts for lat in breakdowns),
        "phases_ms": phases,
        "stage_totals_ms": dict(
            sorted(stage_totals.items(), key=lambda kv: -kv[1])
        ),
    }


def _containment_stats(
    metrics_snapshot: dict[str, dict[str, object]],
) -> dict[str, object]:
    """The failure-containment roll-up from the serving counters/gauges.

    Returns ``{}`` when the run recorded no containment activity at all
    (no crashes, no shedding, no breakers) so undisturbed run reports are
    unchanged.
    """
    out: dict[str, object] = {}
    for metric, key in _CONTAINMENT_COUNTERS.items():
        data = metrics_snapshot.get(metric)
        if data and data.get("value"):
            out[key] = int(data["value"])  # type: ignore[arg-type]
    breakers = []
    for name, data in metrics_snapshot.items():
        if not (name.startswith("serving.breaker.") and name.endswith(".state")):
            continue
        value = data.get("value")
        if value is None:
            continue
        state_index = int(value)  # type: ignore[arg-type]
        if not 0 <= state_index < len(_BREAKER_STATES):
            continue
        breakers.append({
            "name": name[len("serving.breaker."):-len(".state")],
            "state": _BREAKER_STATES[state_index],
        })
    if breakers and (out or any(b["state"] != "closed" for b in breakers)):
        out["breakers"] = sorted(breakers, key=lambda b: b["name"])
    if not out:
        return {}
    for key in _CONTAINMENT_COUNTERS.values():
        out.setdefault(key, 0)
    return out


def build_run_report(
    summaries: Iterable["TrajectorySummary"] = (),
    *,
    batches: Iterable["BatchResult"] = (),
    registry: MetricsRegistry | NullMetrics | None = None,
    collector: TraceCollector | None = None,
    environment: dict[str, object] | None = None,
) -> RunReport:
    """Join summaries, batch results, metrics, and traces into one report.

    Every input is optional: reports degrade to whatever was observed
    (e.g. no ``stages`` section when tracing was off).  ``batches`` also
    contribute their summaries implicitly — pass either, not both copies.
    """
    summaries = list(summaries)
    batches = list(batches)
    for batch in batches:
        summaries.extend(batch.summaries)
    retries_counter = 0.0
    metrics_snapshot: dict[str, dict[str, object]] = {}
    if registry is not None:
        metrics_snapshot = registry.snapshot()
        counter = metrics_snapshot.get("resilience.batch.retries")
        if counter:
            retries_counter = float(counter["value"])  # type: ignore[arg-type]
    stages: list[dict[str, object]] = []
    if collector is not None:
        stages = [
            {
                "name": total.name,
                "count": total.count,
                "total_ms": total.total_ms,
                "mean_ms": total.mean_ms,
            }
            for total in collector.stage_totals()
        ]
    resilience = _resilience_stats(summaries, batches)
    # The registry sees retries that succeeded eventually; quarantine
    # entries only record the attempts of items that kept failing.
    resilience["retries"] = max(resilience["retries"], int(retries_counter))
    return RunReport(
        created_unix=time.time(),
        environment=environment or environment_fingerprint(),
        stages=stages,
        resilience=resilience,
        quality=_quality_stats(summaries),
        metrics=metrics_snapshot,
        serving=_serving_stats(metrics_snapshot),
        containment=_containment_stats(metrics_snapshot),
        latency=latency_rollup([
            lat for batch in batches for lat in batch.latencies if lat is not None
        ]),
    )
