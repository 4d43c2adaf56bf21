"""Offline analysis of span/event artifacts: traces, critical paths, latency.

The runtime half of the tracing stack produces artifacts — a collector
JSON dump (``--trace-out``), an event JSONL stream (``--events-out``),
flight-recorder captures — and this module is the half that reads them
back.  ``stmaker obs analyze`` drives it from the command line:

* **traces** are reconstructed by grouping spans on ``trace_id`` —
  including spans grafted home from worker processes, which is the point
  of request-scoped tracing: one item, one tree, regardless of executor;
* each trace's **critical path** is the walk from its root span down the
  longest-duration child at every level — where the item's wall clock
  actually went;
* **well-formedness** is checked, not assumed (:func:`trace_problems`):
  duplicate span ids, multiple roots, unresolvable parents, and parent
  cycles are reported, because a malformed tree silently renders as a
  plausible-looking wrong one;
* the ``item_end`` events carry each item's
  :class:`~repro.resilience.LatencyBreakdown`, rolled up into a
  phase-by-phase latency table and a slowest-items listing.

Everything works on plain dicts/records, no live obs state required —
analysis of an artifact from another process (or machine) is the normal
case, not the exception.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from repro.exceptions import ConfigError
from repro.obs.events import PipelineEvent
from repro.obs.report import latency_rollup
from repro.obs.trace import SpanRecord


def _parse_payload(text: str, path: str) -> list[dict[str, object]]:
    """Span/event dicts from JSON (object or array) or JSONL *text*."""
    stripped = text.strip()
    if not stripped:
        return []
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError:
            data = None
        if isinstance(data, dict):
            # A collector dump: {"spans": [...], "dropped": N}.  Any other
            # lone object is a one-line JSONL stream — a single record.
            spans = data.get("spans")
            if isinstance(spans, list):
                return [item for item in spans if isinstance(item, dict)]
            return [data]
        if isinstance(data, list):
            return [item for item in data if isinstance(item, dict)]
    out: list[dict[str, object]] = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            item = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{lineno}: not JSON ({exc})") from exc
        if isinstance(item, dict):
            out.append(item)
    return out


def load_spans(path) -> list[SpanRecord]:
    """Span records from a collector JSON dump, span JSONL, or flight dump.

    Flight-recorder capture lines are tagged ``{"record": "span"|"event"|
    "header"}``; only the span lines are taken.  Untagged dicts count as
    spans when they carry a ``span_id``.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    spans: list[SpanRecord] = []
    for item in _parse_payload(text, str(path)):
        tag = item.get("record")
        if tag is not None and tag != "span":
            continue
        if "span_id" not in item:
            continue
        spans.append(SpanRecord.from_dict(item))
    return spans


def load_events(path) -> list[PipelineEvent]:
    """Events from an event JSONL stream, JSON array, or flight dump."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    events: list[PipelineEvent] = []
    for item in _parse_payload(text, str(path)):
        tag = item.get("record")
        if tag is not None and tag != "event":
            continue
        if "kind" not in item or "seq" not in item:
            continue
        events.append(PipelineEvent.from_dict(item))
    return events


def group_traces(
    spans: Iterable[SpanRecord],
) -> dict[str, list[SpanRecord]]:
    """Spans per ``trace_id`` (spans without one — infra — are skipped)."""
    traces: dict[str, list[SpanRecord]] = {}
    for record in spans:
        if record.trace_id is not None:
            traces.setdefault(record.trace_id, []).append(record)
    return traces


def trace_roots(spans: Sequence[SpanRecord]) -> list[SpanRecord]:
    """The root span(s) of one trace's span list.

    A span roots its trace when its parent is ``None`` or lies *outside*
    the trace — the graft point onto the batch's infrastructure spans
    (the worker ``shard`` span, the batch span).  A well-formed trace has
    exactly one.
    """
    ids = {record.span_id for record in spans}
    return [
        record for record in spans
        if record.parent_id is None or record.parent_id not in ids
    ]


def trace_problems(spans: Iterable[SpanRecord]) -> list[str]:
    """Well-formedness violations across *spans*, grouped per trace.

    Checks, per ``trace_id``: span ids are unique; there is exactly one
    root (parent ``None`` or outside the trace); and no in-trace parent
    chain cycles.  Returns human-readable problem strings — empty means
    every trace is a well-formed tree.  Shared by ``obs analyze`` and the
    property test-suite, so the tested invariant and the reported one
    cannot drift apart.
    """
    problems: list[str] = []
    for trace_id, records in sorted(group_traces(spans).items()):
        ids: dict[int, int] = {}
        for record in records:
            ids[record.span_id] = ids.get(record.span_id, 0) + 1
        for span_id, count in sorted(ids.items()):
            if count > 1:
                problems.append(
                    f"trace {trace_id}: span id {span_id} appears {count} times"
                )
        roots = trace_roots(records)
        if len(roots) != 1:
            names = ", ".join(
                f"{r.name}#{r.span_id}" for r in sorted(roots, key=lambda r: r.span_id)
            ) or "none"
            problems.append(
                f"trace {trace_id}: expected exactly one root span, "
                f"found {len(roots)} ({names})"
            )
        by_id = {record.span_id: record for record in records}
        for record in records:
            seen = {record.span_id}
            cursor = record
            while cursor.parent_id is not None and cursor.parent_id in by_id:
                if cursor.parent_id in seen:
                    problems.append(
                        f"trace {trace_id}: parent cycle through span "
                        f"{cursor.parent_id}"
                    )
                    break
                seen.add(cursor.parent_id)
                cursor = by_id[cursor.parent_id]
    return problems


def critical_path(spans: Sequence[SpanRecord]) -> list[SpanRecord]:
    """Root-to-leaf walk of one trace along the longest-duration child.

    The classic critical-path heuristic for a latency tree: starting at
    the trace root, descend into whichever child consumed the most wall
    clock until a leaf.  Returns ``[]`` for traces without exactly one
    root (report those via :func:`trace_problems` instead of guessing).
    """
    roots = trace_roots(spans)
    if len(roots) != 1:
        return []
    children: dict[int, list[SpanRecord]] = {}
    ids = {record.span_id for record in spans}
    for record in spans:
        if record.parent_id is not None and record.parent_id in ids:
            children.setdefault(record.parent_id, []).append(record)
    path = [roots[0]]
    visited = {roots[0].span_id}
    while True:
        branches = [
            child for child in children.get(path[-1].span_id, ())
            if child.span_id not in visited
        ]
        if not branches:
            return path
        widest = max(branches, key=lambda record: record.duration_ms)
        visited.add(widest.span_id)
        path.append(widest)


def item_latencies(
    events: Iterable[PipelineEvent],
) -> list[dict[str, object]]:
    """The latency-breakdown payloads of every ``item_end`` event.

    Each row is the event's payload joined with its ``trajectory_id`` —
    one row per settled item, relayed worker events included.
    """
    rows: list[dict[str, object]] = []
    for event in events:
        if event.kind != "item_end":
            continue
        row: dict[str, object] = {"trajectory_id": event.trajectory_id}
        row.update(event.payload)
        rows.append(row)
    return rows


def _fmt_ms(value: object) -> str:
    try:
        return f"{float(value) * 1000.0:.1f}"  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "-"


def render_analysis(
    spans: Sequence[SpanRecord],
    events: Sequence[PipelineEvent] = (),
    *,
    top: int = 10,
) -> str:
    """The ``obs analyze`` text report over loaded artifacts.

    Sections: artifact totals, well-formedness problems (when any), the
    critical path of the *top* slowest traces, the phase-by-phase latency
    roll-up, and the slowest individual items — whatever the supplied
    artifacts can support; missing inputs skip their sections.
    """
    lines: list[str] = []
    traces = group_traces(spans)
    lines.append(
        f"artifacts: {len(spans)} span(s) in {len(traces)} trace(s), "
        f"{len(events)} event(s)"
    )
    problems = trace_problems(spans)
    if problems:
        lines += ["", f"well-formedness problems ({len(problems)}):"]
        lines += [f"  ! {problem}" for problem in problems]
    elif traces:
        lines.append("all traces well-formed (single root, acyclic)")

    if traces:
        def trace_cost(records: list[SpanRecord]) -> float:
            roots = trace_roots(records)
            return roots[0].duration_ms if len(roots) == 1 else max(
                (r.duration_ms for r in records), default=0.0
            )

        ranked = sorted(
            traces.items(), key=lambda kv: -trace_cost(kv[1])
        )
        shown = ranked[: max(0, top)]
        lines += ["", f"critical paths (top {len(shown)} by root duration):"]
        for trace_id, records in shown:
            path = critical_path(records)
            if not path:
                lines.append(f"  {trace_id}: malformed (see problems above)")
                continue
            root = path[0]
            trajectory = root.tags.get("trajectory_id")
            suffix = f" · trajectory {trajectory}" if trajectory else ""
            lines.append(
                f"  {trace_id}: {root.duration_ms:.1f} ms over "
                f"{len(records)} span(s){suffix}"
            )
            lines.append(
                "    " + " -> ".join(
                    f"{record.name} {record.duration_ms:.1f}ms"
                    for record in path
                )
            )
        if len(ranked) > len(shown):
            lines.append(f"  ... {len(ranked) - len(shown)} more trace(s)")

    rows = item_latencies(events)
    if rows:
        # Imported here: repro.resilience imports repro.obs at load time.
        from repro.resilience import LatencyBreakdown

        breakdowns = [
            LatencyBreakdown.from_dict(row["breakdown"]) for row in rows
            if isinstance(row.get("breakdown"), dict)
        ]
        lines += [
            "",
            f"latency accounting ({len(rows)} item(s), "
            f"{sum(1 for row in rows if not row.get('ok'))} failed):",
        ]
        if breakdowns:
            rollup = latency_rollup(breakdowns)
            header = f"  {'phase':<18}{'mean ms':>10}{'p95 ms':>10}{'max ms':>10}"
            lines.append(header)
            for phase, dist in rollup["phases_ms"].items():
                if dist["min"] == dist["max"] == 0.0:
                    continue  # a phase this run never spent time in
                lines.append(
                    f"  {phase[: -len('_ms')]:<18}"
                    f"{dist['mean']:>10.1f}"
                    f"{dist['p95']:>10.1f}"
                    f"{dist['max']:>10.1f}"
                )
            if rollup["stage_totals_ms"]:
                lines.append("  exec stages (total ms):")
                for stage, total in rollup["stage_totals_ms"].items():
                    lines.append(f"    {stage:<20}{total:>10.1f}")
        slowest = sorted(
            rows,
            key=lambda row: -float(row.get("duration_ms") or 0.0),  # type: ignore[arg-type]
        )[: max(0, top)]
        lines.append(f"  slowest item(s) (top {len(slowest)}):")
        for row in slowest:
            breakdown = row.get("breakdown")
            detail = ""
            if isinstance(breakdown, dict):
                detail = (
                    f" (exec {_fmt_ms(breakdown.get('exec_s'))}"
                    f" queue {_fmt_ms(breakdown.get('queue_wait_s'))}"
                    f" backoff {_fmt_ms(breakdown.get('backoff_s'))} ms)"
                )
            status = "ok" if row.get("ok") else "FAILED"
            lines.append(
                f"    {row.get('trace_id') or '-'} "
                f"{row.get('trajectory_id') or '?'}: "
                f"{float(row.get('duration_ms') or 0.0):.1f} ms "  # type: ignore[arg-type]
                f"x{row.get('attempts', 1)} {status}{detail}"
            )
    return "\n".join(lines)
