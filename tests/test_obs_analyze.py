"""Artifact analysis: loaders, well-formedness checks, critical paths, CLI.

Artifacts are built in-memory from the real serialization paths
(``TraceCollector.to_json``, ``PipelineEvent.to_dict``, flight-recorder
style tagged JSONL) so the loaders are tested against exactly what the
runtime writes, not hand-rolled approximations.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.exceptions import ConfigError
from repro.obs.analyze import (
    critical_path,
    group_traces,
    item_latencies,
    load_events,
    load_spans,
    render_analysis,
    trace_problems,
    trace_roots,
)
from repro.obs.events import PipelineEvent
from repro.obs.trace import SpanRecord


def rec(
    span_id: int,
    parent_id: int | None,
    name: str = "work",
    *,
    trace_id: str | None = "t1",
    duration_ms: float = 1.0,
    tags: dict | None = None,
) -> SpanRecord:
    return SpanRecord(
        span_id=span_id, parent_id=parent_id, name=name, start_s=0.0,
        duration_ms=duration_ms, status="ok", error=None, depth=0,
        tags=tags or {}, trace_id=trace_id,
    )


def item_end(
    seq: int,
    *,
    trace_id: str = "t1",
    trajectory_id: str = "trip-0",
    duration_ms: float = 10.0,
    ok: bool = True,
    attempts: int = 1,
    breakdown: dict | None = None,
) -> PipelineEvent:
    return PipelineEvent(
        seq=seq, ts_s=float(seq), kind="item_end",
        trajectory_id=trajectory_id,
        payload={
            "index": seq, "ok": ok, "duration_ms": duration_ms,
            "attempts": attempts, "trace_id": trace_id,
            "breakdown": breakdown or {},
        },
    )


# -- loaders -------------------------------------------------------------------


def test_load_spans_collector_dump(tmp_path):
    collector = obs.TraceCollector()
    obs.enable_tracing(collector)
    try:
        with obs.use_trace(obs.start_trace()):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
    finally:
        obs.disable_tracing()
    path = tmp_path / "trace.json"
    collector.export(path)
    spans = load_spans(path)
    assert [s.name for s in spans] == ["inner", "outer"]
    assert spans[0].trace_id == spans[1].trace_id is not None


def test_load_spans_array_and_jsonl(tmp_path):
    records = [rec(1, None), rec(2, 1)]
    as_array = tmp_path / "spans.json"
    as_array.write_text(json.dumps([r.to_dict() for r in records]))
    as_jsonl = tmp_path / "spans.jsonl"
    as_jsonl.write_text(
        "\n".join(json.dumps(r.to_dict()) for r in records) + "\n"
    )
    for path in (as_array, as_jsonl):
        loaded = load_spans(path)
        assert [(s.span_id, s.parent_id) for s in loaded] == [(1, None), (2, 1)]


def test_loaders_accept_flight_capture(tmp_path):
    # Flight-recorder dumps interleave tagged span/event/header lines in
    # one file; each loader takes only its record kind.
    lines = [
        {"record": "header", "reason": "slo_breach"},
        {"record": "span", **rec(1, None).to_dict()},
        {"record": "event", **item_end(1).to_dict()},
    ]
    path = tmp_path / "capture.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines))
    assert [s.span_id for s in load_spans(path)] == [1]
    events = load_events(path)
    assert [e.kind for e in events] == ["item_end"]


def test_load_events_jsonl_roundtrip(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(
        "\n".join(json.dumps(item_end(i).to_dict()) for i in range(3))
    )
    events = load_events(path)
    assert [e.seq for e in events] == [0, 1, 2]
    assert events[0].trajectory_id == "trip-0"


def test_load_rejects_garbage_jsonl(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('not json at all\n')
    with pytest.raises(ConfigError, match="not JSON"):
        load_spans(path)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    assert load_spans(path) == []
    assert load_events(path) == []


# -- well-formedness -----------------------------------------------------------


def test_well_formed_trace_has_no_problems():
    spans = [rec(1, None, "item"), rec(2, 1, "attempt"), rec(3, 2, "summarize")]
    assert trace_problems(spans) == []
    assert [r.span_id for r in trace_roots(spans)] == [1]


def test_graft_root_counts_as_root():
    # The parent id points outside the trace (the infra shard span): still
    # exactly one root from the trace's point of view.
    spans = [rec(5, 99, "item"), rec(6, 5, "attempt")]
    assert trace_problems(spans) == []
    assert [r.span_id for r in trace_roots(spans)] == [5]


def test_duplicate_span_ids_reported():
    spans = [rec(1, None), rec(1, None)]
    problems = trace_problems(spans)
    assert any("appears 2 times" in p for p in problems)


def test_multiple_roots_reported():
    spans = [rec(1, None, "a"), rec(2, None, "b")]
    problems = trace_problems(spans)
    assert any("exactly one root" in p for p in problems)


def test_parent_cycle_reported():
    spans = [rec(1, 2, "a"), rec(2, 1, "b")]
    problems = trace_problems(spans)
    assert any("parent cycle" in p for p in problems)


def test_infra_spans_are_exempt():
    # Spans without a trace id (shard/batch infrastructure) are not held
    # to per-trace invariants.
    spans = [rec(1, None, trace_id=None), rec(2, None, trace_id=None)]
    assert trace_problems(spans) == []
    assert group_traces(spans) == {}


# -- critical path -------------------------------------------------------------


def test_critical_path_follows_widest_child():
    spans = [
        rec(1, None, "item", duration_ms=30.0),
        rec(2, 1, "attempt", duration_ms=10.0),
        rec(3, 1, "attempt", duration_ms=19.0),
        rec(4, 3, "summarize", duration_ms=18.0),
        rec(5, 4, "extract", duration_ms=12.0),
        rec(6, 4, "partition", duration_ms=2.0),
    ]
    path = critical_path(spans)
    assert [s.name for s in path] == [
        "item", "attempt", "summarize", "extract"
    ]
    assert [s.span_id for s in path] == [1, 3, 4, 5]


def test_critical_path_refuses_malformed():
    assert critical_path([rec(1, None), rec(2, None)]) == []
    assert critical_path([]) == []


# -- rendering -----------------------------------------------------------------


def test_render_analysis_sections():
    spans = [
        rec(1, None, "item", duration_ms=25.0, tags={"trajectory_id": "trip-0"}),
        rec(2, 1, "attempt", duration_ms=24.0),
    ]
    events = [
        item_end(
            1, duration_ms=25.0, attempts=2,
            breakdown={
                "exec_s": 0.02, "queue_wait_s": 0.005, "total_s": 0.025,
                "stages_s": {"summarize": 0.02, "partition": 0.003},
                # Older event files carry this per-batch constant; it
                # loads and is no longer a phase.
                "reassembly_s": 0.001,
            },
        )
    ]
    text = render_analysis(spans, events)
    assert "reassembly" not in text
    assert "1 trace(s)" in text
    assert "all traces well-formed" in text
    assert "item 25.0ms -> attempt 24.0ms" in text
    assert "trajectory trip-0" in text
    assert "latency accounting (1 item(s), 0 failed)" in text
    assert "summarize" in text
    assert "x2 ok" in text


def test_render_analysis_reports_problems():
    text = render_analysis([rec(1, None), rec(2, None)])
    assert "well-formedness problems" in text
    assert "malformed" in text


def test_item_latencies_joins_trajectory():
    rows = item_latencies([item_end(1), item_end(2, trajectory_id="trip-1")])
    assert [row["trajectory_id"] for row in rows] == ["trip-0", "trip-1"]
    assert all("duration_ms" in row for row in rows)


# -- CLI -----------------------------------------------------------------------


@pytest.fixture()
def artifacts(tmp_path):
    trace = tmp_path / "trace.json"
    spans = [
        rec(1, None, "item", duration_ms=25.0),
        rec(2, 1, "attempt", duration_ms=24.0),
    ]
    trace.write_text(json.dumps({"spans": [s.to_dict() for s in spans]}))
    events = tmp_path / "events.jsonl"
    events.write_text(json.dumps(item_end(1).to_dict()) + "\n")
    return trace, events


def test_cli_obs_analyze(artifacts, capsys):
    trace, events = artifacts
    code = main([
        "obs", "analyze", "--trace", str(trace), "--events", str(events),
    ])
    out = capsys.readouterr()
    assert code == 0
    assert "critical paths" in out.out
    assert "latency accounting" in out.out
    # The run-command obs epilogue must not fire for the analyze command
    # (no stray empty collector dump, nothing on stderr).
    assert '"spans"' not in out.out
    assert out.err == ""


def test_cli_obs_analyze_check_flags_malformed(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    spans = [rec(1, None, "a"), rec(2, None, "b")]
    trace.write_text(json.dumps({"spans": [s.to_dict() for s in spans]}))
    assert main(["obs", "analyze", "--trace", str(trace)]) == 0
    assert main(["obs", "analyze", "--trace", str(trace), "--check"]) == 1
    out = capsys.readouterr()
    assert "well-formedness problems" in out.out


def test_cli_obs_analyze_requires_an_artifact(capsys):
    assert main(["obs", "analyze"]) == 1
    assert "nothing to analyze" in capsys.readouterr().err
