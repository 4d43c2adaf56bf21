"""Observability substrate: tracing spans, metrics registry, profiling.

Everything here is zero-dependency and **off by default**: a span
always times its block, but with neither tracing nor metrics enabled
nothing is recorded, and ``metrics()`` returns a shared null registry.
Enable explicitly (or via the CLI's ``--trace``/``--metrics-out``
flags)::

    from repro import obs

    collector = obs.enable_tracing()
    registry = obs.enable_metrics()
    scenario.stmaker.summarize(trip.raw)
    print(collector.to_json())        # nested spans, wall time, outcome
    print(registry.render_text())     # counters / gauges / histograms
    obs.disable_tracing(); obs.disable_metrics()

See ``docs/OBSERVABILITY.md`` for the span/metric naming conventions and
the catalogue the pipeline emits.
"""

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
from repro.obs.events import (
    EVENT_KINDS,
    EventBus,
    EventLog,
    JsonlEventSink,
    PipelineEvent,
    disable_events,
    emit_event,
    enable_events,
    events,
    events_enabled,
)
from repro.obs.export import (
    chrome_trace_events,
    escape_help,
    parse_prometheus,
    prometheus_name,
    render_prometheus,
    to_chrome_trace,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.flight import DEFAULT_TRIGGER_KINDS, FlightRecorder
from repro.obs.logconfig import configure_logging
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    NullMetrics,
    disable_metrics,
    enable_metrics,
    metrics,
    metrics_enabled,
)
from repro.obs.profile import ProfileReport, profiled
from repro.obs.report import RunReport, build_run_report, environment_fingerprint
from repro.obs.server import (
    PROMETHEUS_CONTENT_TYPE,
    OpsServer,
    active_ops_server,
    mark_ready,
    register_status_section,
    start_ops_server,
    status_sections,
    stop_ops_server,
    unregister_status_section,
)
from repro.obs.slo import SLO_KINDS, SLObjective, SLOEngine, parse_slo
from repro.obs.trace import (
    Span,
    SpanRecord,
    StageTotal,
    TraceCollector,
    TraceContext,
    clear_span_context,
    current_trace,
    disable_tracing,
    enable_tracing,
    get_collector,
    new_trace_id,
    span,
    span_listener,
    start_trace,
    tracing_enabled,
    use_trace,
    wall_clock_of,
)

__all__ = [
    # trace
    "span",
    "span_listener",
    "Span",
    "SpanRecord",
    "StageTotal",
    "TraceCollector",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "get_collector",
    # trace context (request identity)
    "TraceContext",
    "new_trace_id",
    "start_trace",
    "current_trace",
    "use_trace",
    "wall_clock_of",
    "clear_span_context",
    # metrics
    "metrics",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "NULL_METRICS",
    # exporters
    "render_prometheus",
    "parse_prometheus",
    "write_prometheus",
    "prometheus_name",
    "escape_help",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    # flight recorder
    "FlightRecorder",
    "DEFAULT_TRIGGER_KINDS",
    # ops server
    "OpsServer",
    "PROMETHEUS_CONTENT_TYPE",
    "start_ops_server",
    "stop_ops_server",
    "active_ops_server",
    "mark_ready",
    "register_status_section",
    "unregister_status_section",
    "status_sections",
    # events
    "EVENT_KINDS",
    "PipelineEvent",
    "EventBus",
    "EventLog",
    "JsonlEventSink",
    "events",
    "enable_events",
    "disable_events",
    "events_enabled",
    "emit_event",
    # artifact analysis
    "load_spans",
    "load_events",
    "group_traces",
    "trace_roots",
    "trace_problems",
    "critical_path",
    "item_latencies",
    "render_analysis",
    # service-level objectives
    "SLO_KINDS",
    "SLObjective",
    "SLOEngine",
    "parse_slo",
    # run reports
    "RunReport",
    "build_run_report",
    "environment_fingerprint",
    # profiling / logging
    "profiled",
    "ProfileReport",
    "configure_logging",
]
