"""Observability: tracing, metrics and trace export for the pipeline.

The measurement machinery is itself part of the experiment — a sweep that
silently falls off its fast path, or a cache that never hits, changes how
far the system scales without changing any result.  This package makes
that machinery visible:

* a process-wide :class:`~repro.obs.tracer.Tracer` with nested spans
  (context-manager and decorator APIs) and counter/gauge/timing metrics,
  plus cross-process trace propagation/adoption for the worker pool
  (:meth:`~repro.obs.tracer.Tracer.context` /
  :meth:`~repro.obs.tracer.Tracer.adopt`),
* opt-in per-span resource profiling — cpu/RSS/allocations
  (:mod:`repro.obs.profile`),
* JSONL and Chrome ``chrome://tracing`` exporters
  (:mod:`repro.obs.export`) with schema validation and per-process
  pid/tid lanes,
* span-tree summaries with self/total times and per-stage profile
  rollups (:mod:`repro.obs.report`),
* a live terminal dashboard over a serving monitor
  (:mod:`repro.obs.top`, the ``repro top`` subcommand),
* bounded in-process metric history with downsampling rollups
  (:mod:`repro.obs.timeseries`, attached to a registry via
  :meth:`~repro.obs.metrics.MetricsRegistry.set_history`),
* declarative SLOs with Google-SRE multi-window burn rates
  (:mod:`repro.obs.slo`), and
* stateful pending/firing/resolved alerting with pluggable sinks and an
  EWMA z-score anomaly detector (:mod:`repro.obs.alerts`).

Tracing is **off by default** and the disabled path is a shared no-op
(one ``enabled`` check per call site; see
``benchmarks/bench_perf_obs.py`` for the overhead budget), so the hot
layers stay instrumented permanently::

    from repro import obs

    with obs.span("engine.sweep", chain="btc"):
        ...
    obs.counter("engine.sliding.fast_path")

Enable around a workload with :func:`enable_tracing` or, end to end, via
the CLI's global ``--trace FILE`` flag.
"""

from repro.obs.alerts import (
    AlertEvent,
    AlertManager,
    AlertRule,
    AlertSink,
    AnomalyDetector,
    JSONLSink,
    LogSink,
    WebhookSink,
    anomaly_rule,
    format_alert_event,
    rules_from_thresholds,
)
from repro.obs.export import (
    load_trace_file,
    load_trace_file_lenient,
    validate_trace_file,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.obs.logging import configure_logging, get_logger
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, TimingHistogram
from repro.obs.profile import (
    disable_profiling,
    enable_profiling,
    profiled,
    profiling_enabled,
)
from repro.obs.prometheus import build_info, render_prometheus, sanitize_metric_name
from repro.obs.report import (
    aggregate_spans,
    format_profile_rollup,
    format_span_tree,
    profile_rollup,
    summarize_trace_file_lenient,
)
from repro.obs.slo import SLO, BurnWindow, SLOEngine, load_slo_file, parse_slo_config
from repro.obs.timeseries import QuantileSketch, TimeSeriesStore, attach_history
from repro.obs.tracer import (
    SpanRecord,
    Tracer,
    counter,
    current_span,
    disable_tracing,
    enable_tracing,
    gauge,
    get_tracer,
    span,
    timing,
    traced,
    tracing_enabled,
)

__all__ = [
    "AlertEvent",
    "AlertManager",
    "AlertRule",
    "AlertSink",
    "AnomalyDetector",
    "BurnWindow",
    "Counter",
    "Gauge",
    "JSONLSink",
    "LogSink",
    "MetricsRegistry",
    "QuantileSketch",
    "SLO",
    "SLOEngine",
    "SpanRecord",
    "TimeSeriesStore",
    "TimingHistogram",
    "Tracer",
    "WebhookSink",
    "aggregate_spans",
    "anomaly_rule",
    "attach_history",
    "build_info",
    "configure_logging",
    "counter",
    "current_span",
    "disable_profiling",
    "disable_tracing",
    "enable_profiling",
    "enable_tracing",
    "format_alert_event",
    "format_profile_rollup",
    "format_span_tree",
    "gauge",
    "get_logger",
    "get_tracer",
    "load_slo_file",
    "load_trace_file",
    "load_trace_file_lenient",
    "parse_slo_config",
    "profile_rollup",
    "profiled",
    "profiling_enabled",
    "render_prometheus",
    "rules_from_thresholds",
    "sanitize_metric_name",
    "span",
    "summarize_trace_file_lenient",
    "timing",
    "traced",
    "tracing_enabled",
    "validate_trace_file",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]
