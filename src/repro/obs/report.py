"""Span-tree summaries: aggregate a trace into self/total times.

Spans sharing a (parent-path, name) are merged into one
:class:`SpanTreeNode` carrying call count, total wall time and *self*
time (total minus the time spent in child spans), then rendered as an
indented tree — the output of the ``repro trace`` subcommand.

When the trace was recorded with :mod:`repro.obs.profile` enabled, the
spans additionally carry cpu/rss/alloc attributes; :func:`profile_rollup`
folds those into per-stage resource totals and
:func:`format_profile_rollup` renders them (the ``repro --profile``
stderr report and part of ``repro trace`` output for profiled traces).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.obs.export import load_trace_file_lenient
from repro.obs.tracer import SpanRecord


@dataclass
class SpanTreeNode:
    """Aggregated statistics for one span name at one tree position."""

    name: str
    count: int = 0
    total: float = 0.0
    child_time: float = 0.0
    children: dict = field(default_factory=dict)

    @property
    def self_time(self) -> float:
        """Wall time spent in this span outside any child span."""
        return max(self.total - self.child_time, 0.0)


def aggregate_spans(spans: Sequence[SpanRecord]) -> SpanTreeNode:
    """Merge span records into a tree rooted at a synthetic ``<trace>``."""
    root = SpanTreeNode("<trace>")
    by_id = {span.span_id: span for span in spans}
    node_of: dict[int | None, SpanTreeNode] = {}

    def node_for(span: SpanRecord) -> SpanTreeNode:
        cached = node_of.get(span.span_id)
        if cached is not None:
            return cached
        parent_span = by_id.get(span.parent_id) if span.parent_id is not None else None
        parent_node = node_for(parent_span) if parent_span is not None else root
        node = parent_node.children.get(span.name)
        if node is None:
            node = parent_node.children[span.name] = SpanTreeNode(span.name)
        node_of[span.span_id] = node
        return node

    for span in sorted(spans, key=lambda s: s.start):
        node = node_for(span)
        node.count += 1
        node.total += span.duration
        if span.parent_id in by_id:
            node_of[span.parent_id].child_time += span.duration
        else:
            root.total += span.duration
            root.count = max(root.count, 1)
    return root


def format_duration(seconds: float) -> str:
    """Human duration: µs under 1 ms, ms under 1 s, seconds above."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def format_span_tree(root: SpanTreeNode) -> str:
    """Render an aggregated tree with count, total and self columns."""
    lines = [f"{'span':<52s} {'count':>6s} {'total':>10s} {'self':>10s}"]

    def visit(node: SpanTreeNode, prefix: str, is_last: bool, depth: int) -> None:
        if depth == 0:
            label = node.name
            child_prefix = ""
        else:
            connector = "└─ " if is_last else "├─ "
            label = prefix + connector + node.name
            child_prefix = prefix + ("   " if is_last else "│  ")
        lines.append(
            f"{label:<52s} {node.count:>6d} "
            f"{format_duration(node.total):>10s} {format_duration(node.self_time):>10s}"
        )
        ordered = sorted(node.children.values(), key=lambda n: -n.total)
        for i, child in enumerate(ordered):
            visit(child, child_prefix, i == len(ordered) - 1, depth + 1)

    top_level = sorted(root.children.values(), key=lambda n: -n.total)
    for i, node in enumerate(top_level):
        visit(node, "", i == len(top_level) - 1, 0)
    if len(lines) == 1:
        lines.append("(no spans recorded)")
    return "\n".join(lines)


def format_metrics(metrics: dict) -> str:
    """Render a metrics snapshot (counters, gauges, timing histograms)."""
    lines: list[str] = []
    if metrics.get("counters"):
        lines.append("counters:")
        for name, value in sorted(metrics["counters"].items()):
            lines.append(f"  {name:<48s} {value:>12g}")
    if metrics.get("gauges"):
        lines.append("gauges:")
        for name, value in sorted(metrics["gauges"].items()):
            lines.append(f"  {name:<48s} {value:>12g}")
    if metrics.get("timings"):
        lines.append("timings:")
        for name, stats in sorted(metrics["timings"].items()):
            lines.append(
                f"  {name:<48s} count={stats.get('count', 0):<6g} "
                f"total={format_duration(stats.get('total', 0.0))} "
                f"mean={format_duration(stats.get('mean', 0.0))} "
                f"p95={format_duration(stats.get('p95', 0.0))}"
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"


def profile_rollup(spans: Sequence[SpanRecord]) -> list[dict]:
    """Per-stage resource totals over profiled spans (cpu-descending).

    Only spans that carry profiler attributes contribute (see
    :mod:`repro.obs.profile`); each row aggregates every span sharing a
    name, across processes: call count, wall/cpu seconds summed, peak
    ``rss_kb`` across calls, allocation deltas summed when tracemalloc
    sampling was on.
    """
    stages: dict[str, dict] = {}
    for span in spans:
        if "cpu" not in span.attrs:
            continue
        row = stages.get(span.name)
        if row is None:
            row = stages[span.name] = {
                "name": span.name,
                "calls": 0,
                "wall": 0.0,
                "cpu": 0.0,
                "rss_kb": 0.0,
                "alloc_kb": None,
            }
        row["calls"] += 1
        row["wall"] += span.duration
        row["cpu"] += float(span.attrs.get("cpu", 0.0))
        row["rss_kb"] = max(row["rss_kb"], float(span.attrs.get("rss_kb", 0.0)))
        alloc = span.attrs.get("alloc_kb")
        if alloc is not None:
            row["alloc_kb"] = (row["alloc_kb"] or 0.0) + float(alloc)
    return sorted(stages.values(), key=lambda r: -r["cpu"])


def format_profile_rollup(rollup: list[dict]) -> str:
    """Render :func:`profile_rollup` rows as an aligned table."""
    if not rollup:
        return "(no profiled spans — record with profiling enabled)"
    lines = [
        f"{'stage':<44s} {'calls':>6s} {'wall':>10s} {'cpu':>10s} "
        f"{'rss':>10s} {'alloc':>10s}"
    ]
    for row in rollup:
        alloc = (
            f"{row['alloc_kb']:+.0f}kB" if row["alloc_kb"] is not None else "-"
        )
        lines.append(
            f"{row['name']:<44s} {row['calls']:>6d} "
            f"{format_duration(row['wall']):>10s} {format_duration(row['cpu']):>10s} "
            f"{row['rss_kb'] / 1024.0:>8.1f}MB {alloc:>10s}"
        )
    return "\n".join(lines)


def _compose_summary(spans: Sequence[SpanRecord], metrics: dict) -> str:
    parts = [format_span_tree(aggregate_spans(spans))]
    rollup = profile_rollup(spans)
    if rollup:
        parts.append("profile:\n" + format_profile_rollup(rollup))
    parts.append(format_metrics(metrics))
    return "\n\n".join(parts)


def summarize_trace_file_lenient(path: str | Path) -> tuple[str, int, int]:
    """Summary tolerating corrupt records (for traces from interrupted runs).

    Returns ``(summary_text, n_records, n_skipped)`` where ``n_records``
    counts the span and metric records that did load.  Used by the
    ``repro trace`` subcommand: it warns about skipped records and fails
    only when nothing at all was readable.
    """
    spans, metrics, skipped = load_trace_file_lenient(path)
    n_records = (
        len(spans)
        + len(metrics["counters"])
        + len(metrics["gauges"])
        + len(metrics["timings"])
    )
    return _compose_summary(spans, metrics), n_records, skipped
