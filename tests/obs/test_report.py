"""Tests for span-tree aggregation and trace summaries."""

import pytest

from repro.obs.report import (
    aggregate_spans,
    format_duration,
    format_metrics,
    format_span_tree,
    summarize_trace_file_lenient,
)
from repro.obs.export import write_trace
from repro.obs.tracer import SpanRecord, Tracer


def rec(span_id, parent_id, name, start, duration):
    return SpanRecord(span_id, parent_id, name, start, duration)


class TestAggregate:
    def test_merges_repeated_names_under_same_parent(self):
        spans = [
            rec(1, None, "sweep", 0.0, 1.0),
            rec(2, 1, "window", 0.0, 0.3),
            rec(3, 1, "window", 0.4, 0.2),
        ]
        root = aggregate_spans(spans)
        sweep = root.children["sweep"]
        assert sweep.count == 1
        assert sweep.total == pytest.approx(1.0)
        window = sweep.children["window"]
        assert window.count == 2
        assert window.total == pytest.approx(0.5)

    def test_self_time_subtracts_children(self):
        spans = [
            rec(1, None, "outer", 0.0, 1.0),
            rec(2, 1, "inner", 0.1, 0.6),
        ]
        root = aggregate_spans(spans)
        outer = root.children["outer"]
        assert outer.self_time == pytest.approx(0.4)
        assert outer.children["inner"].self_time == pytest.approx(0.6)

    def test_same_name_under_different_parents_stays_separate(self):
        spans = [
            rec(1, None, "a", 0.0, 1.0),
            rec(2, None, "b", 1.0, 1.0),
            rec(3, 1, "shared", 0.0, 0.2),
            rec(4, 2, "shared", 1.0, 0.5),
        ]
        root = aggregate_spans(spans)
        assert root.children["a"].children["shared"].total == pytest.approx(0.2)
        assert root.children["b"].children["shared"].total == pytest.approx(0.5)

    def test_root_totals_parentless_spans(self):
        spans = [rec(1, None, "a", 0.0, 1.0), rec(2, None, "b", 1.0, 2.0)]
        root = aggregate_spans(spans)
        assert root.total == pytest.approx(3.0)


class TestFormatting:
    def test_format_duration_units(self):
        assert format_duration(5e-6) == "5µs"
        assert format_duration(0.0123).endswith("ms")
        assert format_duration(2.5) == "2.500s"

    def test_tree_renders_header_and_connectors(self):
        spans = [
            rec(1, None, "sweep", 0.0, 1.0),
            rec(2, 1, "fast", 0.0, 0.7),
            rec(3, 1, "slow", 0.7, 0.1),
        ]
        text = format_span_tree(aggregate_spans(spans))
        lines = text.splitlines()
        assert lines[0].split() == ["span", "count", "total", "self"]
        assert "sweep" in lines[1]
        # Children sorted by descending total: fast before slow.
        assert "├─ fast" in lines[2]
        assert "└─ slow" in lines[3]

    def test_empty_tree(self):
        assert "(no spans recorded)" in format_span_tree(aggregate_spans([]))

    def test_format_metrics_sections(self):
        text = format_metrics(
            {
                "counters": {"hits": 3.0},
                "gauges": {"depth": 2.0},
                "timings": {"build": {"count": 2, "total": 1.0, "mean": 0.5, "p95": 0.9}},
            }
        )
        assert "counters:" in text
        assert "hits" in text
        assert "gauges:" in text
        assert "timings:" in text

    def test_format_metrics_empty(self):
        assert format_metrics({}) == "(no metrics recorded)"


class TestSummaries:
    def test_jsonl_and_chrome_files_summarize_alike(self, tmp_path):
        tracer = Tracer().enable()
        with tracer.span("job"):
            with tracer.span("step"):
                pass
        tracer.counter("n")
        tracer.disable()
        jsonl = summarize_trace_file_lenient(write_trace(tracer, tmp_path / "t.jsonl"))
        chrome = summarize_trace_file_lenient(write_trace(tracer, tmp_path / "t.json"))
        text, n_records, skipped = jsonl
        assert "job" in text and "step" in text and "counters:" in text
        assert (n_records, skipped) == (3, 0)
        # Same spans and metrics -> identical summary in either format.
        assert chrome == jsonl
