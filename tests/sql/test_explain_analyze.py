"""Tests for EXPLAIN ANALYZE: per-operator plan trees with timings/rows."""

import pytest

from repro import obs
from repro.sql import QueryEngine, format_plan
from repro.table import Table


@pytest.fixture
def engine():
    blocks = Table(
        {
            "height": list(range(10)),
            "producer": ["a", "b", "a", "c", "a", "b", "a", "c", "b", "a"],
        }
    )
    extra = Table({"producer": ["a", "b", "c"], "region": ["x", "y", "x"]})
    return QueryEngine({"blocks": blocks, "pools": extra})


def walk(node):
    yield node
    for child in node.children:
        yield from walk(child)


def ops(node):
    return [n.op for n in walk(node)]


class TestPlanTree:
    def test_simple_select_stages(self, engine):
        result, root = engine.explain_analyze(
            "SELECT producer FROM blocks WHERE height > 4"
        )
        assert result.num_rows == 5
        assert root.op == "Query"
        assert root.rows_out == 5
        names = ops(root)
        assert names[:3] == ["Query", "Parse", "Plan"]
        assert "Execute" in names
        assert "Scan" in names
        assert "Filter" in names

    def test_rows_in_out_on_filter(self, engine):
        _, root = engine.explain_analyze("SELECT * FROM blocks WHERE height > 4")
        execute = next(c for c in root.children if c.op == "Execute")
        filter_node = next(c for c in execute.children if c.op == "Filter")
        assert filter_node.rows_in == 10
        assert filter_node.rows_out == 5

    def test_aggregate_sort_limit_stages(self, engine):
        _, root = engine.explain_analyze(
            "SELECT producer, COUNT(*) AS n FROM blocks "
            "GROUP BY producer ORDER BY n DESC LIMIT 2"
        )
        names = ops(root)
        for op in ("Aggregate", "Sort", "Limit"):
            assert op in names, names
        execute = next(c for c in root.children if c.op == "Execute")
        aggregate = next(c for c in execute.children if c.op == "Aggregate")
        assert aggregate.rows_in == 10
        assert aggregate.rows_out == 3
        limit = next(c for c in execute.children if c.op == "Limit")
        assert limit.rows_out == 2

    def test_join_nests_scans(self, engine):
        _, root = engine.explain_analyze(
            "SELECT b.producer, p.region FROM blocks b "
            "JOIN pools p ON b.producer = p.producer"
        )
        execute = next(c for c in root.children if c.op == "Execute")
        join = next(c for c in execute.children if c.op == "Join")
        assert join.rows_out == 10
        assert [c.op for c in join.children].count("Scan") == 2

    def test_union_members(self, engine):
        _, root = engine.explain_analyze(
            "SELECT producer FROM blocks UNION ALL SELECT producer FROM pools"
        )
        union = next(c for c in root.children if c.op == "UnionAll")
        members = [c for c in union.children if c.op == "Member"]
        assert len(members) == 2

    def test_timings_are_recorded(self, engine):
        _, root = engine.explain_analyze("SELECT * FROM blocks")
        assert root.seconds > 0
        assert all(child.seconds >= 0 for child in root.children)


class TestFormatPlan:
    def test_rendering(self, engine):
        _, root = engine.explain_analyze(
            "SELECT producer, COUNT(*) AS n FROM blocks GROUP BY producer LIMIT 2"
        )
        text = format_plan(root)
        lines = text.splitlines()
        assert lines[0].startswith("Query")
        assert "time=" in lines[0]
        assert any("Scan blocks" in line for line in lines)
        assert any("in=10 out=3" in line for line in lines)
        assert any("└─" in line for line in lines)


class TestStageOpRouting:
    """Where each executed plan node reports: its tree, the tracer, or nowhere."""

    SQL = (
        "SELECT b.producer, COUNT(*) AS n FROM blocks b "
        "JOIN pools p ON b.producer = p.producer WHERE b.height > 1 "
        "GROUP BY b.producer ORDER BY n DESC LIMIT 2"
    )

    def test_traced_execute_emits_one_span_per_executed_node(self, engine):
        _, root = engine.explain_analyze(self.SQL)
        execute = next(c for c in root.children if c.op == "Execute")
        nodes = list(walk(execute))[1:]  # the Execute root is not a span here
        tracer = obs.enable_tracing()
        try:
            engine.execute(self.SQL)
        finally:
            obs.disable_tracing()
        (query,) = [s for s in tracer.spans if s.name == "sql.query"]
        spans = sorted(
            (s for s in tracer.spans if s.name != "sql.query"), key=lambda s: s.start
        )
        assert [s.name for s in spans] == [f"sql.{node.op}" for node in nodes]
        for span, node in zip(spans, nodes):
            for name in ("rows_in", "rows_out", "rows_est", "bytes_scanned"):
                assert span.attrs.get(name) == getattr(node, name), (span.name, name)
            assert span.start >= query.start and span.end <= query.end
        scan = next(s for s in spans if s.name == "sql.Scan")
        assert scan.attrs["rows_out"] == 10 and scan.attrs["bytes_scanned"] > 0

    def test_untraced_execute_records_no_span_or_counter(self, engine):
        tracer = obs.enable_tracing()  # clears earlier data
        obs.disable_tracing()
        engine.execute(self.SQL)
        assert tracer.spans == []
        assert tracer.metrics.snapshot()["counters"] == {}

    def test_traced_explain_analyze_spans_follow_its_tree(self, engine):
        tracer = obs.enable_tracing()
        try:
            _, root = engine.explain_analyze(self.SQL)
        finally:
            obs.disable_tracing()
        spans = sorted(tracer.spans, key=lambda s: s.start)
        assert [s.name for s in spans] == [f"sql.{node.op}" for node in walk(root)][1:]
        assert spans[-1].attrs["rows_out"] == 2  # the Limit
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["sql.op.execute.rows_out"] == 2.0
        assert counters["sql.op.limit.rows_out"] == 2.0

    def test_execute_emits_sql_spans_under_tracing(self, engine):
        tracer = obs.enable_tracing()
        try:
            engine.execute("SELECT * FROM blocks WHERE height > 4")
            names = {s.name for s in tracer.spans}
            assert "sql.query" in names
            assert "sql.Scan" in names
            assert "sql.Filter" in names
            assert tracer.metrics.snapshot()["counters"]["sql.queries"] == 1.0
        finally:
            obs.disable_tracing()
