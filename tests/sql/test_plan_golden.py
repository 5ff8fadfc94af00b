"""Golden plan matrix: EXPLAIN text, EXPLAIN ANALYZE trees and operator counters.

A small hand-built catalog (no RNG) with ANALYZE statistics, a sorted
index on ``blocks.height`` and a hash index on ``credits.producer`` runs a
fixed matrix of queries.  For each one the test pins

* the ``explain()`` text,
* the EXPLAIN ANALYZE tree with wall times dropped (``op``, ``detail``,
  ``rows_in``, ``rows_out``, ``rows_est``, ``bytes_scanned``,
  ``spilled_rows`` and the children), and
* the ``sql.op.*`` counter totals one traced ``execute()`` records.

The expected values live in ``plan_golden.json`` next to this file.  After
a deliberate plan change, regenerate it with::

    PYTHONPATH=src python tests/sql/test_plan_golden.py

and review the diff: it shows every plan line the change moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.sql import PlannerOptions, PlanNode, QueryEngine, format_plan
from repro.sql import executor as executor_module
from repro.sql import planner as planner_module
from repro.table import Table

GOLDEN_PATH = Path(__file__).with_name("plan_golden.json")

#: Row threshold for the partitioned group-by, patched down so the small
#: ``credits`` table takes the parallel path on a ``workers=2`` engine.
PARALLEL_MIN_ROWS = 100

PRODUCERS = ("a", "b", "a", "c", "a", "b", "d", "a")

#: name -> (engine kind, SQL).
CASES: dict[str, tuple[str, str]] = {
    "index_eq": ("default", "SELECT height, producer FROM blocks WHERE height = 42"),
    "index_range": (
        "default",
        "SELECT height, size FROM blocks WHERE height BETWEEN 10 AND 19",
    ),
    "string_filter": ("default", "SELECT height FROM blocks WHERE producer = 'b'"),
    "projection_pushdown": ("default", "SELECT size FROM blocks"),
    "hash_join": (
        "hash",
        "SELECT b.height, p.region FROM blocks b JOIN pools p "
        "ON b.producer = p.producer WHERE b.height < 30",
    ),
    "sort_merge_join": (
        "sort_merge",
        "SELECT b.height, p.region FROM blocks b JOIN pools p "
        "ON b.producer = p.producer WHERE b.height < 30",
    ),
    "index_join": (
        "index",
        "SELECT p.region, c.weight FROM pools p JOIN credits c "
        "ON p.producer = c.producer",
    ),
    "left_join_residual": (
        "default",
        "SELECT b.height, p.region FROM blocks b LEFT JOIN pools p "
        "ON b.producer = p.producer WHERE p.region IS NULL OR b.height < 3",
    ),
    "subquery_aggregate": (
        "default",
        "SELECT t.producer, t.n FROM (SELECT producer, COUNT(*) AS n "
        "FROM credits GROUP BY producer) t WHERE t.n > 40 ORDER BY t.n DESC",
    ),
    "group_having_order_limit": (
        "default",
        "SELECT producer, COUNT(*) AS n FROM credits GROUP BY producer "
        "HAVING COUNT(*) > 10 ORDER BY SUM(weight) DESC LIMIT 2 OFFSET 1",
    ),
    "distinct": ("default", "SELECT DISTINCT producer FROM blocks"),
    "distinct_empty": (
        "default",
        "SELECT DISTINCT producer FROM blocks WHERE height > 100000",
    ),
    "union_all": (
        "default",
        "SELECT producer FROM blocks WHERE height < 3 "
        "UNION ALL SELECT producer FROM pools",
    ),
    "count_distinct_median": (
        "default",
        "SELECT COUNT(DISTINCT producer) AS k, MEDIAN(weight) AS m FROM credits",
    ),
    "parallel_group_by": (
        "parallel",
        "SELECT producer, COUNT(*) AS n, SUM(weight) AS w FROM credits "
        "GROUP BY producer",
    ),
    "off_index_eq": ("off", "SELECT height, producer FROM blocks WHERE height = 42"),
    "off_left_join_residual": (
        "off",
        "SELECT b.height, p.region FROM blocks b LEFT JOIN pools p "
        "ON b.producer = p.producer WHERE p.region IS NULL OR b.height < 3",
    ),
    "off_subquery_aggregate": (
        "off",
        "SELECT t.producer, t.n FROM (SELECT producer, COUNT(*) AS n "
        "FROM credits GROUP BY producer) t WHERE t.n > 40 ORDER BY t.n DESC",
    ),
}

ENGINE_OPTIONS = {
    "hash": ("index-join", "sort-merge-join"),
    "sort_merge": ("hash-join", "index-join"),
    "index": ("hash-join", "sort-merge-join"),
}


def catalog() -> dict[str, Table]:
    """240 blocks, one credit per block plus a second on every fourth, 4 pools."""
    heights = list(range(240))
    credit_heights = [h for h in heights for _ in range(2 if h % 4 == 0 else 1)]
    second = [i > 0 and credit_heights[i - 1] == h for i, h in enumerate(credit_heights)]
    return {
        "blocks": Table(
            {
                "height": heights,
                "producer": [PRODUCERS[h % len(PRODUCERS)] for h in heights],
                "size": [1000 + (h * 37) % 500 for h in heights],
            }
        ),
        "credits": Table(
            {
                "height": credit_heights,
                "producer": [
                    "e" if extra else PRODUCERS[h % len(PRODUCERS)]
                    for h, extra in zip(credit_heights, second)
                ],
                "weight": [0.5 if h % 4 == 0 else 1.0 for h in credit_heights],
            }
        ),
        "pools": Table(
            {"producer": ["a", "b", "c", "e"], "region": ["eu", "us", "eu", "asia"]}
        ),
    }


def make_engine(kind: str) -> QueryEngine:
    """An engine of one matrix kind over a fresh catalog."""
    if kind == "off":
        return QueryEngine(catalog(), optimizer=False)
    options = PlannerOptions.with_disabled(ENGINE_OPTIONS.get(kind, ()))
    workers = 2 if kind == "parallel" else 1
    engine = QueryEngine(catalog(), workers=workers, options=options)
    engine.analyze()
    engine.create_index("blocks", "height", "sorted")
    engine.create_index("credits", "producer", "hash")
    return engine


def tree_dict(node) -> dict:
    """A plan node and its subtree with the wall times dropped."""
    return {
        "op": node.op,
        "detail": node.detail,
        "rows_in": node.rows_in,
        "rows_out": node.rows_out,
        "rows_est": node.rows_est,
        "bytes_scanned": node.bytes_scanned,
        "spilled_rows": node.spilled_rows,
        "children": [tree_dict(child) for child in node.children],
    }


def op_counters(engine: QueryEngine, sql: str) -> dict[str, float]:
    """``sql.op.*`` counters one traced ``execute()`` of ``sql`` records."""
    tracer = obs.enable_tracing()
    try:
        engine.execute(sql)
    finally:
        obs.disable_tracing()
    counters = tracer.metrics.snapshot()["counters"]
    return {name: value for name, value in counters.items() if name.startswith("sql.op.")}


def observe(name: str) -> dict:
    """Everything the matrix pins for one case."""
    kind, sql = CASES[name]
    engine = make_engine(kind)
    _, root = engine.explain_analyze(sql)
    return {
        "sql": sql,
        "explain": engine.explain(sql),
        "analyze": tree_dict(root),
        "counters": op_counters(engine, sql),
    }


@pytest.fixture(autouse=True)
def low_parallel_threshold(monkeypatch):
    monkeypatch.setattr(executor_module, "_PARALLEL_MIN_ROWS", PARALLEL_MIN_ROWS)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_matrix(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
class TestGoldenPlans:
    def test_explain_text(self, golden, name):
        kind, sql = CASES[name]
        assert make_engine(kind).explain(sql) == golden[name]["explain"]

    def test_explain_analyze_tree(self, golden, name):
        kind, sql = CASES[name]
        _, root = make_engine(kind).explain_analyze(sql)
        assert tree_dict(root) == golden[name]["analyze"]

    def test_op_counters(self, golden, name):
        kind, sql = CASES[name]
        assert op_counters(make_engine(kind), sql) == golden[name]["counters"]

    def test_results_match_unoptimized_engine(self, name):
        kind, sql = CASES[name]
        reference = QueryEngine(catalog(), optimizer=False)
        assert make_engine(kind).execute(sql).to_rows() == reference.execute(sql).to_rows()


#: Nodes that exist only while a query runs: never part of EXPLAIN.
RUNTIME_ONLY = frozenset({"Optimize", "ParallelScan", "PartialAggregate", "FinalizeAggregate"})


def planned(node: PlanNode) -> PlanNode:
    """``node``'s subtree as EXPLAIN would show it: no actuals, no runtime nodes."""
    return PlanNode(
        node.op,
        node.detail,
        rows_est=node.rows_est,
        children=[planned(c) for c in node.children if c.op not in RUNTIME_ONLY],
    )


class TestOneTree:
    """EXPLAIN renders the tree execution runs; each SELECT is planned once."""

    @pytest.mark.parametrize(
        "name", sorted(n for n, (kind, sql) in CASES.items() if kind != "off")
    )
    def test_explain_shows_what_runs(self, name):
        kind, sql = CASES[name]
        engine = make_engine(kind)
        _, root = engine.explain_analyze(sql)
        (ran,) = [c for c in root.children if c.op in ("Execute", "UnionAll")]
        # A UNION ALL runs one tree per member, each under its ``Member`` node.
        trees = ran.children if ran.op == "UnionAll" else [ran]
        parts = engine.explain(sql).split("-- physical plan (estimated rows) --\n")[1:]
        shown = [part.split("\n-- member ")[0] for part in parts]
        assert shown == [format_plan(planned(tree), include_time=False) for tree in trees]

    def test_each_select_is_planned_and_optimized_once(self, monkeypatch):
        calls = {"plan": 0, "optimize": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            wrapped = counting(name, getattr(planner_module, name))
            monkeypatch.setattr(planner_module, name, wrapped)
            monkeypatch.setattr(executor_module, name, wrapped)
        make_engine("default").execute(CASES["subquery_aggregate"][1])
        assert calls == {"plan": 2, "optimize": 2}


if __name__ == "__main__":
    executor_module._PARALLEL_MIN_ROWS = PARALLEL_MIN_ROWS
    data = {name: observe(name) for name in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN_PATH}")
