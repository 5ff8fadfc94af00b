"""Byte-identity of the cost-based optimizer against the unoptimized executor.

Physical planning is advisory: for any query and any combination of
statistics, indexes and strategy toggles, results must equal the
``optimizer=False`` engine's — same rows, same order, same dtypes.  The
matrix below runs every query under every engine variant and compares
the full row list plus the per-column numpy dtypes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import PlannerOptions, QueryEngine
from repro.table import Table

QUERIES = [
    "SELECT * FROM blocks WHERE height > 12",
    "SELECT producer FROM blocks WHERE producer = 'p1'",
    "SELECT height, reward FROM blocks WHERE height BETWEEN 5 AND 25",
    "SELECT producer, COUNT(*) AS n FROM blocks WHERE height < 30 "
    "GROUP BY producer HAVING n > 1 ORDER BY n DESC, producer LIMIT 4",
    "SELECT b.height, p.region FROM blocks b JOIN pools p "
    "ON b.producer = p.producer WHERE b.height < 20 ORDER BY b.height",
    "SELECT b.height, p.region FROM blocks b LEFT JOIN pools p "
    "ON b.producer = p.producer ORDER BY b.height",
    "SELECT DISTINCT producer FROM blocks WHERE reward >= 2 ORDER BY producer",
    "SELECT d.producer, d.n FROM (SELECT producer, COUNT(*) AS n "
    "FROM blocks GROUP BY producer) d WHERE d.n > 3 ORDER BY d.producer",
    "SELECT height FROM blocks WHERE height = 7 OR producer = 'p2' ORDER BY height",
    "SELECT e.start, b.producer FROM epochs e JOIN blocks b ON e.start = b.height",
    "SELECT e.start, b.producer FROM epochs e LEFT JOIN blocks b ON e.mark = b.height",
]


def catalog() -> dict[str, Table]:
    n = 40
    return {
        "blocks": Table(
            {
                "height": list(range(n)),
                "producer": [f"p{i % 5}" for i in range(n)],
                "reward": [float(i % 7) for i in range(n)],
            }
        ),
        # p4 is missing so joins exercise non-matching keys / LEFT NULLs.
        "pools": Table(
            {"producer": ["p0", "p1", "p2", "p3"], "region": ["w", "x", "y", "z"]}
        ),
        # Numeric keys into blocks.height: duplicates, misses, -0.0, NaN and
        # a float that equals no int.
        "epochs": Table(
            {
                "start": [10, 0, 10, 39, 40, -1],
                "mark": [10.0, -0.0, 10.5, 39.0, float("nan"), 0.0],
            }
        ),
    }


def variant_engines() -> list[tuple[str, QueryEngine]]:
    engines: list[tuple[str, QueryEngine]] = []

    def add(name: str, analyze: bool = True, indexed: bool = True, **kwargs):
        eng = QueryEngine(catalog(), **kwargs)
        if indexed:
            eng.create_index("blocks", "height", "sorted")
            eng.create_index("blocks", "producer", "hash")
            eng.create_index("pools", "producer", "hash")
        if analyze:
            eng.execute("ANALYZE")
        engines.append((name, eng))

    add("no-stats-no-index", analyze=False, indexed=False)
    add("stats-only", indexed=False)
    add("stats-and-indexes")
    add("force-sort-merge", options=PlannerOptions.with_disabled(
        ["hash-join", "index-join"]
    ))
    add("force-index-join", options=PlannerOptions.with_disabled(
        ["hash-join", "sort-merge-join"]
    ))
    add("no-pushdown", options=PlannerOptions.with_disabled(
        ["predicate-pushdown", "projection-pushdown"]
    ))
    add("no-index-scan", options=PlannerOptions.with_disabled(["index-scan"]))
    return engines


def snapshot(table: Table):
    return (
        table.column_names,
        tuple(str(np.asarray(table[c]).dtype) for c in table.column_names),
        table.to_rows(),
    )


class TestOptimizerEquivalence:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matrix_is_byte_identical(self, sql):
        baseline_engine = QueryEngine(catalog(), optimizer=False)
        baseline = snapshot(baseline_engine.execute(sql))
        for name, engine in variant_engines():
            got = snapshot(engine.execute(sql))
            assert got == baseline, f"variant {name!r} diverged on {sql!r}"

    @pytest.mark.parametrize("sql", QUERIES)
    def test_explain_analyze_matches_execute(self, sql):
        engine = QueryEngine(catalog())
        engine.create_index("blocks", "height", "sorted")
        engine.execute("ANALYZE")
        plain = snapshot(engine.execute(sql))
        traced, _ = engine.explain_analyze(sql)
        assert snapshot(traced) == plain


@st.composite
def random_tables(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    producers = draw(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=n, max_size=n)
    )
    heights = draw(
        st.lists(st.integers(min_value=0, max_value=15), min_size=n, max_size=n)
    )
    return Table({"height": heights, "producer": producers})


class TestOptimizerEquivalenceProperties:
    @given(random_tables(), st.integers(min_value=-1, max_value=16))
    @settings(max_examples=40)
    def test_equality_filter_identical(self, table, pivot):
        sql = f"SELECT producer FROM t WHERE height = {pivot}"
        baseline = QueryEngine({"t": table}, optimizer=False).execute(sql)
        optimized = QueryEngine({"t": table})
        optimized.create_index("t", "height", "sorted")
        optimized.execute("ANALYZE")
        assert snapshot(optimized.execute(sql)) == snapshot(baseline)

    @given(random_tables(), random_tables())
    @settings(max_examples=25)
    def test_join_strategies_identical(self, left, right):
        for key in ("producer", "height"):
            sql = (
                "SELECT l.height, r.height AS rh, r.producer AS rp FROM l JOIN r "
                f"ON l.{key} = r.{key}"
            )
            baseline = snapshot(QueryEngine(
                {"l": left, "r": right}, optimizer=False
            ).execute(sql))
            for disabled in (
                [],
                ["hash-join", "index-join"],
                ["hash-join", "sort-merge-join"],
            ):
                engine = QueryEngine(
                    {"l": left, "r": right},
                    options=PlannerOptions.with_disabled(disabled),
                )
                engine.create_index("r", "producer", "hash")
                engine.create_index("r", "height", "sorted")
                engine.execute("ANALYZE")
                assert snapshot(engine.execute(sql)) == baseline, (key, disabled)
