"""Dictionary-encoded ``str`` columns answer exactly as plain ones.

Every catalog here exists twice: with plain object ``str`` columns, and
with the same strings dictionary-encoded over categories that are
shuffled (so code order is not value order) and include values no row
uses.  The same query must give equal ``to_rows()`` on both, and equal
EXPLAIN ANALYZE trees once wall times are dropped.  Covered:

* the golden plan matrix (``tests/sql/test_plan_golden.py``, 18 queries),
* the optimizer-equivalence matrix (9 queries x 7 engine variants),
* the benchmark's five query shapes on the seed-1 chains (BTC whole, ETH
  cut to 200,000 blocks), serial and partitioned,
* hypothesis properties over random codes and categories,
* a guard that the five shapes never reach the per-row string paths on
  encoded tables.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.scenarios import simulate_bitcoin_2019, simulate_ethereum_2019
from repro.sql import QueryEngine
from repro.sql import executor as executor_module
from repro.table import Column, Table, collect_statistics
from repro.table import aggregates as aggregates_module
from repro.table import stats as stats_module
from tests.properties import test_optimizer_equivalence as optimizer_matrix
from tests.sql import test_plan_golden as golden_matrix


def encode(table: Table, seed: int = 0) -> Table:
    """``table`` with each NULL-free ``str`` column dictionary-encoded.

    Categories are the column's values plus three unused strings, shuffled.
    """
    rng = random.Random(seed)
    data = {}
    for name in table.column_names:
        column = table.column(name)
        values = column.to_list()
        if column.kind != "str" or any(v is None for v in values):
            data[name] = column
            continue
        categories = sorted(set(values)) + [f"~unused-{i}" for i in range(3)]
        rng.shuffle(categories)
        index = {category: code for code, category in enumerate(categories)}
        data[name] = Column.from_codes([index[v] for v in values], categories)
    return Table(data)


def plain(table: Table) -> Table:
    """``table`` with every column rebuilt from its values (never encoded)."""
    columns = {name: table.column(name) for name in table.column_names}
    return Table({name: Column(column.values, column.kind) for name, column in columns.items()})


def encoded_columns(tables: dict[str, Table]) -> int:
    return sum(
        table.column(name).codes is not None
        for table in tables.values()
        for name in table.column_names
    )


def snapshot(table: Table):
    return (
        table.column_names,
        tuple(str(np.asarray(table[c]).dtype) for c in table.column_names),
        table.to_rows(),
    )


# -- the golden plan matrix ------------------------------------------------------


#: The matrices' own catalog functions; the tests patch the module names.
GOLDEN_CATALOG = golden_matrix.catalog
OPTIMIZER_CATALOG = optimizer_matrix.catalog


def encoded_golden_catalog() -> dict[str, Table]:
    tables = GOLDEN_CATALOG().items()
    return {name: encode(table, seed=i) for i, (name, table) in enumerate(tables)}


@pytest.fixture
def low_parallel_threshold(monkeypatch):
    monkeypatch.setattr(executor_module, "_PARALLEL_MIN_ROWS", golden_matrix.PARALLEL_MIN_ROWS)


@pytest.mark.usefixtures("low_parallel_threshold")
@pytest.mark.parametrize("name", sorted(golden_matrix.CASES))
def test_golden_matrix_encoded_equals_plain(name, monkeypatch):
    kind, sql = golden_matrix.CASES[name]
    plain_engine = golden_matrix.make_engine(kind)
    monkeypatch.setattr(golden_matrix, "catalog", encoded_golden_catalog)
    encoded_engine = golden_matrix.make_engine(kind)
    assert encoded_columns(encoded_engine._catalog) == 4
    plain_result, plain_tree = plain_engine.explain_analyze(sql)
    encoded_result, encoded_tree = encoded_engine.explain_analyze(sql)
    assert snapshot(encoded_result) == snapshot(plain_result)
    assert golden_matrix.tree_dict(encoded_tree) == golden_matrix.tree_dict(plain_tree)


# -- the optimizer-equivalence matrix --------------------------------------------


def encoded_optimizer_catalog() -> dict[str, Table]:
    return {name: encode(table, seed=7) for name, table in OPTIMIZER_CATALOG().items()}


@pytest.mark.parametrize("sql", optimizer_matrix.QUERIES)
def test_optimizer_matrix_encoded_equals_plain(sql, monkeypatch):
    baseline = snapshot(QueryEngine(OPTIMIZER_CATALOG(), optimizer=False).execute(sql))
    monkeypatch.setattr(optimizer_matrix, "catalog", encoded_optimizer_catalog)
    for variant, engine in optimizer_matrix.variant_engines():
        assert encoded_columns(engine._catalog) == 3
        assert snapshot(engine.execute(sql)) == baseline, variant


# -- the benchmark's query shapes on the seed-1 chains ----------------------------

SHAPES = {
    "join": (
        "SELECT b.primary_producer, COUNT(*) AS n FROM btc_blocks b "
        "JOIN btc_credits c ON b.height = c.height "
        "WHERE c.n_producers > 1 GROUP BY b.primary_producer"
    ),
    "btc_groupby": (
        "SELECT producer, COUNT(*) AS n FROM btc_credits "
        "GROUP BY producer ORDER BY n DESC LIMIT 20"
    ),
    "eth_groupby": (
        "SELECT producer, COUNT(*) AS n FROM eth_credits "
        "GROUP BY producer ORDER BY n DESC LIMIT 20"
    ),
    "eth_distinct": (
        "SELECT COUNT(DISTINCT producer) AS k, MEDIAN(timestamp) AS m FROM eth_credits"
    ),
}
POINT = "SELECT height, primary_producer FROM {chain}_blocks WHERE height = {height}"


@pytest.fixture(scope="module")
def seed_one_chains():
    return {
        "btc": simulate_bitcoin_2019(seed=1),
        "eth": simulate_ethereum_2019(seed=1).slice_blocks(0, 200_000),
    }


@pytest.fixture(scope="module")
def shape_catalogs(seed_one_chains):
    encoded = {}
    for key, chain in seed_one_chains.items():
        encoded[f"{key}_blocks"] = chain.block_table()
        encoded[f"{key}_credits"] = chain.to_table()
    assert encoded_columns(encoded) == 4
    return encoded, {name: plain(table) for name, table in encoded.items()}


@pytest.fixture(scope="module")
def shape_queries(seed_one_chains):
    rng = random.Random(1)
    queries = dict(SHAPES)
    for key, chain in seed_one_chains.items():
        for i in range(3):
            height = rng.randint(chain.start_height, chain.end_height)
            queries[f"point_{key}_{i}"] = POINT.format(chain=key, height=height)
    return queries


def tuned_engine(catalog: dict[str, Table], workers: int) -> QueryEngine:
    """The benchmark's engine: ANALYZE plus a sorted index on each block height."""
    engine = QueryEngine(catalog, workers=workers)
    engine.analyze()
    for name in catalog:
        if name.endswith("_blocks"):
            engine.create_index(name, "height", "sorted")
    return engine


@pytest.mark.parametrize("workers", [1, 2])
def test_query_shapes_encoded_equal_plain(shape_catalogs, shape_queries, workers):
    encoded, plain_catalog = shape_catalogs
    reference = QueryEngine(plain_catalog, workers=1, optimizer=False)
    encoded_engine = tuned_engine(encoded, workers)
    plain_engine = tuned_engine(plain_catalog, workers)
    assert encoded_engine.analyze().to_rows() == plain_engine.analyze().to_rows()
    for kind, sql in shape_queries.items():
        expected = reference.execute(sql).to_rows()
        encoded_result, encoded_tree = encoded_engine.explain_analyze(sql)
        plain_result, plain_tree = plain_engine.explain_analyze(sql)
        assert encoded_result.to_rows() == expected, kind
        assert plain_result.to_rows() == expected, kind
        assert golden_matrix.tree_dict(encoded_tree) == golden_matrix.tree_dict(plain_tree), kind


def test_query_shapes_never_reach_the_string_paths(shape_catalogs, shape_queries, monkeypatch):
    encoded, plain_catalog = shape_catalogs
    reference = QueryEngine(plain_catalog, workers=1, optimizer=False)
    expected = {kind: reference.execute(sql).to_rows() for kind, sql in shape_queries.items()}

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-row string path ran on encoded columns")

    monkeypatch.setattr(aggregates_module, "_factorize_dict", forbidden)
    monkeypatch.setattr(stats_module, "_object_statistics", forbidden)
    monkeypatch.setattr(executor_module, "_none_mask", forbidden)
    for workers in (1, 2):
        engine = tuned_engine(encoded, workers)
        for kind, sql in shape_queries.items():
            assert engine.execute(sql).to_rows() == expected[kind], (kind, workers)


# -- properties over random codes and categories ------------------------------------


@st.composite
def encoded_tables(draw):
    """A table with an encoded ``s`` (random codes over shuffled categories,
    some unused) and an int ``v``."""
    categories = draw(
        st.lists(st.text(alphabet="abcxyz", max_size=3), min_size=1, max_size=8, unique=True)
    )
    n = draw(st.integers(min_value=0, max_value=40))
    codes = draw(
        st.lists(st.integers(min_value=0, max_value=len(categories) - 1), min_size=n, max_size=n)
    )
    ints = draw(st.lists(st.integers(min_value=-2, max_value=3), min_size=n, max_size=n))
    return Table({"s": Column.from_codes(codes, categories), "v": ints})


PROPERTY_QUERIES = [
    "SELECT s, COUNT(*) AS n, COUNT(DISTINCT v) AS d FROM t GROUP BY s",
    "SELECT v, COUNT(s) AS n, COUNT(DISTINCT s) AS d FROM t GROUP BY v",
    "SELECT s, v, COUNT(*) AS n FROM t GROUP BY s, v",
    "SELECT COUNT(DISTINCT s) AS d, COUNT(s) AS n FROM t",
    "SELECT DISTINCT s FROM t",
    "SELECT s, MIN(v) AS lo FROM t WHERE v > 0 GROUP BY s ORDER BY lo, s",
]


class TestEncodingProperties:
    @given(encoded_tables())
    @settings(max_examples=60, deadline=None)
    def test_sql_answers_equal(self, table):
        encoded = QueryEngine({"t": table})
        reference = QueryEngine({"t": plain(table)}, optimizer=False)
        for sql in PROPERTY_QUERIES:
            assert snapshot(encoded.execute(sql)) == snapshot(reference.execute(sql)), sql

    @given(encoded_tables())
    @settings(max_examples=60, deadline=None)
    def test_table_group_by_and_distinct_equal(self, table):
        other = plain(table)
        for keys in ("s", ["s", "v"], ["v", "s"]):
            assert table.distinct(keys) == other.distinct(keys)
            grouped = table.group_by(keys).aggregate(n=("v", "count"), d=("v", "count_distinct"))
            expected = other.group_by(keys).aggregate(n=("v", "count"), d=("v", "count_distinct"))
            assert grouped.to_rows() == expected.to_rows()

    @given(encoded_tables(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_statistics_equal(self, table, most_common):
        expected = collect_statistics(plain(table), most_common)
        assert collect_statistics(table, most_common) == expected

    @given(encoded_tables(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_grouped_count_distinct_on_codes_equals_strings(self, table, n_groups):
        column = table.column("s")
        group_ids = np.arange(len(column), dtype=np.int64) % n_groups
        counts = [
            aggregates_module.grouped_aggregate(array, group_ids, n_groups, "count_distinct")
            for array in (column.codes, column.values)
        ]
        assert counts[0].tolist() == counts[1].tolist()

    @given(encoded_tables())
    @settings(max_examples=60, deadline=None)
    def test_factorize_on_codes_equals_strings(self, table):
        column = table.column("s")
        on_codes = aggregates_module.factorize([column.codes])
        on_strings = aggregates_module.factorize([column.values])
        for a, b in zip(on_codes, on_strings):
            assert np.array_equal(a, b)
