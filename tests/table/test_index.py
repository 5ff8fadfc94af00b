"""Tests for secondary index structures (sorted-array and hash)."""

import numpy as np
import pytest

from repro.errors import TableError
from repro.sql import PlannerOptions, QueryEngine
from repro.table import Table, build_index
from repro.table.index import HashIndex, SortedIndex


def index_join(left: Table, right: Table, key: str) -> list[tuple[int, int]]:
    """``(left row, right row)`` pairs of an SQL join forced through a hash
    index on ``right.key``."""
    engine = QueryEngine(
        {"l": left.with_column("i", list(range(left.num_rows))),
         "r": right.with_column("j", list(range(right.num_rows)))},
        options=PlannerOptions.with_disabled(["hash-join", "sort-merge-join"]),
    )
    engine.create_index("r", key, "hash")
    sql = f"SELECT l.i, r.j FROM l JOIN r ON l.{key} = r.{key}"
    assert "strategy=index" in engine.explain(sql)
    return [(row["i"], row["j"]) for row in engine.execute(sql).to_rows()]


@pytest.fixture
def numbers() -> Table:
    return Table({"x": [5, 1, 3, 1, 9, 3, 3]})


class TestSortedIndex:
    def test_lookup_eq_returns_ascending_positions(self, numbers):
        index = build_index(numbers, "x", "sorted")
        assert index.lookup_eq(3).tolist() == [2, 5, 6]
        assert index.lookup_eq(1).tolist() == [1, 3]

    def test_lookup_eq_miss(self, numbers):
        index = build_index(numbers, "x", "sorted")
        assert index.lookup_eq(4).tolist() == []
        assert index.lookup_eq(None).tolist() == []
        assert index.lookup_eq(float("nan")).tolist() == []

    def test_lookup_range(self, numbers):
        index = build_index(numbers, "x", "sorted")
        assert index.lookup_range(low=3, high=5).tolist() == [0, 2, 5, 6]
        assert index.lookup_range(low=3, high=5, include_low=False).tolist() == [0]
        assert index.lookup_range(high=1).tolist() == [1, 3]
        assert index.lookup_range(low=100).tolist() == []

    def test_range_matches_mask_semantics(self):
        values = [7, 2, 9, 4, 2, 8, 0, 4]
        table = Table({"x": values})
        index = build_index(table, "x", "sorted")
        arr = np.asarray(values)
        expected = np.flatnonzero((arr >= 2) & (arr < 8))
        assert index.lookup_range(low=2, high=8, include_high=False).tolist() == expected.tolist()

    def test_nan_rows_excluded(self):
        table = Table({"x": [1.0, np.nan, 2.0, np.nan]})
        index = build_index(table, "x", "sorted")
        assert index.lookup_range().tolist() == [0, 2]

    def test_str_with_nulls_rejected(self):
        table = Table({"name": ["a", None, "b"]})
        with pytest.raises(TableError, match="hash index"):
            build_index(table, "name", "sorted")

    def test_str_without_nulls_allowed(self):
        table = Table({"name": ["b", "a", "c", "a"]})
        index = build_index(table, "name", "sorted")
        assert index.lookup_eq("a").tolist() == [1, 3]
        assert index.lookup_range(low="b").tolist() == [0, 2]


class TestHashIndex:
    def test_lookup_eq(self):
        table = Table({"name": ["a", "b", "a", None, "c"]})
        index = build_index(table, "name", "hash")
        assert index.lookup_eq("a").tolist() == [0, 2]
        assert index.lookup_eq("z").tolist() == []

    def test_null_semantics_split(self):
        table = Table({"name": ["a", None, "b", None]})
        index = build_index(table, "name", "hash")
        # SQL `=` never matches NULL; an index join through it does.
        assert index.lookup_eq(None).tolist() == []
        assert index_join(Table({"name": [None]}), table, "name") == [(0, 1), (0, 3)]

    def test_nan_never_matches(self):
        table = Table({"x": [1.0, np.nan, 2.0]})
        index = build_index(table, "x", "hash")
        assert index.lookup_eq(float("nan")).tolist() == []
        assert index_join(Table({"x": [np.nan, 2.0]}), table, "x") == [(1, 2)]

    def test_all_duplicate_column(self):
        table = Table({"x": [7] * 100})
        index = build_index(table, "x", "hash")
        assert index.lookup_eq(7).tolist() == list(range(100))
        assert index.lookup_eq(8).tolist() == []


class TestBuildIndex:
    def test_auto_picks_hash_for_strings(self):
        table = Table({"name": ["a"], "x": [1]})
        assert isinstance(build_index(table, "name"), HashIndex)
        assert isinstance(build_index(table, "x"), SortedIndex)

    def test_unknown_kind(self):
        table = Table({"x": [1]})
        with pytest.raises(TableError, match="unknown index kind"):
            build_index(table, "x", "btree")

    def test_kind_attribute(self):
        table = Table({"x": [1]})
        assert build_index(table, "x", "sorted").kind == "sorted"
        assert build_index(table, "x", "hash").kind == "hash"
