"""Tests for ANALYZE-style table statistics collection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.table import Column, Table, collect_statistics
from repro.table.stats import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    ColumnStatistics,
    TableStatistics,
    _top_values,
)


@pytest.fixture
def stats() -> TableStatistics:
    table = Table(
        {
            "height": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            "producer": ["a", "a", "a", "b", "b", "c", "d", "e", "f", "g"],
            "reward": [1.0, 2.0, np.nan, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
        }
    )
    return collect_statistics(table)


class TestCollection:
    def test_row_count(self, stats):
        assert stats.row_count == 10

    def test_int_column(self, stats):
        column = stats.column("height")
        assert column.kind == "int"
        assert column.n_distinct == 10
        assert column.n_null == 0
        assert column.min_value == 1
        assert column.max_value == 10

    def test_str_column_mcv_ranked_by_count(self, stats):
        column = stats.column("producer")
        assert column.n_distinct == 7
        assert column.most_common[0] == ("a", 3)
        assert column.most_common[1] == ("b", 2)

    def test_float_column_counts_nan_as_null(self, stats):
        column = stats.column("reward")
        assert column.n_null == 1
        assert column.n_distinct == 9
        assert column.min_value == 1.0
        assert column.max_value == 10.0

    def test_unknown_column_is_none(self, stats):
        assert stats.column("nope") is None

    def test_most_common_cap(self):
        table = Table({"x": list(range(50))})
        column = collect_statistics(table, most_common=5).column("x")
        assert len(column.most_common) == 5

    def test_empty_table(self):
        stats = collect_statistics(Table({"x": []}))
        assert stats.row_count == 0
        column = stats.column("x")
        assert column.n_distinct == 0
        assert column.most_common == ()

    def test_null_str_values(self):
        table = Table({"name": ["x", None, "x", None, None]})
        column = collect_statistics(table).column("name")
        assert column.n_null == 3
        assert column.n_distinct == 1
        assert column.most_common[0] == ("x", 2)

    def test_table_statistics_cache(self):
        table = Table({"x": [1, 2, 3]})
        first = table.statistics()
        assert table.statistics() is first
        assert table.statistics(refresh=True) is not first


class TestEqSelectivity:
    def test_mcv_hit_uses_exact_count(self, stats):
        assert stats.column("producer").eq_selectivity("a") == pytest.approx(0.3)

    def test_none_is_zero(self, stats):
        assert stats.column("producer").eq_selectivity(None) == 0.0

    def test_out_of_range_numeric_is_zero(self, stats):
        assert stats.column("height").eq_selectivity(99) == 0.0

    def test_non_mcv_value_uses_remaining_mass(self):
        table = Table({"x": ["a"] * 90 + [f"v{i}" for i in range(10)]})
        column = collect_statistics(table, most_common=1).column("x")
        # 10 rows remain over 10 distinct values outside the MCV list.
        assert column.eq_selectivity("v3") == pytest.approx(0.01)

    def test_empty_column_is_zero(self):
        column = collect_statistics(Table({"x": []})).column("x")
        assert column.eq_selectivity(1) == 0.0

    def test_numeric_probes_match_across_int_float_bool(self):
        column = collect_statistics(Table({"x": [1, 1, 1, 2, 3]})).column("x")
        for probe in (1, 1.0, True, np.int64(1), np.float64(1.0)):
            assert column.mcv_count(probe) == 3
        assert column.mcv_count("1") is None
        assert column.mcv_count([1]) is None  # unhashable: no match


def linear_mcv_count(most_common, value):
    """The per-probe MCV scan the lookup replaced: first ``=`` match wins."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return None
    for mcv, count in most_common:
        if isinstance(mcv, str) or isinstance(value, str):
            same = mcv == value
        else:
            try:
                same = bool(mcv == value)
            except TypeError:
                same = False
        if same:
            return count
    return None


#: MCV lists as each column kind records them: distinct values, no NaN.
MCV_VALUES = {
    "int": st.integers(min_value=-3, max_value=3),
    "float": st.floats(min_value=-3, max_value=3, allow_nan=False),
    "bool": st.booleans(),
    "str": st.sampled_from(["", "a", "b", "1", "True", "nan"]),
}
PROBES = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, float("nan")]),
    st.booleans(),
    st.sampled_from(["", "a", "b", "1", "True", "nan"]),
    st.none(),
)


class TestMcvLookupProperties:
    @given(
        st.sampled_from(sorted(MCV_VALUES)).flatmap(
            lambda kind: st.tuples(
                st.just(kind),
                st.lists(MCV_VALUES[kind], unique=True, max_size=6),
            )
        ),
        st.lists(st.integers(min_value=1, max_value=50), min_size=6, max_size=6),
        PROBES,
    )
    @settings(max_examples=300)
    def test_lookup_equals_the_linear_scan(self, kind_values, counts, probe):
        kind, values = kind_values
        most_common = tuple(zip(values, counts))
        stats = ColumnStatistics(
            name="x", kind=kind, n_rows=400, n_null=0,
            n_distinct=len(values), most_common=most_common,
        )
        assert stats.mcv_count(probe) == linear_mcv_count(most_common, probe)


def unique_reference(values, most_common):
    """Int-column statistics the sort-based way: ``np.unique`` plus ranking."""
    distinct, counts = np.unique(values, return_counts=True)
    ranked = sorted(zip(distinct.tolist(), counts.tolist()), key=lambda vc: (-vc[1], vc[0]))
    return (
        int(distinct.size),
        float(distinct.min()),
        float(distinct.max()),
        tuple(ranked[:most_common]),
    )


#: Int columns with repeats, a single repeated value, and wide values.
INT_COLUMNS = st.one_of(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=60),
    st.integers(min_value=-3, max_value=3).flatmap(
        lambda v: st.lists(st.just(v), min_size=1, max_size=20)
    ),
    st.lists(st.integers(min_value=-(2**62), max_value=2**62), min_size=1, max_size=30),
)


class TestSortedIntStatistics:
    @given(INT_COLUMNS, st.integers(min_value=1, max_value=12), st.data())
    @settings(max_examples=200)
    def test_sorted_and_shuffled_columns_equal_np_unique(self, values, k, data):
        ordered = sorted(values)
        shuffled = data.draw(st.permutations(ordered))
        reference = unique_reference(np.array(values, dtype=np.int64), k)
        for column in (ordered, shuffled):
            table = Table({"x": np.array(column, dtype=np.int64)})
            stats = collect_statistics(table, most_common=k).column("x")
            assert stats.kind == "int"
            got = (stats.n_distinct, stats.min_value, stats.max_value, stats.most_common)
            assert got == reference
            assert all(
                type(value) is int and type(count) is int
                for value, count in stats.most_common
            )


class TestTopValues:
    def test_ties_at_the_kth_count_keep_the_smallest_values(self):
        counts = np.array([1, 2, 5, 2, 2, 5, 2], dtype=np.int64)
        distinct = np.array([10, 20, 30, 40, 50, 60, 70], dtype=np.int64)
        assert _top_values(distinct, counts, 4) == ((30, 5), (60, 5), (20, 2), (40, 2))


class TestEncodedStatistics:
    def test_counts_only_categories_that_occur(self):
        column = Column.from_codes([2, 2, 0, 2, 0, 3], ["b", "unused", "a", "c"])
        encoded = collect_statistics(Table({"x": column})).column("x")
        plain = collect_statistics(Table({"x": column.values})).column("x")
        assert encoded == plain
        assert encoded.n_distinct == 3
        assert encoded.most_common == (("a", 3), ("b", 2), ("c", 1))

    def test_mcv_ties_order_by_value(self):
        column = Column.from_codes([0, 1, 2, 0, 1, 2], ["z", "m", "a"])
        stats = collect_statistics(Table({"x": column})).column("x")
        assert [value for value, _ in stats.most_common] == ["a", "m", "z"]


class TestRangeSelectivity:
    def test_interpolates_numeric(self, stats):
        # height in [1, 10]; height > 7 keeps roughly 3/9 of the span.
        estimate = stats.column("height").range_selectivity(">", 7)
        assert 0.2 <= estimate <= 0.45

    def test_unbounded_low(self, stats):
        assert stats.column("height").range_selectivity("<", 0) == 0.0

    def test_unbounded_high(self, stats):
        assert stats.column("height").range_selectivity("<=", 100) == 1.0

    def test_non_numeric_falls_back(self, stats):
        estimate = stats.column("producer").range_selectivity(">", "c")
        assert estimate == DEFAULT_RANGE_SELECTIVITY

    def test_defaults_exported(self):
        assert 0.0 < DEFAULT_EQ_SELECTIVITY < 1.0
        assert isinstance(ColumnStatistics, type)
