"""Tests for array and grouped aggregates."""

import numpy as np
import pytest

from repro.errors import TableError
from repro.table.aggregates import aggregate_array, factorize, grouped_aggregate


class TestAggregateArray:
    def test_count(self):
        assert aggregate_array(np.asarray([1, 2, 3]), "count") == 3

    def test_count_empty(self):
        assert aggregate_array(np.asarray([]), "count") == 0

    def test_count_distinct_numeric(self):
        assert aggregate_array(np.asarray([1, 1, 2]), "count_distinct") == 2

    def test_count_distinct_strings(self):
        values = np.asarray(["a", "a", "b"], dtype=object)
        assert aggregate_array(values, "count_distinct") == 2

    def test_sum_returns_python_scalar(self):
        out = aggregate_array(np.asarray([1, 2]), "sum")
        assert out == 3
        assert not isinstance(out, np.generic)

    def test_mean_avg_alias(self):
        values = np.asarray([1.0, 3.0])
        assert aggregate_array(values, "mean") == 2.0
        assert aggregate_array(values, "avg") == 2.0

    def test_min_max(self):
        values = np.asarray([5, 1, 9])
        assert aggregate_array(values, "min") == 1
        assert aggregate_array(values, "max") == 9

    def test_std_var(self):
        values = np.asarray([1.0, 3.0])
        assert aggregate_array(values, "var") == pytest.approx(1.0)
        assert aggregate_array(values, "std") == pytest.approx(1.0)

    def test_median(self):
        assert aggregate_array(np.asarray([1, 2, 100]), "median") == 2.0

    def test_first_last(self):
        values = np.asarray([7, 8, 9])
        assert aggregate_array(values, "first") == 7
        assert aggregate_array(values, "last") == 9

    def test_empty_non_count_is_none(self):
        assert aggregate_array(np.asarray([]), "sum") is None

    def test_string_min(self):
        values = np.asarray(["b", "a"], dtype=object)
        assert aggregate_array(values, "min") == "a"

    def test_string_sum_raises(self):
        with pytest.raises(TableError):
            aggregate_array(np.asarray(["a"], dtype=object), "sum")

    def test_unknown_function_raises(self):
        with pytest.raises(TableError):
            aggregate_array(np.asarray([1]), "mode")


class TestGroupedAggregate:
    @pytest.fixture
    def data(self):
        values = np.asarray([1.0, 2.0, 3.0, 4.0, 5.0])
        ids = np.asarray([0, 0, 1, 1, 1])
        return values, ids

    def test_count(self, data):
        values, ids = data
        assert grouped_aggregate(values, ids, 2, "count").tolist() == [2, 3]

    def test_sum(self, data):
        values, ids = data
        assert grouped_aggregate(values, ids, 2, "sum").tolist() == [3.0, 12.0]

    def test_int_sum_stays_int(self):
        values = np.asarray([1, 2, 3])
        ids = np.asarray([0, 0, 1])
        out = grouped_aggregate(values, ids, 2, "sum")
        assert out.dtype == np.int64

    def test_mean(self, data):
        values, ids = data
        assert grouped_aggregate(values, ids, 2, "mean").tolist() == [1.5, 4.0]

    def test_std_matches_numpy(self, data):
        values, ids = data
        out = grouped_aggregate(values, ids, 2, "std")
        assert out[1] == pytest.approx(np.std([3.0, 4.0, 5.0]))

    def test_min_max_first_last(self, data):
        values, ids = data
        assert grouped_aggregate(values, ids, 2, "min").tolist() == [1.0, 3.0]
        assert grouped_aggregate(values, ids, 2, "max").tolist() == [2.0, 5.0]
        assert grouped_aggregate(values, ids, 2, "first").tolist() == [1.0, 3.0]
        assert grouped_aggregate(values, ids, 2, "last").tolist() == [2.0, 5.0]

    def test_median(self, data):
        values, ids = data
        assert grouped_aggregate(values, ids, 2, "median").tolist() == [1.5, 4.0]

    def test_count_distinct(self):
        values = np.asarray([1, 1, 2, 2, 2])
        ids = np.asarray([0, 0, 0, 1, 1])
        assert grouped_aggregate(values, ids, 2, "count_distinct").tolist() == [2, 1]

    def test_count_distinct_strings(self):
        values = np.asarray(["x", "y", "y"], dtype=object)
        ids = np.asarray([0, 0, 1])
        assert grouped_aggregate(values, ids, 2, "count_distinct").tolist() == [2, 1]

    def test_empty_group_mean_is_nan(self):
        values = np.asarray([1.0])
        ids = np.asarray([1])  # group 0 never appears
        out = grouped_aggregate(values, ids, 2, "mean")
        assert np.isnan(out[0])
        assert out[1] == 1.0

    def test_empty_group_min_is_nan(self):
        values = np.asarray([5])
        ids = np.asarray([1])
        out = grouped_aggregate(values, ids, 2, "min")
        assert np.isnan(out[0])
        assert out[1] == 5

    def test_length_mismatch_raises(self):
        with pytest.raises(TableError):
            grouped_aggregate(np.asarray([1.0]), np.asarray([0, 0]), 1, "sum")

    def test_string_first(self):
        values = np.asarray(["a", "b", "c"], dtype=object)
        ids = np.asarray([0, 1, 1])
        assert grouped_aggregate(values, ids, 2, "first").tolist() == ["a", "b"]

    def test_string_median_raises(self):
        values = np.asarray(["a"], dtype=object)
        with pytest.raises(TableError):
            grouped_aggregate(values, np.asarray([0]), 1, "median")


class TestFactorize:
    """Group ids by first appearance, the group count and each group's first row."""

    @pytest.mark.parametrize(
        "keys",
        [
            [np.asarray([3, 1, 3, 0, 1], dtype=np.int64)],  # dense codes
            [np.asarray([30, -1, 30, 7, -1], dtype=np.int64)],  # np.unique
            [np.asarray(["c", "b", "c", "a", "b"], dtype=object)],  # dict
            [np.asarray([1, 2, 1, 3, 2]), np.asarray(["x", "y", "x", "x", "y"], dtype=object)],
        ],
        ids=["codes", "sparse-ints", "strings", "multi-column"],
    )
    def test_first_appearance_numbering(self, keys):
        ids, n_groups, first_rows = factorize(keys)
        assert ids.tolist() == [0, 1, 0, 2, 1]
        assert n_groups == 3
        assert first_rows.tolist() == [0, 1, 3]

    def test_nan_keys_form_one_group(self):
        ids, n_groups, _ = factorize([np.asarray([np.nan, 1.0, np.nan])])
        assert ids.tolist() == [0, 1, 0] and n_groups == 2

    def test_empty(self):
        ids, n_groups, first_rows = factorize([np.empty(0, dtype=np.int64)])
        assert ids.size == 0 and n_groups == 0 and first_rows.size == 0

    def test_large_range_codes_take_the_unique_path(self):
        ids, n_groups, first_rows = factorize([np.asarray([10**12, 5, 10**12])])
        assert ids.tolist() == [0, 1, 0] and first_rows.tolist() == [0, 1]


class TestGroupedCountDistinctPaths:
    def test_dense_codes_use_pair_bincount(self):
        values = np.asarray([0, 0, 2, 1, 2, 2], dtype=np.int64)
        ids = np.asarray([0, 1, 0, 1, 1, 1])
        assert grouped_aggregate(values, ids, 3, "count_distinct").tolist() == [2, 3, 0]

    def test_sparse_values_are_coded_first(self):
        values = np.asarray([10**12, -4, 10**12, 7])
        ids = np.asarray([0, 0, 1, 1])
        assert grouped_aggregate(values, ids, 2, "count_distinct").tolist() == [2, 2]

    def test_many_groups_deduplicate_pairs_with_unique(self):
        # 70,000 groups x 2 codes is past the O(rows) pair-array budget.
        values = np.asarray([0, 1, 1, 0], dtype=np.int64)
        ids = np.asarray([0, 69_999, 69_999, 69_999])
        counts = grouped_aggregate(values, ids, 70_000, "count_distinct")
        assert counts[0] == 1 and counts[69_999] == 2 and counts.sum() == 3
