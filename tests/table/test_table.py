"""Tests for the Table engine."""

import numpy as np
import pytest

from repro.errors import SchemaError, TableError
from repro.table import Table, col, concat


@pytest.fixture
def blocks() -> Table:
    return Table(
        {
            "height": [1, 2, 3, 4, 5, 6],
            "miner": ["a", "b", "a", "c", "b", "a"],
            "day": [0, 0, 1, 1, 1, 2],
            "reward": [12.5, 12.5, 12.5, 6.25, 6.25, 6.25],
        }
    )


class TestConstruction:
    def test_basic_shape(self, blocks):
        assert blocks.num_rows == 6
        assert blocks.num_columns == 4
        assert blocks.column_names == ("height", "miner", "day", "reward")

    def test_empty_table(self):
        table = Table()
        assert table.num_rows == 0
        assert table.num_columns == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(TableError):
            Table({"a": [1, 2], "b": [1]})

    def test_from_rows(self):
        table = Table.from_rows([{"x": 1, "y": "a"}, {"x": 2, "y": "b"}])
        assert table["x"].tolist() == [1, 2]

    def test_from_rows_missing_column_raises(self):
        with pytest.raises(TableError):
            Table.from_rows([{"x": 1}, {"y": 2}])

    def test_from_rows_empty_with_columns(self):
        table = Table.from_rows([], columns=["a", "b"])
        assert table.num_rows == 0
        assert table.column_names == ("a", "b")

    def test_empty_from_schema(self, blocks):
        empty = Table.empty(blocks.schema)
        assert empty.num_rows == 0
        assert empty.schema == blocks.schema


class TestAccessors:
    def test_getitem_returns_array(self, blocks):
        assert isinstance(blocks["height"], np.ndarray)

    def test_missing_column_raises(self, blocks):
        with pytest.raises(SchemaError):
            blocks.column("nope")

    def test_row(self, blocks):
        assert blocks.row(0) == {"height": 1, "miner": "a", "day": 0, "reward": 12.5}

    def test_row_negative_index(self, blocks):
        assert blocks.row(-1)["height"] == 6

    def test_row_out_of_range(self, blocks):
        with pytest.raises(TableError):
            blocks.row(6)

    def test_to_rows_roundtrip(self, blocks):
        assert Table.from_rows(blocks.to_rows()) == blocks


class TestProjection:
    def test_select_orders_columns(self, blocks):
        projected = blocks.select(["miner", "height"])
        assert projected.column_names == ("miner", "height")

    def test_drop(self, blocks):
        assert blocks.drop(["reward"]).column_names == ("height", "miner", "day")

    def test_drop_missing_raises(self, blocks):
        with pytest.raises(SchemaError):
            blocks.drop(["nope"])

    def test_rename(self, blocks):
        renamed = blocks.rename({"miner": "producer"})
        assert "producer" in renamed
        assert "miner" not in renamed

    def test_rename_missing_raises(self, blocks):
        with pytest.raises(SchemaError):
            blocks.rename({"nope": "x"})

    def test_with_column_adds(self, blocks):
        table = blocks.with_column("double", blocks["height"] * 2)
        assert table["double"].tolist() == [2, 4, 6, 8, 10, 12]

    def test_with_column_replaces(self, blocks):
        table = blocks.with_column("day", [9] * 6)
        assert table["day"].tolist() == [9] * 6

    def test_with_column_length_mismatch_raises(self, blocks):
        with pytest.raises(TableError):
            blocks.with_column("bad", [1])


class TestFilterAndTake:
    def test_filter_mask(self, blocks):
        out = blocks.filter(blocks["day"] == 1)
        assert out["height"].tolist() == [3, 4, 5]

    def test_filter_callable(self, blocks):
        out = blocks.filter(lambda t: t["reward"] > 10)
        assert out.num_rows == 3

    def test_filter_expression(self, blocks):
        out = blocks.filter((col("day") == 1) & (col("miner") == "b"))
        assert out["height"].tolist() == [5]

    def test_filter_wrong_length_raises(self, blocks):
        with pytest.raises(TableError):
            blocks.filter(np.asarray([True]))

    def test_filter_non_bool_raises(self, blocks):
        with pytest.raises(TableError):
            blocks.filter(blocks["height"])

    def test_take_with_duplicates(self, blocks):
        out = blocks.take([0, 0, 5])
        assert out["height"].tolist() == [1, 1, 6]

    def test_slice_and_head(self, blocks):
        assert blocks.slice(2, 4)["height"].tolist() == [3, 4]
        assert blocks.head(2).num_rows == 2


class TestSort:
    def test_single_key(self, blocks):
        out = blocks.sort_by("reward")
        assert out["reward"].tolist() == sorted(blocks["reward"].tolist())

    def test_descending(self, blocks):
        out = blocks.sort_by("height", descending=True)
        assert out["height"].tolist() == [6, 5, 4, 3, 2, 1]

    def test_multi_key_mixed_directions(self, blocks):
        out = blocks.sort_by(["day", "height"], descending=[False, True])
        assert out["height"].tolist() == [2, 1, 5, 4, 3, 6]

    def test_stable_on_ties(self):
        table = Table({"k": [1, 1, 1], "v": ["first", "second", "third"]})
        out = table.sort_by("k")
        assert out["v"].tolist() == ["first", "second", "third"]

    def test_string_key(self, blocks):
        out = blocks.sort_by("miner")
        assert out["miner"].tolist() == ["a", "a", "a", "b", "b", "c"]

    def test_flag_count_mismatch_raises(self, blocks):
        with pytest.raises(TableError):
            blocks.sort_by(["day"], descending=[True, False])

    def test_no_keys_raises(self, blocks):
        with pytest.raises(TableError):
            blocks.sort_by([])


class TestGroupBy:
    def test_count_and_sum(self, blocks):
        out = blocks.group_by("miner").aggregate(
            n=("height", "count"), total=("reward", "sum")
        )
        rows = {r["miner"]: r for r in out.to_rows()}
        assert rows["a"]["n"] == 3
        assert rows["a"]["total"] == pytest.approx(31.25)
        assert rows["c"]["n"] == 1

    def test_groups_ordered_by_first_occurrence(self, blocks):
        out = blocks.group_by("miner").aggregate(n=("miner", "count"))
        assert out["miner"].tolist() == ["a", "b", "c"]

    def test_multi_key(self, blocks):
        out = blocks.group_by(["day", "miner"]).aggregate(n=("height", "count"))
        # Pairs: (0,a) (0,b) (1,a) (1,c) (1,b) (2,a) — all distinct.
        assert out.num_rows == 6

    def test_mean_min_max(self, blocks):
        out = blocks.group_by("day").aggregate(
            mean_r=("reward", "mean"), lo=("height", "min"), hi=("height", "max")
        )
        day1 = out.filter(out["day"] == 1).row(0)
        assert day1["mean_r"] == pytest.approx((12.5 + 6.25 + 6.25) / 3)
        assert day1["lo"] == 3
        assert day1["hi"] == 5

    def test_string_min_max(self, blocks):
        out = blocks.group_by("day").aggregate(first_miner=("miner", "min"))
        assert out.filter(out["day"] == 0).row(0)["first_miner"] == "a"

    def test_apply(self, blocks):
        out = blocks.group_by("day").apply(
            lambda t: int(t["height"].sum()), output="height_sum"
        )
        assert out["height_sum"].tolist() == [3, 12, 6]

    def test_missing_key_raises(self, blocks):
        with pytest.raises(SchemaError):
            blocks.group_by("nope")

    def test_no_spec_raises(self, blocks):
        with pytest.raises(TableError):
            blocks.group_by("miner").aggregate()

    def test_empty_table_groupby(self):
        table = Table({"k": [], "v": []})
        out = table.group_by("k").aggregate(n=("v", "count"))
        assert out.num_rows == 0


class TestDistinctAndValueCounts:
    def test_distinct_single_key(self, blocks):
        assert blocks.distinct("miner").num_rows == 3

    def test_distinct_keeps_first_row(self, blocks):
        out = blocks.distinct("miner")
        assert out["height"].tolist() == [1, 2, 4]

    def test_distinct_all_columns(self):
        table = Table({"a": [1, 1, 2], "b": ["x", "x", "y"]})
        assert table.distinct().num_rows == 2

    def test_value_counts_sorted(self, blocks):
        out = blocks.value_counts("miner")
        assert out.row(0) == {"miner": "a", "count": 3}
        assert out["count"].tolist() == [3, 2, 1]


class TestConcat:
    def test_roundtrip(self, blocks):
        assert concat([blocks.head(3), blocks.slice(3, 6)]) == blocks

    def test_schema_mismatch_raises(self, blocks):
        other = Table({"height": [1.0]})
        with pytest.raises(TableError):
            concat([blocks.select(["height"]), other])

    def test_empty_list_raises(self):
        with pytest.raises(TableError):
            concat([])


class TestScalarAggregate:
    def test_sum(self, blocks):
        assert blocks.aggregate_scalar("height", "sum") == 21

    def test_count_distinct(self, blocks):
        assert blocks.aggregate_scalar("miner", "count_distinct") == 3


class TestDescribe:
    def test_one_row_per_column(self, blocks):
        out = blocks.describe()
        assert out.num_rows == 4
        assert out["column"].tolist() == ["height", "miner", "day", "reward"]

    def test_numeric_stats(self, blocks):
        out = blocks.describe()
        height = out.filter(out["column"] == "height").row(0)
        assert height["kind"] == "int"
        assert height["count"] == 6
        assert height["distinct"] == 6
        assert height["min"] == 1.0
        assert height["max"] == 6.0
        assert height["mean"] == pytest.approx(3.5)

    def test_string_stats_are_nan(self, blocks):
        out = blocks.describe()
        miner = out.filter(out["column"] == "miner").row(0)
        assert miner["distinct"] == 3
        assert np.isnan(miner["min"])
