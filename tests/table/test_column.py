"""Tests for the typed column wrapper."""

import numpy as np
import pytest

from repro.errors import SchemaError, TableError
from repro.table.column import Column, infer_kind


class TestInferKind:
    def test_int_list(self):
        assert infer_kind([1, 2, 3]) == "int"

    def test_float_list(self):
        assert infer_kind([1.0, 2.5]) == "float"

    def test_bool_list(self):
        assert infer_kind([True, False]) == "bool"

    def test_str_list(self):
        assert infer_kind(["a", "b"]) == "str"

    def test_numpy_dtypes(self):
        assert infer_kind(np.asarray([1, 2], dtype=np.int32)) == "int"
        assert infer_kind(np.asarray([1.0], dtype=np.float32)) == "float"
        assert infer_kind(np.asarray([True])) == "bool"

    def test_empty_defaults_to_str(self):
        assert infer_kind([]) == "str"

    def test_unsupported_type_raises(self):
        with pytest.raises(SchemaError):
            infer_kind([object()])


class TestColumnConstruction:
    def test_int_column(self):
        column = Column([1, 2, 3])
        assert column.kind == "int"
        assert column.values.dtype == np.int64

    def test_str_column_uses_object_array(self):
        column = Column(["miner-with-a-rather-long-name", "b"])
        assert column.values.dtype == object
        assert column.to_list()[0] == "miner-with-a-rather-long-name"

    def test_explicit_kind_coerces(self):
        column = Column([1, 2], kind="float")
        assert column.kind == "float"
        assert column.values.dtype == np.float64

    def test_2d_rejected(self):
        with pytest.raises(TableError):
            Column(np.zeros((2, 2)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            Column([1], kind="decimal")

    def test_none_allowed_in_str_columns(self):
        column = Column(["a", None])
        assert column.to_list() == ["a", None]

    def test_from_column_copies_identity(self):
        base = Column([1, 2])
        again = Column(base)
        assert again == base


class TestColumnEquality:
    def test_equal_columns(self):
        assert Column([1, 2]) == Column([1, 2])

    def test_kind_mismatch(self):
        assert Column([1, 2]) != Column([1.0, 2.0])

    def test_nan_equal_nan(self):
        assert Column([np.nan, 1.0]) == Column([np.nan, 1.0])

    def test_length_mismatch(self):
        assert Column([1]) != Column([1, 2])


class TestColumnOps:
    def test_take(self):
        column = Column([10, 20, 30])
        assert column.take(np.asarray([2, 0])).to_list() == [30, 10]

    def test_len_and_iter(self):
        column = Column(["x", "y"])
        assert len(column) == 2
        assert list(column) == ["x", "y"]

    def test_repr_truncates(self):
        column = Column(list(range(10)))
        assert "..." in repr(column)


class TestCast:
    def test_int_to_float(self):
        assert Column([1, 2]).cast("float").to_list() == [1.0, 2.0]

    def test_int_to_str(self):
        assert Column([1, 2]).cast("str").to_list() == ["1", "2"]

    def test_str_to_int(self):
        assert Column(["1", "2"]).cast("int").to_list() == [1, 2]

    def test_str_to_bool(self):
        assert Column(["true", "0", "yes"]).cast("bool").to_list() == [True, False, True]

    def test_same_kind_is_identity(self):
        column = Column([1])
        assert column.cast("int") is column

    def test_unparseable_str_raises(self):
        with pytest.raises(SchemaError):
            Column(["x"]).cast("int")

    def test_unknown_kind_raises(self):
        with pytest.raises(SchemaError):
            Column([1]).cast("complex")


class TestDictionaryEncoding:
    def test_values_are_categories_taken_by_codes(self):
        column = Column.from_codes([2, 0, 2, 1], ["b", "a", "c"])
        assert column.kind == "str"
        assert column.to_list() == ["c", "b", "c", "a"]
        assert column.values.dtype == object
        assert column.codes.tolist() == [2, 0, 2, 1]
        assert column.categories.tolist() == ["b", "a", "c"]

    def test_int64_codes_are_kept_without_a_copy(self):
        codes = np.asarray([0, 1, 0], dtype=np.int64)
        assert Column.from_codes(codes, ["x", "y"]).codes is codes

    def test_equals_the_plain_column_of_its_values(self):
        assert Column.from_codes([1, 0], ["p", "q"]) == Column(["q", "p"])

    def test_empty_codes(self):
        column = Column.from_codes(np.empty(0, dtype=np.int64), ["a"])
        assert len(column) == 0 and column.codes is not None

    @pytest.mark.parametrize("codes", [[0, 3], [-1, 0]])
    def test_codes_out_of_range_rejected(self, codes):
        with pytest.raises(SchemaError, match="codes"):
            Column.from_codes(codes, ["a", "b", "c"])

    def test_duplicate_categories_rejected(self):
        with pytest.raises(SchemaError, match="unique"):
            Column.from_codes([0], ["a", "a"])

    def test_non_string_categories_rejected(self):
        with pytest.raises(SchemaError, match="strings"):
            Column.from_codes([0], ["a", None])

    def test_2d_codes_rejected(self):
        with pytest.raises(TableError):
            Column.from_codes(np.zeros((2, 2), dtype=np.int64), ["a"])

    def test_take_and_slice_keep_the_codes(self):
        column = Column.from_codes([0, 1, 2, 1], ["a", "b", "c"])
        taken = column.take(np.asarray([3, 0]))
        assert taken.codes.tolist() == [1, 0] and taken.to_list() == ["b", "a"]
        assert taken.categories is column.categories
        sliced = column.take(slice(1, 3))
        assert sliced.codes.tolist() == [1, 2] and sliced.to_list() == ["b", "c"]

    def test_building_from_values_never_encodes(self):
        encoded = Column.from_codes([0, 1], ["a", "b"])
        assert Column(["a", "b"]).codes is None
        assert Column(encoded).codes is None
        assert Column(encoded.values, "str").codes is None
