"""Typed column wrapper used by :class:`repro.table.Table`.

A column is a 1-D numpy array plus a *kind* — one of ``"int"``, ``"float"``,
``"bool"`` or ``"str"``.  Strings are stored in object arrays (numpy's
fixed-width unicode arrays would silently truncate miner tags).

A ``str`` column may also be *dictionary-encoded* (:meth:`Column.from_codes`):
non-negative integer ``codes`` indexing an array of unique ``categories``.
It keeps its decoded ``values`` too, so every reader of ``values`` works
unchanged; operators that know the encoding (grouping, COUNT DISTINCT,
statistics) read the codes instead.  A column built from values is never
encoded.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.errors import SchemaError, TableError

#: The column kinds supported by the engine.
KINDS = ("int", "float", "bool", "str")

_KIND_DTYPES = {
    "int": np.dtype(np.int64),
    "float": np.dtype(np.float64),
    "bool": np.dtype(np.bool_),
    "str": np.dtype(object),
}


def infer_kind(values: Any) -> str:
    """Infer the column kind for ``values`` (an array or Python sequence)."""
    array = values if isinstance(values, np.ndarray) else np.asarray(list(values), dtype=object)
    if isinstance(array, np.ndarray) and array.dtype != object:
        return _kind_for_dtype(array.dtype)
    for item in array:
        if item is None:
            continue
        if isinstance(item, str):
            return "str"
        if isinstance(item, bool) or isinstance(item, np.bool_):
            return "bool"
        if isinstance(item, (int, np.integer)):
            return "int"
        if isinstance(item, (float, np.floating)):
            return "float"
        raise SchemaError(f"unsupported value type in column: {type(item).__name__}")
    return "str"


def _kind_for_dtype(dtype: np.dtype) -> str:
    if np.issubdtype(dtype, np.bool_):
        return "bool"
    if np.issubdtype(dtype, np.integer):
        return "int"
    if np.issubdtype(dtype, np.floating):
        return "float"
    if dtype.kind in ("U", "S", "O"):
        return "str"
    raise SchemaError(f"unsupported numpy dtype for a column: {dtype}")


def coerce_values(values: Any, kind: str | None = None) -> tuple[np.ndarray, str]:
    """Coerce ``values`` to a canonical 1-D array of the given (or inferred) kind.

    Returns the array and the resolved kind.
    """
    if isinstance(values, Column):
        values = values.values
    if kind is None:
        if isinstance(values, np.ndarray) and values.dtype != object:
            kind = _kind_for_dtype(values.dtype)
        else:
            kind = infer_kind(values)
    if kind not in KINDS:
        raise SchemaError(f"unknown column kind: {kind!r}")
    if kind == "str":
        if isinstance(values, np.ndarray) and values.dtype == object:
            array = values
        else:
            array = np.empty(len(values), dtype=object)
            for i, item in enumerate(values):
                array[i] = None if item is None else str(item)
    else:
        array = np.asarray(values, dtype=_KIND_DTYPES[kind])
    if array.ndim != 1:
        raise TableError(f"columns must be 1-dimensional, got shape {array.shape}")
    return array, kind


class Column:
    """An immutable named-kind column: a 1-D numpy array plus a kind tag.

    ``codes`` and ``categories`` are None unless the column is
    dictionary-encoded, in which case ``values == categories[codes]``.
    """

    __slots__ = ("values", "kind", "codes", "categories")

    def __init__(self, values: Any, kind: str | None = None) -> None:
        array, resolved = coerce_values(values, kind)
        self.values = array
        self.kind = resolved
        self.codes: np.ndarray | None = None
        self.categories: np.ndarray | None = None

    @classmethod
    def from_codes(cls, codes: Any, categories: Any) -> "Column":
        """A dictionary-encoded ``str`` column whose values are ``categories[codes]``.

        ``categories`` must be unique strings (unused ones are allowed) and
        every code must satisfy ``0 <= code < len(categories)``.  ``codes``
        is kept without a copy when it already is an int64 array.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise TableError(f"codes must be 1-dimensional, got shape {codes.shape}")
        cats = np.empty(len(categories), dtype=object)
        cats[:] = list(categories)
        if not all(isinstance(c, str) for c in cats):
            raise SchemaError("categories must be strings")
        if len(set(cats.tolist())) != len(cats):
            raise SchemaError("categories must be unique")
        if codes.size and (codes.min() < 0 or codes.max() >= len(cats)):
            raise SchemaError(f"codes must lie in [0, {len(cats)})")
        return cls._encoded(codes, cats, cats[codes])

    @classmethod
    def _encoded(cls, codes: np.ndarray, categories: np.ndarray, values: np.ndarray) -> "Column":
        """An encoded column from parts already known to agree (no checks)."""
        column = cls.__new__(cls)
        column.values = values
        column.kind = "str"
        column.codes = codes
        column.categories = categories
        return column

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __iter__(self) -> Iterable[Any]:
        return iter(self.to_list())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.kind != other.kind or len(self) != len(other):
            return False
        if self.kind == "float":
            return bool(
                np.array_equal(self.values, other.values, equal_nan=True)
            )
        return bool(np.array_equal(self.values, other.values))

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self.to_list()[:5])
        suffix = ", ..." if len(self) > 5 else ""
        return f"Column(kind={self.kind!r}, n={len(self)}, [{preview}{suffix}])"

    def take(self, indices: np.ndarray | slice) -> "Column":
        """Return a new column with rows picked by ``indices`` (or a slice).

        An encoded column stays encoded over the same categories.
        """
        if self.codes is not None:
            return Column._encoded(self.codes[indices], self.categories, self.values[indices])
        return Column(self.values[indices], self.kind)

    def to_list(self) -> list[Any]:
        """Return the column as a list of Python scalars."""
        if self.kind == "str":
            return list(self.values)
        return self.values.tolist()

    def cast(self, kind: str) -> "Column":
        """Return a copy of this column converted to ``kind``.

        Numeric conversions use numpy casting; casting to ``str`` applies
        ``str()`` element-wise; casting ``str`` to numeric parses each value.
        """
        if kind == self.kind:
            return self
        if kind not in KINDS:
            raise SchemaError(f"unknown column kind: {kind!r}")
        if kind == "str":
            out = np.empty(len(self), dtype=object)
            for i, item in enumerate(self.values):
                out[i] = str(item)
            return Column(out, "str")
        if self.kind == "str":
            try:
                if kind == "bool":
                    parsed = [_parse_bool(v) for v in self.values]
                else:
                    caster = int if kind == "int" else float
                    parsed = [caster(v) for v in self.values]
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"cannot cast str column to {kind}: {exc}") from exc
            return Column(parsed, kind)
        return Column(self.values.astype(_KIND_DTYPES[kind]), kind)


def _parse_bool(value: Any) -> bool:
    text = str(value).strip().lower()
    if text in ("true", "1", "t", "yes"):
        return True
    if text in ("false", "0", "f", "no"):
        return False
    raise ValueError(f"not a boolean: {value!r}")
