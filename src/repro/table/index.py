"""Secondary indexes over :class:`~repro.table.Table` columns.

Two structures back the SQL optimizer's index access paths:

- :class:`SortedIndex` — a stable argsort of the column; equality and
  range lookups are binary searches (``np.searchsorted``).  Natural for
  numeric columns; supported for string columns without NULLs.
- :class:`HashIndex` — a dict of value → row positions; equality-only,
  and the natural choice for string columns.

Both return **ascending row positions**, so an index scan visits rows in
the same physical order as a full scan and the results stay byte-identical
to the unindexed path.  ``lookup_eq`` matches SQL ``=``: NULL (None) and
NaN never match.  Joins do not probe row by row: the SQL executor's join
kernel binary-searches a sorted index's ``keys`` and reads its ``order``,
and looks up a hash index's ``buckets`` once per distinct probe key.

Indexes are immutable snapshots of the column they were built from; the
query engine rebuilds them when a table is re-registered.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import TableError
from repro.table.column import Column
from repro.table.table import Table

#: Index kinds accepted by :func:`build_index` (``"auto"`` picks per column).
INDEX_KINDS = ("sorted", "hash")

_EMPTY = np.empty(0, dtype=np.int64)


def _is_nan(value: Any) -> bool:
    return isinstance(value, float) and value != value


class SortedIndex:
    """Binary-search index over one column (equality and range lookups)."""

    kind = "sorted"
    supports_range = True

    def __init__(self, column: Column, name: str) -> None:
        self.column = name
        values = column.values
        if column.kind == "str" and any(v is None for v in values):
            raise TableError(
                f"cannot build a sorted index on {name!r}: "
                "string column contains NULLs (use a hash index)"
            )
        order = np.argsort(values, kind="stable").astype(np.int64)
        n_valid = len(values)
        if column.kind == "float":
            # NaNs sort last under argsort; exclude them from the search range.
            n_valid -= int(np.isnan(values).sum())
        #: Row positions of the non-NaN values in value order, equal values
        #: in row order.
        self.order = order[:n_valid]
        #: Those values in that order.
        self.keys = Column(values[self.order], column.kind)
        self.n_rows = len(values)

    def lookup_eq(self, value: Any) -> np.ndarray:
        """Ascending positions of rows where ``column = value``."""
        if value is None or _is_nan(value):
            return _EMPTY
        lo = int(np.searchsorted(self.keys.values, value, side="left"))
        hi = int(np.searchsorted(self.keys.values, value, side="right"))
        if hi <= lo:
            return _EMPTY
        return np.sort(self.order[lo:hi])

    def lookup_range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> np.ndarray:
        """Ascending positions of rows in the (possibly half-open) interval."""
        valid = self.keys.values
        lo = 0
        hi = len(valid)
        if low is not None:
            lo = int(np.searchsorted(valid, low, side="left" if include_low else "right"))
        if high is not None:
            hi = int(np.searchsorted(valid, high, side="right" if include_high else "left"))
        if hi <= lo:
            return _EMPTY
        return np.sort(self.order[lo:hi])


class HashIndex:
    """Dict-backed equality index over one column."""

    kind = "hash"
    supports_range = False

    def __init__(self, column: Column, name: str) -> None:
        self.column = name
        buckets: dict[Any, list[int]] = {}
        for position, value in enumerate(column.to_list()):
            if _is_nan(value):
                continue  # NaN never matches itself in `=`
            buckets.setdefault(value, []).append(position)
        #: Each value (``None`` included, NaN left out) -> its ascending row positions.
        self.buckets = {
            value: np.asarray(rows, dtype=np.int64) for value, rows in buckets.items()
        }
        self.n_rows = len(column)

    def lookup_eq(self, value: Any) -> np.ndarray:
        """Ascending positions of rows where ``column = value``."""
        if value is None or _is_nan(value):
            return _EMPTY
        return self.buckets.get(value, _EMPTY)


Index = SortedIndex | HashIndex


def build_index(table: Table, column: str, kind: str = "auto") -> Index:
    """Build an index over ``table.column`` of the requested kind.

    ``"auto"`` picks sorted for numeric/boolean columns and hash for
    strings.  Raises :class:`~repro.errors.SchemaError` for unknown
    columns and :class:`~repro.errors.TableError` for invalid kinds.
    """
    col = table.column(column)
    if kind == "auto":
        kind = "hash" if col.kind == "str" else "sorted"
    if kind == "sorted":
        return SortedIndex(col, column)
    if kind == "hash":
        return HashIndex(col, column)
    raise TableError(f"unknown index kind {kind!r}; expected one of {INDEX_KINDS} or 'auto'")
