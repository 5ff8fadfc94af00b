"""The :class:`Table` — an immutable columnar relation.

Tables are dictionaries of equal-length :class:`~repro.table.column.Column`
objects.  All operations return new tables; the underlying numpy arrays are
shared where possible, so ``select``/``rename`` are O(1) and ``filter``/
``sort_by`` are O(n).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError, TableError
from repro.table.aggregates import aggregate_array, factorize, grouped_aggregate
from repro.table.column import Column
from repro.table.schema import Schema


class Table:
    """An immutable, ordered collection of equal-length named columns."""

    __slots__ = ("_columns", "_names", "_stats")

    def __init__(self, columns: Mapping[str, Any] | None = None) -> None:
        self._columns: dict[str, Column] = {}
        self._names: tuple[str, ...] = ()
        self._stats: Any = None
        if not columns:
            return
        names: list[str] = []
        length: int | None = None
        for name, values in columns.items():
            column = values if isinstance(values, Column) else Column(values)
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise TableError(
                    f"column {name!r} has length {len(column)}, expected {length}"
                )
            if name in self._columns:
                raise SchemaError(f"duplicate column name: {name!r}")
            self._columns[name] = column
            names.append(name)
        self._names = tuple(names)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(
        cls, rows: Iterable[Mapping[str, Any]], columns: Sequence[str] | None = None
    ) -> "Table":
        """Build a table from an iterable of row dicts.

        Column order is taken from ``columns`` if given, else from the first
        row.  Every row must supply every column.
        """
        rows = list(rows)
        if not rows:
            return cls({name: [] for name in columns} if columns else None)
        names = list(columns) if columns is not None else list(rows[0].keys())
        data: dict[str, list[Any]] = {name: [] for name in names}
        for i, row in enumerate(rows):
            for name in names:
                if name not in row:
                    raise TableError(f"row {i} is missing column {name!r}")
                data[name].append(row[name])
        return cls(data)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """Return a zero-row table with the given schema."""
        return cls({name: Column([], kind) for name, kind in schema})

    # -- basic accessors ----------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Number of rows (0 for a column-less table)."""
        if not self._names:
            return 0
        return len(self._columns[self._names[0]])

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._names)

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in table order."""
        return self._names

    @property
    def schema(self) -> Schema:
        """The table's :class:`Schema`."""
        return Schema((name, self._columns[name].kind) for name in self._names)

    def column(self, name: str) -> Column:
        """Return the named column; raise :class:`SchemaError` if absent."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"no such column: {name!r}") from None

    def __getitem__(self, name: str) -> np.ndarray:
        """Return the named column's underlying array (shared, do not mutate)."""
        return self.column(name).values

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self.num_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self._names != other._names:
            return False
        return all(self._columns[n] == other._columns[n] for n in self._names)

    def __repr__(self) -> str:
        return f"Table(rows={self.num_rows}, columns={list(self._names)})"

    def to_rows(self) -> list[dict[str, Any]]:
        """Materialize the table as a list of row dicts (small tables only)."""
        lists = {name: self._columns[name].to_list() for name in self._names}
        return [
            {name: lists[name][i] for name in self._names} for i in range(self.num_rows)
        ]

    def row(self, index: int) -> dict[str, Any]:
        """Return row ``index`` as a dict."""
        if not -self.num_rows <= index < self.num_rows:
            raise TableError(f"row index {index} out of range for {self.num_rows} rows")
        return {name: self._columns[name].to_list()[index] for name in self._names}

    # -- projection ---------------------------------------------------------

    def select(self, names: Sequence[str]) -> "Table":
        """Return a table with only ``names``, in the given order."""
        return Table({name: self.column(name) for name in names})

    def drop(self, names: Sequence[str]) -> "Table":
        """Return a table without the given columns."""
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise SchemaError(f"no such column(s): {missing}")
        keep = [n for n in self._names if n not in set(names)]
        return self.select(keep)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Return a table with columns renamed per ``mapping``."""
        for old in mapping:
            if old not in self._columns:
                raise SchemaError(f"no such column: {old!r}")
        return Table(
            {mapping.get(name, name): self._columns[name] for name in self._names}
        )

    def with_column(self, name: str, values: Any) -> "Table":
        """Return a table with column ``name`` added or replaced."""
        column = values if isinstance(values, Column) else Column(values)
        if self._names and len(column) != self.num_rows:
            raise TableError(
                f"new column {name!r} has length {len(column)}, expected {self.num_rows}"
            )
        data = {n: self._columns[n] for n in self._names}
        data[name] = column
        return Table(data)

    # -- row selection ------------------------------------------------------

    def filter(self, mask: Any) -> "Table":
        """Return rows where boolean ``mask`` is true.

        ``mask`` may be a boolean array or a callable mapping this table to
        one (e.g. ``lambda t: t["height"] > 100``).
        """
        if callable(mask):
            mask = mask(self)
        mask = np.asarray(mask)
        if mask.dtype != np.bool_:
            raise TableError(f"filter mask must be boolean, got dtype {mask.dtype}")
        if mask.shape != (self.num_rows,):
            raise TableError(
                f"filter mask has shape {mask.shape}, expected ({self.num_rows},)"
            )
        return self.take(np.flatnonzero(mask))

    def take(self, indices: Any) -> "Table":
        """Return rows picked by integer ``indices`` (duplicates allowed)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Table({name: self._columns[name].take(indices) for name in self._names})

    def slice(self, start: int, stop: int | None = None) -> "Table":
        """Return rows ``[start, stop)`` (numpy slicing semantics)."""
        sl = slice(start, stop)
        return Table({name: self._columns[name].take(sl) for name in self._names})

    def head(self, n: int = 10) -> "Table":
        """Return the first ``n`` rows."""
        return self.slice(0, max(n, 0))

    # -- ordering -----------------------------------------------------------

    def sort_by(
        self,
        keys: str | Sequence[str],
        descending: bool | Sequence[bool] = False,
    ) -> "Table":
        """Return rows sorted by one or more key columns (stable).

        ``descending`` may be a single flag or one flag per key.
        """
        key_names = [keys] if isinstance(keys, str) else list(keys)
        if not key_names:
            raise TableError("sort_by requires at least one key")
        if isinstance(descending, bool):
            flags = [descending] * len(key_names)
        else:
            flags = list(descending)
            if len(flags) != len(key_names):
                raise TableError("descending flags must match the number of keys")
        codes = []
        for name, desc in zip(key_names, flags):
            code = _dense_codes(self.column(name).values)
            codes.append(-code if desc else code)
        # np.lexsort is stable and treats the LAST key as primary.
        order = np.lexsort(list(reversed(codes)))
        return self.take(order)

    # -- grouping -----------------------------------------------------------

    def group_by(self, keys: str | Sequence[str]) -> "GroupBy":
        """Start a grouped aggregation over one or more key columns."""
        key_names = [keys] if isinstance(keys, str) else list(keys)
        if not key_names:
            raise TableError("group_by requires at least one key")
        for name in key_names:
            self.column(name)
        return GroupBy(self, key_names)

    def distinct(self, keys: str | Sequence[str] | None = None) -> "Table":
        """Return the first row of each distinct key combination."""
        key_names = list(self._names) if keys is None else (
            [keys] if isinstance(keys, str) else list(keys)
        )
        _, _, first_rows = _group_ids(self, key_names)
        return self.take(first_rows)

    def value_counts(self, key: str) -> "Table":
        """Return ``key`` values with their row counts, most frequent first."""
        return (
            self.group_by(key)
            .aggregate(count=(key, "count"))
            .sort_by(["count", key], descending=[True, False])
        )

    # -- scalar aggregation ---------------------------------------------------

    def aggregate_scalar(self, column: str, func: str) -> Any:
        """Reduce one column to a scalar (e.g. ``t.aggregate_scalar("n", "sum")``)."""
        return aggregate_array(self.column(column).values, func)

    def statistics(self, refresh: bool = False) -> Any:
        """Return cached :class:`~repro.table.stats.TableStatistics` for this table.

        The first call scans every column; tables are immutable, so the
        snapshot is cached on the instance.  ``refresh=True`` forces a
        re-collection (e.g. after tuning the most-common-value budget).
        """
        if self._stats is None or refresh:
            from repro.table.stats import collect_statistics

            self._stats = collect_statistics(self)
        return self._stats

    def describe(self) -> "Table":
        """Per-column summary: kind, count, distinct, and numeric stats.

        Numeric columns report min/mean/max; string and boolean columns
        leave those cells NaN.
        """
        rows = []
        for name in self._names:
            column = self._columns[name]
            values = column.values
            record: dict[str, Any] = {
                "column": name,
                "kind": column.kind,
                "count": len(column),
                "distinct": aggregate_array(values, "count_distinct"),
            }
            if column.kind in ("int", "float") and len(column):
                record["min"] = float(values.min())
                record["mean"] = float(values.mean())
                record["max"] = float(values.max())
            else:
                record["min"] = float("nan")
                record["mean"] = float("nan")
                record["max"] = float("nan")
            rows.append(record)
        return Table.from_rows(
            rows, columns=["column", "kind", "count", "distinct", "min", "mean", "max"]
        )


def concat(tables: Sequence[Table]) -> Table:
    """Concatenate tables with identical schemas row-wise."""
    tables = [t for t in tables]
    if not tables:
        raise TableError("concat requires at least one table")
    schema = tables[0].schema
    for t in tables[1:]:
        if t.schema != schema:
            raise TableError(f"schema mismatch in concat: {t.schema} vs {schema}")
    data: dict[str, Column] = {}
    for name, kind in schema:
        arrays = [t.column(name).values for t in tables]
        data[name] = Column(np.concatenate(arrays), kind)
    return Table(data)


class GroupBy:
    """Deferred grouped aggregation returned by :meth:`Table.group_by`."""

    def __init__(self, table: Table, keys: list[str]) -> None:
        self._table = table
        self._keys = keys

    def aggregate(self, **specs: tuple[str, str]) -> Table:
        """Aggregate each group.

        Each keyword is an output column mapped to ``(input_column, func)``:

        >>> t.group_by("miner").aggregate(blocks=("height", "count"))  # doctest: +SKIP
        """
        if not specs:
            raise TableError("aggregate requires at least one output column")
        table = self._table
        ids, n_groups, first_rows = _group_ids(table, self._keys)
        data = {key: table.column(key).take(first_rows) for key in self._keys}
        for out_name, (in_name, func) in specs.items():
            values = table.column(in_name).values
            result = grouped_aggregate(values, ids, n_groups, func)
            data[out_name] = Column(result)
        return Table(data)

    def apply(self, func: Callable[[Table], Any], output: str = "value") -> Table:
        """Apply ``func`` to each group's sub-table; collect scalars.

        Slower than :meth:`aggregate` (Python loop over groups) but fully
        general — used for metric computations over grouped block data.
        """
        table = self._table
        ids, n_groups, first_rows = _group_ids(table, self._keys)
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        boundaries = np.searchsorted(sorted_ids, np.arange(n_groups + 1))
        data = {key: table.column(key).take(first_rows) for key in self._keys}
        results = []
        for gid in range(n_groups):
            rows = order[boundaries[gid] : boundaries[gid + 1]]
            results.append(func(table.take(rows)))
        data[output] = Column(results)
        return Table(data)


def _dense_codes(values: np.ndarray) -> np.ndarray:
    """Map values to dense int codes that preserve ``<`` ordering.

    Equal values receive equal codes, so a lexsort over the codes is stable
    across tie groups.
    """
    if values.dtype == object:
        distinct = sorted(set(values.tolist()))
        mapping = {value: code for code, value in enumerate(distinct)}
        return np.asarray([mapping[v] for v in values], dtype=np.int64)
    _, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64)


def _group_ids(table: Table, keys: list[str]) -> tuple[np.ndarray, int, np.ndarray]:
    """:func:`~repro.table.aggregates.factorize` over key columns (codes when encoded)."""
    if table.num_rows == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, 0, empty
    columns = [table.column(key) for key in keys]
    return factorize([c.values if c.codes is None else c.codes for c in columns])
