"""ANALYZE-style table statistics for cost-based query planning.

:func:`collect_statistics` walks a :class:`~repro.table.Table` once and
produces a :class:`TableStatistics` — row count plus, per column, the
distinct count, null count, numeric min/max, and the top most-common
values with their frequencies.  The SQL optimizer uses these to estimate
predicate selectivity and join cardinality; tables without statistics
fall back to the System-R-style default fractions below.

Statistics are a snapshot: they describe the table object they were
collected from.  The query engine tracks which table object each snapshot
was taken from to detect staleness after a table is replaced; estimates
are ratios (selectivities, null fractions) rather than absolute counts,
so stale statistics degrade gracefully against new row counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.table.table import Table

#: Default selectivity fractions used when statistics cannot answer.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 0.3
DEFAULT_BETWEEN_SELECTIVITY = 0.25
DEFAULT_LIKE_SELECTIVITY = 0.25
DEFAULT_ISNULL_SELECTIVITY = 0.05
DEFAULT_SELECTIVITY = 0.33

#: How many most-common values to keep per column.
DEFAULT_MOST_COMMON = 10


@dataclass(frozen=True)
class ColumnStatistics:
    """Distribution summary of one column."""

    name: str
    kind: str
    n_rows: int
    n_null: int
    n_distinct: int
    min_value: float | None = None
    max_value: float | None = None
    most_common: tuple[tuple[Any, int], ...] = field(default_factory=tuple)
    #: ``most_common`` as a value -> count map, built once with the snapshot.
    _mcv_counts: dict[Any, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        counts: dict[Any, int] = {}
        for value, count in self.most_common:
            counts.setdefault(value, count)
        object.__setattr__(self, "_mcv_counts", counts)

    @property
    def null_fraction(self) -> float:
        """Fraction of rows that are NULL (None or NaN)."""
        return self.n_null / self.n_rows if self.n_rows else 0.0

    @property
    def mcv_rows(self) -> int:
        """Rows covered by the recorded most-common values."""
        return sum(count for _, count in self.most_common)

    def mcv_count(self, value: Any) -> int | None:
        """Rows holding ``value`` if it is a most-common value, else None.

        One dict lookup with SQL ``=`` semantics across numeric scalars
        (``1``, ``1.0`` and ``TRUE`` are one value; a string equals no
        number).  NULL and NaN are never most-common values.
        """
        try:
            return self._mcv_counts.get(value)
        except TypeError:  # unhashable: equal to no recorded scalar
            return None

    def eq_selectivity(self, value: Any) -> float:
        """Estimated fraction of rows where ``column = value``."""
        if self.n_rows == 0 or value is None:
            return 0.0
        if isinstance(value, float) and np.isnan(value):
            return 0.0
        count = self.mcv_count(value)
        if count is not None:
            return _clamp(count / self.n_rows)
        if self.kind in ("int", "float") and self.min_value is not None:
            if not isinstance(value, (bool, str)) and (
                value < self.min_value or value > self.max_value
            ):
                return 0.0
        rest_distinct = self.n_distinct - len(self.most_common)
        if rest_distinct <= 0:
            # Every distinct value is in the MCV list and this one is not.
            return 0.0
        rest_rows = max(self.n_rows - self.n_null - self.mcv_rows, 0)
        return _clamp(rest_rows / rest_distinct / self.n_rows)

    def range_selectivity(self, op: str, value: Any) -> float:
        """Estimated fraction of rows where ``column <op> value``."""
        if self.n_rows == 0:
            return 0.0
        if (
            self.kind not in ("int", "float")
            or self.min_value is None
            or self.max_value is None
            or isinstance(value, (bool, str))
            or value is None
            or (isinstance(value, float) and np.isnan(value))
        ):
            return DEFAULT_RANGE_SELECTIVITY
        non_null = 1.0 - self.null_fraction
        span = self.max_value - self.min_value
        if span <= 0:
            point = self.min_value
            satisfied = {
                "<": value > point,
                "<=": value >= point,
                ">": value < point,
                ">=": value <= point,
            }[op]
            return _clamp(non_null if satisfied else 0.0)
        below = _clamp((float(value) - self.min_value) / span)
        if op in ("<", "<="):
            return _clamp(below * non_null)
        return _clamp((1.0 - below) * non_null)


@dataclass(frozen=True)
class TableStatistics:
    """Statistics for a whole table, keyed by column name."""

    row_count: int
    columns: Mapping[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStatistics | None:
        """Statistics for ``name``, or None if the column is unknown."""
        return self.columns.get(name)


def collect_statistics(table: Table, most_common: int = DEFAULT_MOST_COMMON) -> TableStatistics:
    """Scan ``table`` and build a :class:`TableStatistics` snapshot."""
    columns: dict[str, ColumnStatistics] = {}
    for name in table.column_names:
        columns[name] = _column_statistics(table, name, most_common)
    return TableStatistics(row_count=table.num_rows, columns=columns)


def _column_statistics(table: Table, name: str, most_common: int) -> ColumnStatistics:
    column = table.column(name)
    values = column.values
    n_rows = len(column)
    if n_rows == 0:
        return ColumnStatistics(name=name, kind=column.kind, n_rows=0, n_null=0, n_distinct=0)
    if column.codes is not None:
        return _encoded_statistics(name, column.codes, column.categories, most_common)
    if column.kind == "str":
        return _object_statistics(name, column.kind, values, most_common)
    if column.kind == "float":
        null_mask = np.isnan(values)
        valid = values[~null_mask]
        n_null = int(null_mask.sum())
    else:
        valid = values
        n_null = 0
    if valid.size == 0:
        return ColumnStatistics(
            name=name, kind=column.kind, n_rows=n_rows, n_null=n_null, n_distinct=0
        )
    distinct, counts = _distinct_counts(valid, column.kind)
    mcv = _top_values(distinct, counts, most_common)
    if column.kind == "bool":
        min_value = max_value = None
    else:
        min_value = float(valid.min())
        max_value = float(valid.max())
    return ColumnStatistics(
        name=name,
        kind=column.kind,
        n_rows=n_rows,
        n_null=n_null,
        n_distinct=int(distinct.size),
        min_value=min_value,
        max_value=max_value,
        most_common=mcv,
    )


def _object_statistics(
    name: str, kind: str, values: np.ndarray, most_common: int
) -> ColumnStatistics:
    counts: dict[Any, int] = {}
    n_null = 0
    for value in values:
        if value is None:
            n_null += 1
        else:
            counts[value] = counts.get(value, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ColumnStatistics(
        name=name,
        kind=kind,
        n_rows=len(values),
        n_null=n_null,
        n_distinct=len(counts),
        most_common=tuple((v, int(c)) for v, c in ranked[:most_common]),
    )


def _encoded_statistics(
    name: str, codes: np.ndarray, categories: np.ndarray, most_common: int
) -> ColumnStatistics:
    """:func:`_object_statistics` of ``categories[codes]``, counted on the codes."""
    counts = np.bincount(codes, minlength=len(categories)).tolist()
    present = [code for code, count in enumerate(counts) if count]
    ranked = sorted(present, key=lambda code: (-counts[code], categories[code]))
    return ColumnStatistics(
        name=name,
        kind="str",
        n_rows=len(codes),
        n_null=0,
        n_distinct=len(present),
        most_common=tuple((categories[c], counts[c]) for c in ranked[:most_common]),
    )


def _distinct_counts(valid: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(valid, return_counts=True)``, without the sort when an int
    column is already non-decreasing (a chain's heights and timestamps).

    Ints only: for floats ``-0.0 == 0.0``, so a run's first value could differ
    from the representative ``np.unique`` picks.
    """
    if kind == "int" and bool(np.all(valid[1:] >= valid[:-1])):
        starts = np.flatnonzero(np.concatenate(([True], valid[1:] != valid[:-1])))
        return valid[starts], np.diff(np.append(starts, valid.size))
    return np.unique(valid, return_counts=True)


def _top_values(
    distinct: np.ndarray, counts: np.ndarray, most_common: int
) -> tuple[tuple[Any, int], ...]:
    """Top-k (value, count) pairs: highest count first, value ascending on ties.

    ``distinct`` comes from :func:`_distinct_counts` so it is already
    value-ascending; a stable sort on descending count preserves that tie
    order.
    """
    order = np.argsort(-counts, kind="stable")[:most_common]
    return tuple((distinct[i].item(), int(counts[i])) for i in order)


def _clamp(value: float) -> float:
    return min(max(float(value), 0.0), 1.0)
