"""Aggregate functions over arrays, whole-column and grouped.

Three entry points:

* :func:`factorize` — number the rows' key combinations by first
  appearance (the group ids every grouped operator uses).
* :func:`aggregate_array` — reduce one array to a scalar.
* :func:`grouped_aggregate` — reduce one array per group, given a group-id
  vector, using vectorized numpy segment operations (no Python loop over
  groups for the numeric aggregates).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import TableError

#: Names accepted by ``Table.group_by(...).aggregate`` and the SQL engine.
AGGREGATE_NAMES = (
    "count",
    "count_distinct",
    "sum",
    "mean",
    "avg",
    "min",
    "max",
    "std",
    "var",
    "median",
    "first",
    "last",
)


#: Integer arrays whose values lie in ``[0, max(rows, this))`` count as
#: dense codes: kernels index an array of that length instead of sorting.
_DENSE_FLOOR = 1 << 16


def factorize(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, int, np.ndarray]:
    """Group ids for the rows of ``keys`` (equal-length key columns).

    Returns ``(group_ids, n_groups, first_rows)``: groups are numbered in
    order of first appearance and ``first_rows[g]`` is group ``g``'s first
    row, so ``first_rows`` is ascending.  One key of dense non-negative
    integers (dictionary codes) is numbered with ``np.minimum.at``, other
    numeric keys through ``np.unique`` (NaNs form one group), and string
    or multi-column keys through a dict over their Python values.
    """
    n_rows = len(keys[0])
    if n_rows == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, 0, empty
    if len(keys) == 1 and keys[0].dtype != object:
        codes = keys[0]
        span = _dense_span(codes, n_rows)
        if span is None:
            distinct, codes = np.unique(codes, return_inverse=True)
            span = len(distinct)
        return _by_first_appearance(codes, span)
    ids, n_groups = _factorize_dict(keys)
    return _by_first_appearance(ids, n_groups)


def _dense_span(values: np.ndarray, budget: int) -> int | None:
    """``max + 1`` of non-negative integer ``values`` if it is within
    ``max(budget, _DENSE_FLOOR)``; None for anything else."""
    if not np.issubdtype(values.dtype, np.integer) or values.size == 0:
        return None
    if values.min() < 0:
        return None
    span = int(values.max()) + 1
    return span if span <= max(budget, _DENSE_FLOOR) else None


def _by_first_appearance(codes: np.ndarray, span: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Renumber codes in ``[0, span)`` by first appearance."""
    n_rows = codes.shape[0]
    first = np.full(span, n_rows, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n_rows, dtype=np.int64))
    present = np.flatnonzero(first < n_rows)
    order = np.argsort(first[present])
    remap = np.empty(span, dtype=np.int64)
    remap[present[order]] = np.arange(present.size, dtype=np.int64)
    return remap[codes], int(present.size), first[present[order]]


def _factorize_dict(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
    """First-appearance ids of string or multi-column keys, through a dict."""
    if len(keys) == 1:
        items = keys[0].tolist()
    else:
        items = list(zip(*(key.tolist() for key in keys)))
    mapping: dict[Any, int] = {}
    ids = np.fromiter(
        (mapping.setdefault(item, len(mapping)) for item in items),
        dtype=np.int64,
        count=len(items),
    )
    return ids, len(mapping)


def aggregate_array(values: np.ndarray, func: str) -> Any:
    """Reduce ``values`` (a 1-D array) to a scalar with aggregate ``func``."""
    func = _canonical(func)
    if func == "count":
        return int(values.shape[0])
    if func == "count_distinct":
        if values.dtype == object:
            return len(set(values.tolist()))
        return int(np.unique(values).shape[0])
    if values.shape[0] == 0:
        return None
    if func == "first":
        return _scalar(values[0])
    if func == "last":
        return _scalar(values[-1])
    if values.dtype == object:
        if func in ("min", "max"):
            reducer = min if func == "min" else max
            return reducer(values.tolist())
        raise TableError(f"aggregate {func!r} is not defined for string columns")
    if func == "sum":
        return _scalar(values.sum())
    if func == "mean":
        return float(values.mean())
    if func == "min":
        return _scalar(values.min())
    if func == "max":
        return _scalar(values.max())
    if func == "std":
        return float(values.std(ddof=0))
    if func == "var":
        return float(values.var(ddof=0))
    if func == "median":
        return float(np.median(values))
    raise TableError(f"unknown aggregate function: {func!r}")


def grouped_aggregate(
    values: np.ndarray,
    group_ids: np.ndarray,
    n_groups: int,
    func: str,
) -> np.ndarray:
    """Reduce ``values`` per group.

    ``group_ids`` assigns each row to a group in ``[0, n_groups)``; the
    result has one entry per group, in group-id order.  Empty groups (ids
    that never occur) yield 0 for ``count``/``sum`` and NaN/None otherwise.
    """
    func = _canonical(func)
    if values.shape[0] != group_ids.shape[0]:
        raise TableError("values and group_ids must have equal length")
    if func == "count_distinct":
        return _grouped_count_distinct(values, group_ids, n_groups)
    counts = np.bincount(group_ids, minlength=n_groups)
    if func == "count":
        return counts.astype(np.int64)
    if values.dtype == object or func in ("median", "first", "last", "min", "max"):
        return _grouped_via_sort(values, group_ids, n_groups, func, counts)
    floats = values.astype(np.float64)
    sums = np.bincount(group_ids, weights=floats, minlength=n_groups)
    if func == "sum":
        if np.issubdtype(values.dtype, np.integer):
            return np.bincount(group_ids, weights=floats, minlength=n_groups).astype(np.int64)
        return sums
    safe_counts = np.maximum(counts, 1)
    means = sums / safe_counts
    if func == "mean":
        return np.where(counts > 0, means, np.nan)
    if func in ("std", "var"):
        sq = np.bincount(group_ids, weights=floats * floats, minlength=n_groups)
        variance = np.maximum(sq / safe_counts - means * means, 0.0)
        variance = np.where(counts > 0, variance, np.nan)
        return np.sqrt(variance) if func == "std" else variance
    raise TableError(f"unknown aggregate function: {func!r}")


def _canonical(func: str) -> str:
    name = func.strip().lower()
    if name == "avg":
        return "mean"
    if name not in AGGREGATE_NAMES:
        raise TableError(f"unknown aggregate function: {func!r}")
    return name


def _scalar(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    return value


def _grouped_count_distinct(
    values: np.ndarray, group_ids: np.ndarray, n_groups: int
) -> np.ndarray:
    """Distinct values per group, counted over ``(group, code)`` pairs.

    Dense non-negative integers (dictionary codes) are their own codes;
    other values are coded first.  When every possible pair fits in an
    array of O(rows), a ``bincount`` marks the pairs that occur; otherwise
    the pairs are deduplicated with ``np.unique``.
    """
    n_rows = values.shape[0]
    if n_rows == 0:
        return np.zeros(n_groups, dtype=np.int64)
    if values.dtype == object:
        codes, span = _factorize_dict([values])
    else:
        codes, span = values, _dense_span(values, n_rows)
        if span is None:
            distinct, codes = np.unique(values, return_inverse=True)
            span = len(distinct)
    if n_groups == 1:
        pairs = codes
    else:
        pairs = np.multiply(group_ids, span, dtype=np.int64)
        pairs += codes
    if n_groups * span <= max(n_rows, _DENSE_FLOOR):
        seen = np.bincount(pairs, minlength=n_groups * span) > 0
        return seen.reshape(n_groups, span).sum(axis=1).astype(np.int64)
    owners = np.unique(pairs) // span
    return np.bincount(owners, minlength=n_groups).astype(np.int64)


def _grouped_via_sort(
    values: np.ndarray,
    group_ids: np.ndarray,
    n_groups: int,
    func: str,
    counts: np.ndarray,
) -> np.ndarray:
    """Order-preserving fallback: stable-sort rows by group, slice per group."""
    order = np.argsort(group_ids, kind="stable")
    sorted_values = values[order]
    boundaries = np.concatenate(([0], np.cumsum(counts)))
    is_object = values.dtype == object
    out_dtype = object if is_object else np.float64
    if func in ("first", "last", "min", "max") and not is_object:
        # Empty groups need NaN, which integer arrays cannot hold.
        out_dtype = values.dtype if counts.min(initial=1) > 0 else np.float64
    out = np.empty(n_groups, dtype=out_dtype)
    for gid in range(n_groups):
        start, stop = boundaries[gid], boundaries[gid + 1]
        segment = sorted_values[start:stop]
        if segment.shape[0] == 0:
            out[gid] = None if is_object else np.nan
            continue
        if func == "first":
            out[gid] = segment[0]
        elif func == "last":
            out[gid] = segment[-1]
        elif func == "min":
            out[gid] = min(segment.tolist()) if is_object else segment.min()
        elif func == "max":
            out[gid] = max(segment.tolist()) if is_object else segment.max()
        elif func == "median":
            if is_object:
                raise TableError("median is not defined for string columns")
            out[gid] = float(np.median(segment))
        else:
            raise TableError(f"aggregate {func!r} is not defined for string columns")
    return out
