"""A small numpy-backed columnar table engine.

This package is the relational substrate of the reproduction: the pandas
stand-in that the chain datasets, the SQL engine and the measurement
pipeline all run on.  It supports the operations the study needs —
filter, select, sort, group-by with aggregation, concatenation and
CSV/JSONL round-trips — over four column kinds (int64, float64, bool,
str).  Joins are the SQL engine's (:mod:`repro.sql`).

Example
-------
>>> from repro.table import Table
>>> t = Table({"miner": ["a", "b", "a"], "blocks": [3, 1, 2]})
>>> t.group_by("miner").aggregate(total=("blocks", "sum")).sort_by("miner").to_rows()
[{'miner': 'a', 'total': 5}, {'miner': 'b', 'total': 1}]
"""

from repro.table.aggregates import AGGREGATE_NAMES, aggregate_array
from repro.table.column import Column, infer_kind
from repro.table.expressions import col, lit
from repro.table.index import HashIndex, SortedIndex, build_index
from repro.table.io import (
    read_csv,
    read_jsonl,
    write_csv,
    write_jsonl,
)
from repro.table.schema import Schema
from repro.table.stats import ColumnStatistics, TableStatistics, collect_statistics
from repro.table.table import GroupBy, Table, concat

__all__ = [
    "AGGREGATE_NAMES",
    "Column",
    "ColumnStatistics",
    "GroupBy",
    "HashIndex",
    "Schema",
    "SortedIndex",
    "Table",
    "TableStatistics",
    "aggregate_array",
    "build_index",
    "col",
    "collect_statistics",
    "concat",
    "infer_kind",
    "lit",
    "read_csv",
    "read_jsonl",
    "write_csv",
    "write_jsonl",
]
