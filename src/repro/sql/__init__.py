"""A mini SQL engine over :mod:`repro.table` tables.

This is the in-repo stand-in for Google BigQuery, which the paper used to
collect block data.  It executes a useful subset of SQL — ``SELECT`` with
expressions, ``WHERE``, ``JOIN ... ON``, ``GROUP BY``/``HAVING``,
``ORDER BY``, ``LIMIT``/``OFFSET``, ``DISTINCT`` and the standard
aggregates — against an in-memory catalog of tables.

Example
-------
>>> from repro.sql import query
>>> from repro.table import Table
>>> blocks = Table({"miner": ["a", "b", "a"], "height": [1, 2, 3]})
>>> query(
...     "SELECT miner, COUNT(*) AS n FROM blocks GROUP BY miner ORDER BY n DESC",
...     blocks=blocks,
... ).to_rows()
[{'miner': 'a', 'n': 2}, {'miner': 'b', 'n': 1}]
"""

from repro.sql.analyze import PlanNode, format_plan
from repro.sql.cost import PlannerOptions
from repro.sql.executor import QueryEngine, query
from repro.sql.lexer import tokenize
from repro.sql.parser import parse
from repro.sql.planner import PhysicalPlan, optimize

__all__ = [
    "PhysicalPlan",
    "PlanNode",
    "PlannerOptions",
    "QueryEngine",
    "format_plan",
    "optimize",
    "parse",
    "query",
    "tokenize",
]
