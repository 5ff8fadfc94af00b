"""Cost model for the SQL optimizer.

Three concerns live here:

- :class:`PlannerOptions` — per-strategy toggles in the style of the
  DevilsDatabase planner (``index_join`` / ``sort_merge_join`` /
  ``hash_join``), plus pushdown switches.  Disabling every join strategy
  falls back to hash join, which is always executable.
- :func:`selectivity` — estimated fraction of rows a predicate keeps,
  backed by :class:`~repro.table.stats.ColumnStatistics` when available
  and System-R-style default fractions otherwise.
- Join costing — :func:`choose_join_strategy` prices hash, sort-merge and
  index nested-loop joins in abstract per-row units and picks the
  cheapest enabled strategy (ties broken deterministically in the order
  hash, index, sort-merge).

Costs are relative, not wall-clock predictions: what matters is the
ordering between strategies, e.g. an index nested-loop join wins when the
probe side is much smaller than the indexed side.  The strategies run
one vectorized kernel (``repro.sql.executor._equi_join``).  Hash and
sort-merge execute identically: sort the right keys, then binary-search
every left key, so between those two the choice sets only the plan's
label and cost.  An index join never reads the indexed side in full: it
binary-searches a sorted index's presorted keys, or looks up a hash
index's buckets once per distinct left key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable

from repro.sql.astnodes import (
    Between,
    Binary,
    ColumnRef,
    Expr,
    InList,
    IsNull,
    Literal,
    Unary,
)
from repro.table.stats import (
    DEFAULT_BETWEEN_SELECTIVITY,
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_ISNULL_SELECTIVITY,
    DEFAULT_LIKE_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    DEFAULT_SELECTIVITY,
    ColumnStatistics,
)

#: CLI-facing toggle names mapped to :class:`PlannerOptions` fields.
TOGGLE_NAMES = {
    "index-scan": "index_scan",
    "index-join": "index_join",
    "hash-join": "hash_join",
    "sort-merge-join": "sort_merge_join",
    "predicate-pushdown": "predicate_pushdown",
    "projection-pushdown": "projection_pushdown",
}

_RANGE_OPS = ("<", "<=", ">", ">=")
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class PlannerOptions:
    """Optimizer feature toggles; everything is on by default."""

    index_scan: bool = True
    index_join: bool = True
    hash_join: bool = True
    sort_merge_join: bool = True
    predicate_pushdown: bool = True
    projection_pushdown: bool = True

    @classmethod
    def with_disabled(cls, names: Iterable[str]) -> "PlannerOptions":
        """Build options with the named toggles off.

        Accepts CLI spellings (``"index-scan"``) and field names
        (``"index_scan"``); unknown names raise :class:`ValueError`.
        """
        valid = {f.name for f in fields(cls)}
        off: dict[str, bool] = {}
        for name in names:
            key = TOGGLE_NAMES.get(name, name)
            if key not in valid:
                known = ", ".join(sorted(TOGGLE_NAMES))
                raise ValueError(f"unknown planner toggle {name!r}; known: {known}")
            off[key] = False
        return cls(**off)


StatsLookup = Callable[[ColumnRef], "ColumnStatistics | None"]


def selectivity(expr: Expr, stats_for: StatsLookup) -> float:
    """Estimated fraction of rows for which ``expr`` is true.

    ``stats_for`` maps a column reference to its statistics (or None when
    the table was never analyzed); conjunctions multiply, disjunctions
    use inclusion-exclusion, and everything is clamped to [0, 1].
    """
    if isinstance(expr, Binary):
        if expr.op == "AND":
            return _clamp(selectivity(expr.left, stats_for) * selectivity(expr.right, stats_for))
        if expr.op == "OR":
            s1 = selectivity(expr.left, stats_for)
            s2 = selectivity(expr.right, stats_for)
            return _clamp(s1 + s2 - s1 * s2)
        pair = _column_literal(expr.left, expr.right)
        if expr.op == "=":
            if pair is None:
                return DEFAULT_EQ_SELECTIVITY
            ref, value, _ = pair
            stats = stats_for(ref)
            return stats.eq_selectivity(value) if stats else DEFAULT_EQ_SELECTIVITY
        if expr.op == "!=":
            inverse = selectivity(Binary("=", expr.left, expr.right), stats_for)
            return _clamp(1.0 - inverse)
        if expr.op in _RANGE_OPS:
            if pair is None:
                return DEFAULT_RANGE_SELECTIVITY
            ref, value, flipped = pair
            op = _FLIPPED[expr.op] if flipped else expr.op
            stats = stats_for(ref)
            return stats.range_selectivity(op, value) if stats else DEFAULT_RANGE_SELECTIVITY
        if expr.op == "LIKE":
            return DEFAULT_LIKE_SELECTIVITY
        return DEFAULT_SELECTIVITY
    if isinstance(expr, Unary) and expr.op == "NOT":
        return _clamp(1.0 - selectivity(expr.operand, stats_for))
    if isinstance(expr, Between):
        estimate = _between_selectivity(expr, stats_for)
        return _clamp(1.0 - estimate) if expr.negated else estimate
    if isinstance(expr, InList):
        estimate = _in_list_selectivity(expr, stats_for)
        return _clamp(1.0 - estimate) if expr.negated else estimate
    if isinstance(expr, IsNull):
        estimate = _is_null_selectivity(expr, stats_for)
        return _clamp(1.0 - estimate) if expr.negated else estimate
    if isinstance(expr, Literal):
        if expr.value is True:
            return 1.0
        if expr.value is False:
            return 0.0
    return DEFAULT_SELECTIVITY


def _between_selectivity(expr: Between, stats_for: StatsLookup) -> float:
    if (
        isinstance(expr.operand, ColumnRef)
        and isinstance(expr.low, Literal)
        and isinstance(expr.high, Literal)
    ):
        stats = stats_for(expr.operand)
        if stats is not None:
            below_high = stats.range_selectivity("<=", expr.high.value)
            below_low = stats.range_selectivity("<", expr.low.value)
            return _clamp(below_high - below_low)
    return DEFAULT_BETWEEN_SELECTIVITY


def _in_list_selectivity(expr: InList, stats_for: StatsLookup) -> float:
    if isinstance(expr.operand, ColumnRef) and all(
        isinstance(item, Literal) for item in expr.items
    ):
        stats = stats_for(expr.operand)
        if stats is not None:
            return _clamp(
                sum(stats.eq_selectivity(item.value) for item in expr.items)  # type: ignore[union-attr]
            )
    return _clamp(DEFAULT_EQ_SELECTIVITY * len(expr.items))


def _is_null_selectivity(expr: IsNull, stats_for: StatsLookup) -> float:
    if isinstance(expr.operand, ColumnRef):
        stats = stats_for(expr.operand)
        if stats is not None:
            return _clamp(stats.null_fraction)
    return DEFAULT_ISNULL_SELECTIVITY


def _column_literal(left: Expr, right: Expr) -> tuple[ColumnRef, object, bool] | None:
    """Match ``col <op> literal`` or ``literal <op> col`` (flipped=True)."""
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return left, right.value, False
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        return right, left.value, True
    return None


def _clamp(value: float) -> float:
    return min(max(float(value), 0.0), 1.0)


# -- join costing -------------------------------------------------------------


def cost_hash_join(left_rows: int, right_rows: int) -> float:
    """Hash join's price: one pass over the right keys to build, one over the left to probe."""
    return 1.2 * right_rows + 1.0 * left_rows


def cost_sort_merge_join(left_rows: int, right_rows: int) -> float:
    """Sort-merge's price: sort both inputs, then merge them in one pass."""
    return (
        1.5 * (left_rows + right_rows)
        + 0.1 * (left_rows * math.log2(left_rows + 2) + right_rows * math.log2(right_rows + 2))
    )


def cost_index_join(left_rows: int, right_rows: int, index_kind: str) -> float:
    """Index join's price: probe an existing right-side index per left row
    (a hash index once per distinct key), never reading the indexed side."""
    per_lookup = 3.0 if index_kind == "hash" else 2.0 + 0.2 * math.log2(right_rows + 2)
    return per_lookup * left_rows


def choose_join_strategy(
    options: PlannerOptions,
    left_rows: int,
    right_rows: int,
    index_kind: str | None = None,
) -> tuple[str, float]:
    """Pick the cheapest enabled join strategy.

    ``index_kind`` is the kind of an index on the right join key (or None
    when index nested-loop is not executable).  Returns ``(strategy,
    cost)`` with strategy one of ``"hash"``, ``"index"``,
    ``"sort_merge"``; when every strategy is toggled off, hash join is
    the universal fallback.
    """
    candidates: list[tuple[float, int, str]] = []
    if options.hash_join:
        candidates.append((cost_hash_join(left_rows, right_rows), 0, "hash"))
    if options.index_join and index_kind is not None:
        candidates.append((cost_index_join(left_rows, right_rows, index_kind), 1, "index"))
    if options.sort_merge_join:
        candidates.append((cost_sort_merge_join(left_rows, right_rows), 2, "sort_merge"))
    if not candidates:
        return "hash", cost_hash_join(left_rows, right_rows)
    cost, _, strategy = min(candidates)
    return strategy, cost


def estimate_join_rows(
    left_rows: int,
    right_rows: int,
    kind: str,
    left_distinct: int | None = None,
    right_distinct: int | None = None,
) -> int:
    """|L ⋈ R| ≈ |L|·|R| / max(d_left, d_right); LEFT JOIN keeps all of L."""
    if left_rows == 0 or (right_rows == 0 and kind != "left"):
        return left_rows if kind == "left" else 0
    distincts = [d for d in (left_distinct, right_distinct) if d]
    denominator = max(distincts) if distincts else max(left_rows, right_rows, 1)
    estimate = left_rows * right_rows / denominator
    if kind == "left":
        estimate = max(estimate, left_rows)
    return max(int(round(estimate)), 0)
