"""Semantic analysis and cost-based physical planning for parsed queries.

Two layers live here.  The *semantic* planner walks a
:class:`~repro.sql.astnodes.Select` and produces a :class:`QueryPlan` with
everything the executor needs decided up front: whether the query
aggregates, which aggregate nodes occur where, the output column names,
and validation errors surfaced as :class:`SqlPlanError` before any data
is touched.

The *physical* planner (:func:`optimize`) then turns a :class:`QueryPlan`
into a :class:`PhysicalPlan`: per-table access paths (sequential scan vs.
index equality/range scan), predicate and projection pushdown into the
columnar scans, a join strategy per join node (hash / sort-merge / index
nested-loop, priced by :mod:`repro.sql.cost`), and estimated row counts
for every stage — the ``est=`` column of EXPLAIN / EXPLAIN ANALYZE.
Physical planning is purely advisory: the executor produces byte-identical
results with or without a physical plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import SqlPlanError
from repro.sql.astnodes import (
    Aggregate,
    Between,
    Binary,
    Case,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Join,
    Literal,
    Select,
    SelectItem,
    Star,
    SubquerySource,
    TableRef,
    Unary,
)
from repro.sql.cost import (
    PlannerOptions,
    choose_join_strategy,
    estimate_join_rows,
    selectivity,
)
from repro.table.stats import TableStatistics


@dataclass
class QueryPlan:
    """A validated query, ready for execution."""

    select: Select
    is_aggregation: bool
    aggregates: tuple[Aggregate, ...]
    output_names: tuple[str, ...]
    table_names: tuple[str, ...] = field(default_factory=tuple)
    #: The validated plan of each FROM-subquery, by binding.
    subplans: dict[str, QueryPlan] = field(default_factory=dict)


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression, depth-first."""
    yield expr
    if isinstance(expr, Unary):
        yield from walk(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk(expr.left)
        yield from walk(expr.right)
    elif isinstance(expr, Between):
        yield from walk(expr.operand)
        yield from walk(expr.low)
        yield from walk(expr.high)
    elif isinstance(expr, InList):
        yield from walk(expr.operand)
        for item in expr.items:
            yield from walk(item)
    elif isinstance(expr, IsNull):
        yield from walk(expr.operand)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            yield from walk(arg)
    elif isinstance(expr, Aggregate):
        if expr.argument is not None:
            yield from walk(expr.argument)
    elif isinstance(expr, Case):
        for condition, value in expr.whens:
            yield from walk(condition)
            yield from walk(value)
        if expr.default is not None:
            yield from walk(expr.default)


def find_aggregates(expr: Expr) -> list[Aggregate]:
    """Return the aggregate nodes inside ``expr`` (not descending into them)."""
    found: list[Aggregate] = []

    def visit(node: Expr) -> None:
        if isinstance(node, Aggregate):
            found.append(node)
            return
        for child in _direct_children(node):
            visit(child)

    visit(expr)
    return found


def _direct_children(expr: Expr) -> list[Expr]:
    if isinstance(expr, Unary):
        return [expr.operand]
    if isinstance(expr, Binary):
        return [expr.left, expr.right]
    if isinstance(expr, Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, InList):
        return [expr.operand, *expr.items]
    if isinstance(expr, IsNull):
        return [expr.operand]
    if isinstance(expr, FunctionCall):
        return list(expr.args)
    if isinstance(expr, Case):
        children: list[Expr] = []
        for condition, value in expr.whens:
            children.extend((condition, value))
        if expr.default is not None:
            children.append(expr.default)
        return children
    return []


def source_tables(
    source: TableRef | SubquerySource | Join,
) -> list[TableRef | SubquerySource]:
    """Flatten a FROM clause into its sources, left to right."""
    if isinstance(source, (TableRef, SubquerySource)):
        return [source]
    return source_tables(source.left) + [source.right]


def plan(select: Select) -> QueryPlan:
    """Validate ``select`` and produce a :class:`QueryPlan`."""
    tables = source_tables(select.source)
    bindings = [t.binding for t in tables]
    if len(set(bindings)) != len(bindings):
        raise SqlPlanError(f"duplicate table binding in FROM: {bindings}")
    subplans = {  # derived tables are validated eagerly, and planned once
        t.binding: plan(t.select) for t in tables if isinstance(t, SubquerySource)
    }

    if select.where is not None and find_aggregates(select.where):
        raise SqlPlanError("aggregate functions are not allowed in WHERE")
    for expr in select.group_by:
        if find_aggregates(expr):
            raise SqlPlanError("aggregate functions are not allowed in GROUP BY")

    aggregates: list[Aggregate] = []
    if not isinstance(select.items, Star):
        for item in select.items:
            aggregates.extend(find_aggregates(item.expr))
    if select.having is not None:
        aggregates.extend(find_aggregates(select.having))
    for order in select.order_by:
        aggregates.extend(find_aggregates(order.expr))

    is_aggregation = bool(select.group_by) or bool(aggregates)
    if is_aggregation and isinstance(select.items, Star):
        raise SqlPlanError("SELECT * cannot be combined with GROUP BY or aggregates")
    if select.having is not None and not is_aggregation:
        raise SqlPlanError("HAVING requires GROUP BY or aggregate functions")

    for aggregate in aggregates:
        if aggregate.distinct and aggregate.func != "COUNT":
            raise SqlPlanError(
                f"DISTINCT is only supported inside COUNT, not {aggregate.func}"
            )
        if aggregate.argument is not None and find_aggregates(aggregate.argument):
            raise SqlPlanError("nested aggregate functions are not allowed")

    output_names = _output_names(select)
    deduped: list[Aggregate] = []
    for aggregate in aggregates:
        if aggregate not in deduped:
            deduped.append(aggregate)
    return QueryPlan(
        select=select,
        is_aggregation=is_aggregation,
        aggregates=tuple(deduped),
        output_names=output_names,
        table_names=tuple(
            t.name for t in tables if isinstance(t, TableRef)
        ),
        subplans=subplans,
    )


def _output_names(select: Select) -> tuple[str, ...]:
    if isinstance(select.items, Star):
        return ()
    names: list[str] = []
    for i, item in enumerate(select.items):
        names.append(item.alias or _default_name(item, i))
    seen: dict[str, int] = {}
    unique: list[str] = []
    for name in names:
        if name in seen:
            seen[name] += 1
            unique.append(f"{name}_{seen[name]}")
        else:
            seen[name] = 0
            unique.append(name)
    return tuple(unique)


def _default_name(item: SelectItem, index: int) -> str:
    expr = item.expr
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Aggregate):
        if expr.argument is None:
            return "count"
        if isinstance(expr.argument, ColumnRef):
            return f"{expr.func.lower()}_{expr.argument.name}"
        return expr.func.lower()
    if isinstance(expr, FunctionCall):
        return expr.name.lower()
    if isinstance(expr, Literal):
        return f"literal_{index}"
    return f"col_{index}"


# -- physical planning ---------------------------------------------------------


@dataclass(frozen=True)
class SourceInfo:
    """What the optimizer knows about one catalog table."""

    rows: int
    columns: tuple[str, ...]
    column_kinds: dict[str, str]
    stats: TableStatistics | None = None
    stats_state: str = "absent"  # "fresh" | "stale" | "absent"
    indexes: dict[str, str] = field(default_factory=dict)  # column -> index kind


@dataclass
class ScanPlan:
    """Access path for one base table in FROM."""

    binding: str
    table_name: str
    access: str = "seq"  # "seq" | "index-eq" | "index-range"
    index_column: str | None = None
    index_kind: str | None = None
    index_value: Any = None
    index_low: Any = None
    index_high: Any = None
    index_include_low: bool = True
    index_include_high: bool = True
    pushed: tuple[Expr, ...] = ()  # conjuncts evaluated right after the access path
    columns: tuple[str, ...] | None = None  # projection pushdown; None keeps all
    base_rows: int = 0
    access_est_rows: int = 0  # after the access path, before pushed filters
    est_rows: int = 0  # after access path and pushed filters
    stats_state: str = "absent"

    @property
    def is_trivial(self) -> bool:
        """True when this plan degenerates to the unoptimized full scan."""
        return self.access == "seq" and not self.pushed and self.columns is None

    def describe(self) -> str:
        """Human-readable access-path summary for EXPLAIN."""
        parts = [self.table_name]
        if self.access == "index-eq":
            parts.append(f"via {self.index_column}[{self.index_kind}] = {self.index_value!r}")
        elif self.access == "index-range":
            low = "-inf" if self.index_low is None else repr(self.index_low)
            high = "+inf" if self.index_high is None else repr(self.index_high)
            left = "[" if self.index_include_low else "("
            right = "]" if self.index_include_high else ")"
            parts.append(f"via {self.index_column}[{self.index_kind}] {left}{low}, {high}{right}")
        if self.columns is not None:
            parts.append(f"cols={len(self.columns)}")
        parts.append(f"stats={self.stats_state}")
        return " ".join(parts)


@dataclass
class JoinPlan:
    """Physical strategy and cardinality estimate for one join node."""

    strategy: str  # "hash" | "sort_merge" | "index"
    est_rows: int
    cost: float
    index_table: str | None = None  # catalog name owning the probe index
    index_column: str | None = None

    def describe(self) -> str:
        return f"strategy={self.strategy} cost={self.cost:.0f}"


@dataclass
class PhysicalPlan:
    """The optimizer's decisions for one SELECT."""

    options: PlannerOptions
    scans: dict[str, ScanPlan] = field(default_factory=dict)  # by binding
    subquery_rows: dict[str, int] = field(default_factory=dict)  # by binding
    subqueries: dict[str, PhysicalPlan | None] = field(default_factory=dict)  # by binding
    joins: dict[Join, JoinPlan] = field(default_factory=dict)
    residual_where: Expr | None = None
    estimates: dict[str, int] = field(default_factory=dict)


def split_conjuncts(expr: Expr) -> list[Expr]:
    """Flatten an AND tree into its conjuncts, left to right."""
    if isinstance(expr, Binary) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def and_combine(conjuncts: list[Expr]) -> Expr | None:
    """Left-associative AND of ``conjuncts`` (None when empty)."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = Binary("AND", combined, conjunct)
    return combined


def optimize(
    query_plan: QueryPlan,
    source_info: Callable[[TableRef], SourceInfo | None],
    options: PlannerOptions | None = None,
) -> PhysicalPlan | None:
    """Produce a :class:`PhysicalPlan` for ``query_plan``.

    ``source_info`` maps each base :class:`TableRef` to its
    :class:`SourceInfo`; returning None for any table (e.g. it is not in
    the catalog) aborts optimization so the executor's legacy path can
    surface its usual error.
    """
    options = options or PlannerOptions()
    select = query_plan.select
    sources = source_tables(select.source)
    infos: dict[str, SourceInfo | None] = {}
    physical = PhysicalPlan(options=options)
    for source in sources:
        if isinstance(source, TableRef):
            info = source_info(source)
            if info is None:
                return None
            infos[source.binding] = info
        else:
            inner_plan = query_plan.subplans[source.binding]
            inner_physical = optimize(inner_plan, source_info, options)
            physical.subqueries[source.binding] = inner_physical
            est = inner_physical.estimates.get("final", 0) if inner_physical else 0
            physical.subquery_rows[source.binding] = est
            if isinstance(source.select.items, Star):
                # Output columns unknown before execution; treat as opaque.
                infos[source.binding] = None
            else:
                infos[source.binding] = SourceInfo(
                    rows=est,
                    columns=inner_plan.output_names,
                    column_kinds={},
                    stats_state="absent",
                )

    known_columns: dict[str, tuple[str, ...] | None] = {
        binding: (info.columns if info is not None else None)
        for binding, info in infos.items()
    }
    nullable = _nullable_bindings(select.source)

    def attribute(ref: ColumnRef) -> str | None:
        return _attribute_ref(ref, known_columns)

    def stats_for(ref: ColumnRef):
        binding = attribute(ref)
        if binding is None:
            return None
        info = infos.get(binding)
        if info is None or info.stats is None:
            return None
        return info.stats.column(ref.name)

    # -- predicate pushdown ---------------------------------------------------
    table_bindings = {s.binding for s in sources if isinstance(s, TableRef)}
    pushed_by_binding: dict[str, list[Expr]] = {}
    residual: list[Expr] = []
    if select.where is not None:
        conjuncts = split_conjuncts(select.where)
        if options.predicate_pushdown:
            for conjunct in conjuncts:
                binding = _conjunct_binding(conjunct, attribute)
                if binding in table_bindings and binding not in nullable:
                    pushed_by_binding.setdefault(binding, []).append(conjunct)
                else:
                    residual.append(conjunct)
        else:
            residual = conjuncts
    physical.residual_where = and_combine(residual)

    # -- projection pushdown --------------------------------------------------
    needed = (
        _needed_columns(select, query_plan, known_columns)
        if options.projection_pushdown
        else None
    )

    # -- per-table access paths -----------------------------------------------
    for source in sources:
        if not isinstance(source, TableRef):
            continue
        binding = source.binding
        info = infos[binding]
        assert info is not None
        pushed = pushed_by_binding.get(binding, [])
        scan = ScanPlan(
            binding=binding,
            table_name=source.name,
            base_rows=info.rows,
            access_est_rows=info.rows,
            stats_state=info.stats_state,
        )
        if options.index_scan and info.indexes and pushed:
            chosen = _choose_index(pushed, binding, info, stats_for)
            if chosen is not None:
                index_conjunct, updates, access_est = chosen
                for key, value in updates.items():
                    setattr(scan, key, value)
                scan.access_est_rows = access_est
                pushed = [c for c in pushed if c is not index_conjunct]
        scan.pushed = tuple(pushed)
        combined_sel = 1.0
        for conjunct in pushed_by_binding.get(binding, []):
            combined_sel *= selectivity(conjunct, stats_for)
        scan.est_rows = max(int(round(info.rows * combined_sel)), 0)
        if scan.access != "seq":
            scan.est_rows = min(scan.est_rows, scan.access_est_rows)
        if needed is not None and info.columns:
            keep = tuple(c for c in info.columns if c in needed.get(binding, set()))
            if not keep:
                keep = (info.columns[0],)
            if set(keep) != set(info.columns):
                scan.columns = keep
        physical.scans[binding] = scan

    # -- join strategies and cardinalities ------------------------------------
    source_est = _walk_joins(select.source, physical, infos, attribute, options)

    # -- stage estimates ------------------------------------------------------
    estimates = physical.estimates
    estimates["source"] = source_est
    current = source_est
    if physical.residual_where is not None:
        current = max(int(round(current * selectivity(physical.residual_where, stats_for))), 0)
        estimates["filter"] = current
    if query_plan.is_aggregation:
        current = _estimate_groups(select, current, stats_for)
        if select.having is not None:
            current = max(int(round(current * selectivity(select.having, stats_for))), 0)
        estimates["aggregate"] = current
    estimates["project"] = current
    if select.distinct:
        estimates["distinct"] = current
    if select.order_by:
        estimates["sort"] = current
    if select.limit is not None or select.offset is not None:
        start = select.offset or 0
        remaining = max(current - start, 0)
        if select.limit is not None:
            remaining = min(remaining, select.limit)
        current = remaining
        estimates["limit"] = current
    estimates["final"] = current
    return physical


def _nullable_bindings(source: TableRef | SubquerySource | Join) -> set[str]:
    """Bindings on the preserved-NULL side of a LEFT JOIN (no pushdown)."""
    nullable: set[str] = set()

    def visit(node: TableRef | SubquerySource | Join) -> None:
        if isinstance(node, Join):
            visit(node.left)
            if node.kind == "left":
                nullable.add(node.right.binding)

    visit(source)
    return nullable


def _attribute_ref(
    ref: ColumnRef, known_columns: dict[str, tuple[str, ...] | None]
) -> str | None:
    """Find the unique binding owning ``ref``, or None when unresolvable."""
    if ref.table is not None:
        if ref.table not in known_columns:
            return None
        columns = known_columns[ref.table]
        if columns is not None and ref.name not in columns:
            return None
        return ref.table
    if any(columns is None for columns in known_columns.values()):
        return None  # a source with unknown columns could own this ref
    owners = [
        binding
        for binding, columns in known_columns.items()
        if columns is not None and ref.name in columns
    ]
    return owners[0] if len(owners) == 1 else None


def _conjunct_binding(
    conjunct: Expr, attribute: Callable[[ColumnRef], str | None]
) -> str | None:
    """The single binding a conjunct touches, or None when not pushable."""
    refs = [node for node in walk(conjunct) if isinstance(node, ColumnRef)]
    if not refs:
        return None
    bindings = {attribute(ref) for ref in refs}
    if len(bindings) != 1 or None in bindings:
        return None
    return next(iter(bindings))


_NUMERIC_KINDS = ("int", "float", "bool")


def _literal_compatible(kind: str | None, value: Any) -> bool:
    """Whether an index over a ``kind`` column can be probed with ``value``."""
    if value is None:
        return False
    if kind == "str":
        return isinstance(value, str)
    if kind in _NUMERIC_KINDS:
        return isinstance(value, (bool, int, float)) and not isinstance(value, str)
    return False


def _choose_index(
    pushed: list[Expr],
    binding: str,
    info: SourceInfo,
    stats_for: Callable[[ColumnRef], Any],
) -> tuple[Expr, dict[str, Any], int] | None:
    """Pick the most selective index-servable conjunct for this scan.

    Returns ``(conjunct, scan-field updates, estimated rows)`` or None when
    a full scan is preferable (no candidate, or none selective enough).
    """
    best: tuple[int, int, Expr, dict[str, Any]] | None = None
    for order, conjunct in enumerate(pushed):
        updates = _index_candidate(conjunct, binding, info)
        if updates is None:
            continue
        est = max(int(round(info.rows * selectivity(conjunct, stats_for))), 0)
        if best is None or (est, order) < (best[0], best[1]):
            best = (est, order, conjunct, updates)
    if best is None:
        return None
    est, _, conjunct, updates = best
    if est >= info.rows * 0.5:
        return None  # not selective enough to beat a vectorized full scan
    return conjunct, updates, est


def _index_candidate(
    conjunct: Expr, binding: str, info: SourceInfo
) -> dict[str, Any] | None:
    """Scan-plan updates if ``conjunct`` can be answered by an index."""

    def owned(ref: Expr) -> str | None:
        if not isinstance(ref, ColumnRef):
            return None
        if ref.table is not None and ref.table != binding:
            return None
        if ref.name not in info.columns:
            return None
        return ref.name

    if isinstance(conjunct, Binary) and conjunct.op in ("=", "<", "<=", ">", ">="):
        column, value, flipped = None, None, False
        if isinstance(conjunct.right, Literal):
            column, value = owned(conjunct.left), conjunct.right.value
        elif isinstance(conjunct.left, Literal):
            column, value, flipped = owned(conjunct.right), conjunct.left.value, True
        if column is None:
            return None
        index_kind = info.indexes.get(column)
        if index_kind is None or not _literal_compatible(info.column_kinds.get(column), value):
            return None
        if conjunct.op == "=":
            return {
                "access": "index-eq",
                "index_column": column,
                "index_kind": index_kind,
                "index_value": value,
            }
        if index_kind != "sorted":
            return None
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[conjunct.op] if flipped else conjunct.op
        updates: dict[str, Any] = {
            "access": "index-range",
            "index_column": column,
            "index_kind": index_kind,
        }
        if op in ("<", "<="):
            updates["index_high"] = value
            updates["index_include_high"] = op == "<="
        else:
            updates["index_low"] = value
            updates["index_include_low"] = op == ">="
        return updates
    if isinstance(conjunct, Between) and not conjunct.negated:
        if not (isinstance(conjunct.low, Literal) and isinstance(conjunct.high, Literal)):
            return None
        column = owned(conjunct.operand)
        if column is None or info.indexes.get(column) != "sorted":
            return None
        kind = info.column_kinds.get(column)
        if not (
            _literal_compatible(kind, conjunct.low.value)
            and _literal_compatible(kind, conjunct.high.value)
        ):
            return None
        return {
            "access": "index-range",
            "index_column": column,
            "index_kind": "sorted",
            "index_low": conjunct.low.value,
            "index_high": conjunct.high.value,
        }
    return None


def _needed_columns(
    select: Select,
    query_plan: QueryPlan,
    known_columns: dict[str, tuple[str, ...] | None],
) -> dict[str, set[str]] | None:
    """Columns each binding must provide, or None to disable pruning.

    Pruning is disabled for ``SELECT *`` and whenever any referenced
    column cannot be attributed to exactly one binding (ambiguous or
    unknown references keep their original error behavior; aliases used
    in GROUP BY / HAVING / ORDER BY are skipped because their underlying
    expressions are collected from the select list).
    """
    if isinstance(select.items, Star):
        return None
    aliases = set(query_plan.output_names)
    refs: list[ColumnRef] = []
    alias_refs: list[ColumnRef] = []

    def collect(expr: Expr, allow_aliases: bool) -> None:
        for node in walk(expr):
            if isinstance(node, ColumnRef):
                target = alias_refs if allow_aliases else refs
                target.append(node)

    for item in select.items:
        collect(item.expr, allow_aliases=False)
    if select.where is not None:
        collect(select.where, allow_aliases=False)
    for expr in select.group_by:
        collect(expr, allow_aliases=True)
    if select.having is not None:
        collect(select.having, allow_aliases=True)
    for order in select.order_by:
        collect(order.expr, allow_aliases=True)
    join_refs = _join_key_refs(select.source)

    needed: dict[str, set[str]] = {}
    for ref in refs + join_refs:
        binding = _attribute_ref(ref, known_columns)
        if binding is None:
            return None
        needed.setdefault(binding, set()).add(ref.name)
    for ref in alias_refs:
        binding = _attribute_ref(ref, known_columns)
        if binding is None:
            if ref.table is None and ref.name in aliases:
                continue  # output alias; its expression is already collected
            return None
        needed.setdefault(binding, set()).add(ref.name)
    return needed


def _join_key_refs(source: TableRef | SubquerySource | Join) -> list[ColumnRef]:
    refs: list[ColumnRef] = []

    def visit(node: TableRef | SubquerySource | Join) -> None:
        if isinstance(node, Join):
            visit(node.left)
            refs.append(node.on_left)
            refs.append(node.on_right)

    visit(source)
    return refs


def _walk_joins(
    source: TableRef | SubquerySource | Join,
    physical: PhysicalPlan,
    infos: dict[str, SourceInfo | None],
    attribute: Callable[[ColumnRef], str | None],
    options: PlannerOptions,
) -> int:
    """Estimate cardinality bottom-up and pick a strategy per join node."""
    if isinstance(source, TableRef):
        return physical.scans[source.binding].est_rows
    if isinstance(source, SubquerySource):
        return physical.subquery_rows.get(source.binding, 0)
    left_rows = _walk_joins(source.left, physical, infos, attribute, options)
    right_binding = source.right.binding
    if isinstance(source.right, TableRef):
        right_rows = physical.scans[right_binding].est_rows
    else:
        right_rows = physical.subquery_rows.get(right_binding, 0)
    left_distinct = _key_distinct(source.on_left, infos, attribute)
    right_distinct = _key_distinct(source.on_right, infos, attribute)
    est = estimate_join_rows(
        left_rows, right_rows, source.kind, left_distinct, right_distinct
    )
    index_kind = _join_index_kind(source, physical, infos)
    strategy, cost = choose_join_strategy(options, left_rows, right_rows, index_kind)
    join_plan = JoinPlan(strategy=strategy, est_rows=est, cost=cost)
    if strategy == "index" and isinstance(source.right, TableRef):
        join_plan.index_table = source.right.name
        join_plan.index_column = source.on_right.name
    physical.joins[source] = join_plan
    return est


def _key_distinct(
    ref: ColumnRef,
    infos: dict[str, SourceInfo | None],
    attribute: Callable[[ColumnRef], str | None],
) -> int | None:
    binding = attribute(ref)
    if binding is None:
        return None
    info = infos.get(binding)
    if info is None or info.stats is None:
        return None
    column = info.stats.column(ref.name)
    return column.n_distinct if column is not None else None


def _join_index_kind(
    join: Join, physical: PhysicalPlan, infos: dict[str, SourceInfo | None]
) -> str | None:
    """Kind of a usable right-side join-key index, or None.

    Index nested-loop probes base-table row positions, so the right side
    must be a bare table scanned without an index access path or pushed
    filters (column pruning keeps row positions valid).
    """
    if not isinstance(join.right, TableRef):
        return None
    scan = physical.scans.get(join.right.binding)
    if scan is None or scan.access != "seq" or scan.pushed:
        return None
    info = infos.get(join.right.binding)
    if info is None:
        return None
    key = join.on_right.name
    if join.on_right.table is not None and join.on_right.table != join.right.binding:
        return None
    return info.indexes.get(key)


def _estimate_groups(
    select: Select, input_rows: int, stats_for: Callable[[ColumnRef], Any]
) -> int:
    """Estimated group count: product of key distincts, capped at the input."""
    if not select.group_by:
        return 1
    if input_rows == 0:
        return 0
    product = 1
    for expr in select.group_by:
        if isinstance(expr, ColumnRef):
            stats = stats_for(expr)
            distinct = stats.n_distinct if stats is not None else None
        else:
            distinct = None
        if distinct is None:
            distinct = max(int(math.isqrt(input_rows)), 1)
        product = min(product * max(distinct, 1), input_rows)
    return max(min(product, input_rows), 1)
