"""Query execution over :mod:`repro.table` tables.

Each SELECT is planned and optimized once, then built into one
:class:`~repro.sql.analyze.PlanNode` tree: FROM (scans, pushed filters,
joins, subqueries) → WHERE → GROUP BY/aggregates → HAVING → SELECT
projection → DISTINCT → ORDER BY → LIMIT/OFFSET.  ``EXPLAIN`` renders
that tree; ``execute()`` and ``EXPLAIN ANALYZE`` run it, each node through
one wrapper (:func:`_timed`) that fills its actuals and, while the
process-wide tracer records, emits its ``sql.<Op>`` span and counters.

NULL handling is deliberately simple (the datasets the study uses have no
NULLs outside LEFT JOIN results): comparisons treat ``None`` as an ordinary
value, ``IS NULL`` matches ``None`` and NaN, and ``COUNT(x)`` skips NULLs.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Callable, Mapping

import numpy as np

from repro import obs
from repro.errors import SqlExecutionError, SqlPlanError
from repro.sql.astnodes import (
    Aggregate,
    Analyze,
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
    Star,
    SubquerySource,
    TableRef,
    Unary,
    Union,
)
from repro.parallel import WorkerPool, resolve_workers, shard_ranges
from repro.parallel import work as _work
from repro.sql.analyze import PlanNode, format_plan
from repro.sql.cost import PlannerOptions
from repro.sql.functions import AGGREGATE_FUNCTIONS, call_scalar_function, like_match
from repro.sql.parser import parse
from repro.sql.planner import (
    PhysicalPlan,
    QueryPlan,
    SourceInfo,
    and_combine,
    find_aggregates,
    optimize,
    plan,
    source_tables,
)
from repro.table import Table
from repro.table.aggregates import factorize, grouped_aggregate
from repro.table.column import Column
from repro.table.index import HashIndex, Index, SortedIndex, build_index
from repro.table.stats import TableStatistics

logger = logging.getLogger(__name__)

#: Object-dtype comparisons below this many rows skip the fallback warning.
_OBJECT_COMPARE_WARN_ROWS = 100_000

#: Below this many input rows a fork-per-query costs more than the grouping
#: itself, so the parallel aggregate defers to the serial path even when
#: the engine was built with ``workers`` >= 2.
_PARALLEL_MIN_ROWS = 50_000

#: Aggregates with a mergeable partial state (COUNT/SUM as running sums,
#: AVG as (sum, count), MIN/MAX as running extrema).  DISTINCT variants
#: and the holistic aggregates (MEDIAN, STDDEV, VARIANCE) have no cheap
#: partial and always run serially.
_PARALLEL_FUNCS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

#: The right rows of a join key that no hash-index bucket holds.
_NO_ROWS = np.empty(0, dtype=np.int64)

#: Rows processed by per-row Python fallbacks since process start.  There
#: is no disk spill in this engine; "spill" counts the analogous cliff —
#: rows leaving the vectorized numpy kernels.  :func:`_timed` diffs this
#: around each plan node to attribute spilled rows to an operator.
_SPILL_ROWS = 0


def _note_spill(rows: int) -> None:
    global _SPILL_ROWS
    _SPILL_ROWS += int(rows)


def _table_bytes(table: Table) -> int:
    """Raw size of a table's column buffers (what a scan materializes)."""
    return int(
        sum(table.column(name).values.nbytes for name in table.column_names)
    )


def query(sql: str, **tables: Table) -> Table:
    """Parse and execute ``sql`` against keyword-argument tables.

    >>> query("SELECT COUNT(*) AS n FROM t", t=Table({"x": [1, 2]})).to_rows()
    [{'n': 2}]
    """
    return QueryEngine(tables).execute(sql)


class QueryEngine:
    """Executes SQL against a named catalog of in-memory tables.

    ``workers`` >= 2 enables the parallel group-by operators: eligible
    aggregations over at least :data:`_PARALLEL_MIN_ROWS` input rows run
    as a partitioned columnar scan plus partial aggregates on a
    :class:`~repro.parallel.WorkerPool`, finalized on the coordinator
    (group numbering and COUNT/MIN/MAX results match the serial path
    exactly; SUM/AVG may differ in the last float ulp because partial
    sums reassociate).  The default is serial execution.
    """

    def __init__(
        self,
        catalog: Mapping[str, Table] | None = None,
        workers: int | str | None = 1,
        optimizer: bool = True,
        options: PlannerOptions | None = None,
    ) -> None:
        self._catalog: dict[str, Table] = dict(catalog or {})
        self.workers = resolve_workers(workers if workers is not None else 1)
        self.optimizer_enabled = bool(optimizer)
        self.options = options if options is not None else PlannerOptions()
        #: ANALYZE results: table name -> (the table object analyzed, stats).
        #: Replacing the table via :meth:`register` marks its stats stale.
        self._analyzed: dict[str, tuple[Table, TableStatistics]] = {}
        #: Declared indexes: table name -> {column -> kind}.  Specs survive
        #: re-registration; the structures are rebuilt against the new table.
        self._index_specs: dict[str, dict[str, str]] = {}
        self._indexes: dict[str, dict[str, Index]] = {}

    def register(self, name: str, table: Table) -> None:
        """Add or replace a table in the catalog.

        Index structures declared with :meth:`create_index` are rebuilt
        against the new table; specs whose column disappeared are dropped
        with a warning.  ANALYZE statistics are kept but become stale
        (see :meth:`stats_state`).
        """
        self._catalog[name] = table
        specs = self._index_specs.get(name)
        if not specs:
            return
        rebuilt: dict[str, Index] = {}
        for column, kind in list(specs.items()):
            if column not in table:
                logger.warning(
                    "dropping index on %s.%s: column no longer exists", name, column
                )
                del specs[column]
                continue
            rebuilt[column] = build_index(table, column, kind)
        self._indexes[name] = rebuilt

    def table_names(self) -> tuple[str, ...]:
        """Names of registered tables, sorted."""
        return tuple(sorted(self._catalog))

    # -- statistics and indexes ------------------------------------------------

    def analyze(self, table: str | None = None) -> Table:
        """Collect optimizer statistics (the ``ANALYZE [table]`` statement).

        Returns a per-column summary table; the statistics are kept for
        cost-based planning until the table is replaced (then marked
        stale: value distributions are reused as ratios against the
        current row count).
        """
        obs.counter("sql.analyze")
        names = [table] if table is not None else list(self.table_names())
        rows: list[dict[str, Any]] = []
        for name in names:
            target = self._lookup(name)
            stats = target.statistics(refresh=True)
            self._analyzed[name] = (target, stats)
            for column in target.column_names:
                cs = stats.column(column)
                top_value, top_count = (None, None)
                if cs is not None and cs.most_common:
                    top_value = _display(cs.most_common[0][0])
                    top_count = cs.most_common[0][1]
                rows.append(
                    {
                        "table": name,
                        "column": column,
                        "kind": cs.kind if cs is not None else "?",
                        "rows": stats.row_count,
                        "nulls": cs.n_null if cs is not None else 0,
                        "distinct": cs.n_distinct if cs is not None else 0,
                        "min": _display(cs.min_value) if cs is not None else None,
                        "max": _display(cs.max_value) if cs is not None else None,
                        "top_value": top_value,
                        "top_count": 0 if top_count is None else top_count,
                    }
                )
        if not rows:
            return Table(
                {
                    "table": [],
                    "column": [],
                    "kind": [],
                    "rows": [],
                    "nulls": [],
                    "distinct": [],
                    "min": [],
                    "max": [],
                    "top_value": [],
                    "top_count": [],
                }
            )
        data = {key: [row[key] for row in rows] for key in rows[0]}
        return Table(data)

    def create_index(self, table: str, column: str, kind: str = "auto") -> Index:
        """Build a secondary index over ``table.column``.

        ``kind`` is ``"sorted"``, ``"hash"`` or ``"auto"`` (hash for
        strings, sorted otherwise).  The index is maintained across
        :meth:`register` calls for the same table name.
        """
        target = self._lookup(table)
        index = build_index(target, column, kind)
        self._index_specs.setdefault(table, {})[column] = index.kind
        self._indexes.setdefault(table, {})[column] = index
        obs.counter("sql.create_index")
        return index

    def index_specs(self, table: str) -> dict[str, str]:
        """Declared indexes for ``table`` as ``{column: kind}``."""
        return dict(self._index_specs.get(table, {}))

    def stats_state(self, table: str) -> str:
        """``"fresh"``, ``"stale"`` or ``"absent"`` statistics for ``table``."""
        entry = self._analyzed.get(table)
        if entry is None:
            return "absent"
        return "fresh" if entry[0] is self._catalog.get(table) else "stale"

    def _source_info(self, ref: TableRef) -> SourceInfo | None:
        """What the optimizer may assume about one catalog table."""
        table = self._catalog.get(ref.name)
        if table is None:
            return None  # abort optimization; the legacy path reports the error
        entry = self._analyzed.get(ref.name)
        return SourceInfo(
            rows=table.num_rows,
            columns=tuple(table.column_names),
            column_kinds={name: table.column(name).kind for name in table.column_names},
            stats=entry[1] if entry is not None else None,
            stats_state=self.stats_state(ref.name),
            indexes={
                column: index.kind
                for column, index in self._indexes.get(ref.name, {}).items()
            },
        )

    def _optimize(self, query_plan: QueryPlan) -> PhysicalPlan | None:
        if not self.optimizer_enabled:
            return None
        return optimize(query_plan, self._source_info, self.options)

    def execute(self, sql: str) -> Table:
        """Parse, plan and execute one statement (SELECT, UNION ALL, ANALYZE)."""
        with obs.span("sql.query"):
            obs.counter("sql.queries")
            statement = parse(sql)
            if isinstance(statement, Analyze):
                return self.analyze(statement.table)
            if isinstance(statement, Union):
                return self._execute_union(statement, PlanNode("UnionAll"))
            return self._run_select(plan(statement), PlanNode("Execute"))

    def explain_analyze(self, sql: str) -> tuple[Table, PlanNode]:
        """Execute ``sql`` and return the plan tree it ran, with actuals.

        Returns the result table plus the root :class:`PlanNode` of the
        measured plan tree (wall time and rows in/out per operator),
        rendered by :func:`repro.sql.analyze.format_plan`.
        """
        root = PlanNode("Query")
        start = time.perf_counter()
        statement = _timed(_child(root, "Parse"), parse, sql)
        if isinstance(statement, Analyze):
            node = _child(root, "Analyze", statement.table or "all tables")
            result = _timed(node, self.analyze, statement.table)
        elif isinstance(statement, Union):
            node = _child(root, "UnionAll", f"{len(statement.selects)} members")
            result = _timed(node, self._execute_union, statement, node)
        else:
            query_plan = _timed(_child(root, "Plan"), plan, statement)
            node = _child(root, "Execute")
            result = _timed(node, self._run_select, query_plan, node)
        root.seconds = time.perf_counter() - start
        root.rows_out = result.num_rows
        return result, root

    def _execute_union(self, union: Union, root: PlanNode) -> Table:
        """Run each UNION ALL member as a ``Member`` node under ``root``."""
        from repro.table import concat

        parts = []
        for i, select in enumerate(union.selects):
            member = _child(root, "Member", str(i + 1))
            parts.append(_timed(member, self._run_select, plan(select), member))
        schema = parts[0].schema
        for part in parts[1:]:
            if part.schema != schema:
                raise SqlPlanError(
                    "UNION ALL members must produce identical schemas: "
                    f"{part.schema} vs {schema}"
                )
        return concat(parts)

    def _run_select(self, query_plan: QueryPlan, root: PlanNode) -> Table:
        """Optimize one SELECT, hang its plan tree under ``root`` and run it.

        ``root`` is the statement's ``Execute`` node, which carries the
        final estimate as EXPLAIN shows it, or a UNION ``Member``.
        Optimization runs first, timed as a runtime-only ``Optimize``
        child.  Physical planning never changes results — only access
        paths, join strategies and the ``est=`` numbers on the tree.
        """
        physical = None
        if self.optimizer_enabled:
            physical = _timed(_child(root, "Optimize"), self._optimize, query_plan)
        if physical is not None and root.op == "Execute":
            root.rows_est = physical.estimates.get("final")
        stages = _stages(query_plan, physical)
        root.children.extend(stages)
        return _run_stages(stages, _Context(self))

    def explain(self, sql: str) -> str:
        """Return a human-readable summary of the query plan.

        With the optimizer enabled the logical summary is followed by the
        plan tree execution would run (access paths, join strategies and
        estimated rows per operator), rendered without timings.  A UNION
        ALL shows each member's summary and tree after a ``-- member i --``
        line.
        """
        statement = parse(sql)
        if isinstance(statement, Analyze):
            target = statement.table or "all registered tables"
            return (
                f"ANALYZE {target}\n"
                "COLLECT row count, per-column distinct/null counts, "
                "min/max and most-common values"
            )
        if isinstance(statement, Union):
            lines = [f"UNION ALL of {len(statement.selects)} selects"]
            for i, select in enumerate(statement.selects):
                lines.append(f"-- member {i + 1} --")
                lines.extend(self._explain_select(plan(select), PlanNode("Member", str(i + 1))))
            return "\n".join(lines)
        return "\n".join(self._explain_select(plan(statement), PlanNode("Execute")))

    def _explain_select(self, query_plan: QueryPlan, root: PlanNode) -> list[str]:
        """One SELECT's logical summary, then the plan tree it would run under
        ``root`` (the statement's ``Execute`` or a UNION ``Member``)."""
        select = query_plan.select
        lines = [
            "FROM "
            + " JOIN ".join(t.binding for t in source_tables(select.source))
        ]
        if select.where is not None:
            lines.append("WHERE <predicate>")
        if query_plan.is_aggregation:
            lines.append(
                f"AGGREGATE keys={len(select.group_by)} aggregates={len(query_plan.aggregates)}"
            )
        if select.having is not None:
            lines.append("HAVING <predicate>")
        lines.append(f"PROJECT {list(query_plan.output_names) or '*'}")
        if select.distinct:
            lines.append("DISTINCT")
        if select.order_by:
            lines.append(f"ORDER BY {len(select.order_by)} key(s)")
        if select.limit is not None:
            lines.append(f"LIMIT {select.limit} OFFSET {select.offset or 0}")
        physical = self._optimize(query_plan)
        if physical is not None:
            if root.op == "Execute":
                root.rows_est = physical.estimates.get("final")
            root.children = _stages(query_plan, physical)
            lines.append("")
            lines.append("-- physical plan (estimated rows) --")
            lines.append(format_plan(root, include_time=False))
        return lines

    def _lookup(self, name: str) -> Table:
        try:
            return self._catalog[name]
        except KeyError:
            known = ", ".join(sorted(self._catalog)) or "<none>"
            raise SqlPlanError(f"unknown table {name!r}; registered tables: {known}") from None


# -- the plan tree ---------------------------------------------------------------


def _stages(query_plan: QueryPlan, physical: PhysicalPlan | None) -> list[PlanNode]:
    """One SELECT's plan nodes in run order (the pipeline under ``Execute``).

    FROM, then the residual WHERE, Aggregate or Project, Distinct, Sort
    and Limit.  Without a physical plan (optimizer off, or it gave up)
    scans are trivial, joins hash, the whole WHERE is the residual
    ``Filter`` and no node carries an estimate.
    """
    select = query_plan.select
    est = physical.estimates if physical is not None else {}
    nodes = _source_nodes(select.source, query_plan, physical)
    where = physical.residual_where if physical is not None else select.where
    if where is not None:
        nodes.append(PlanNode("Filter", rows_est=est.get("filter"), _args=where))
    if query_plan.is_aggregation:
        detail = f"keys={len(select.group_by)} aggregates={len(query_plan.aggregates)}"
        nodes.append(
            PlanNode("Aggregate", detail, rows_est=est.get("aggregate"), _args=query_plan)
        )
    else:
        detail = _project_detail(query_plan)
        nodes.append(PlanNode("Project", detail, rows_est=est.get("project"), _args=query_plan))
    if select.distinct:
        nodes.append(PlanNode("Distinct", rows_est=est.get("distinct")))
    if select.order_by:
        detail = f"keys={len(select.order_by)}"
        nodes.append(PlanNode("Sort", detail, rows_est=est.get("sort"), _args=query_plan))
    if select.offset is not None or select.limit is not None:
        detail = f"{select.limit if select.limit is not None else 'ALL'}"
        if select.offset:
            detail += f" offset={select.offset}"
        start = select.offset or 0
        stop = None if select.limit is None else start + select.limit
        nodes.append(PlanNode("Limit", detail, rows_est=est.get("limit"), _args=(start, stop)))
    return nodes


def _source_nodes(
    source: TableRef | SubquerySource | Join,
    query_plan: QueryPlan,
    physical: PhysicalPlan | None,
) -> list[PlanNode]:
    """The FROM clause's nodes: a scan (plus its pushed filter), a
    subquery with its own stages nested, or a join over both inputs."""
    if isinstance(source, TableRef):
        scan = physical.scans[source.binding] if physical is not None else None
        if scan is None:
            return [PlanNode("Scan", source.name, _args=(source, None))]
        label = source.name if scan.is_trivial else scan.describe()
        nodes = [PlanNode("Scan", label, rows_est=scan.access_est_rows, _args=(source, scan))]
        if scan.pushed:
            predicate = and_combine(list(scan.pushed))
            nodes.append(PlanNode("Filter", "pushed", rows_est=scan.est_rows, _args=predicate))
        return nodes
    if isinstance(source, SubquerySource):
        binding = source.binding
        inner = physical.subqueries.get(binding) if physical is not None else None
        node = PlanNode(
            "Subquery",
            binding,
            rows_est=physical.subquery_rows.get(binding) if physical is not None else None,
        )
        node.children = _stages(query_plan.subplans[binding], inner)
        return [node]
    join_plan = physical.joins.get(source) if physical is not None else None
    detail = source.kind.upper()
    if join_plan is not None:
        detail = f"{detail} {join_plan.describe()}"
    left = _source_nodes(source.left, query_plan, physical)
    right = _source_nodes(source.right, query_plan, physical)
    # The join needs to know where its left input's nodes end.
    return [
        PlanNode(
            "Join",
            detail,
            rows_est=join_plan.est_rows if join_plan is not None else None,
            children=left + right,
            _args=(source, join_plan, len(left)),
        )
    ]


def _child(parent: PlanNode, op: str, detail: str = "") -> PlanNode:
    """Append a new node under ``parent`` and return it."""
    node = PlanNode(op, detail)
    parent.children.append(node)
    return node


#: Node fields a ``sql.<Op>`` span carries, and the ``sql.op.<kind>.*``
#: counter each actual feeds.
_SPAN_ATTRS = ("rows_in", "rows_out", "rows_est", "bytes_scanned", "spilled_rows")
_COUNTERS = {"rows_out": "rows_out", "bytes_scanned": "bytes_scanned", "spilled_rows": "spill_rows"}


def _timed(node: PlanNode, fn: Callable[..., Any], *args: Any) -> Any:
    """Run ``fn(*args)`` as plan node ``node`` — the one per-node wrapper.

    Times the call; a returned table sets ``rows_out``; rows spilled in
    the node's own code (its children keep theirs) set ``spilled_rows``.
    While the process-wide tracer records, the call is a ``sql.<Op>`` span
    carrying those actuals, which also feed the ``sql.op.<kind>.*``
    counters — one counter family per operator kind, a small fixed
    vocabulary, so cardinality stays bounded.
    """
    if not obs.tracing_enabled():
        return _measure(node, fn, args)
    attrs = {"detail": node.detail} if node.detail else {}
    with obs.span(f"sql.{node.op}", **attrs) as span:
        out = _measure(node, fn, args)
        actuals = {name: getattr(node, name) for name in _SPAN_ATTRS}
        span.set(**{name: value for name, value in actuals.items() if value is not None})
    key = node.op.lower()
    for name, suffix in _COUNTERS.items():
        if actuals[name]:
            obs.counter(f"sql.op.{key}.{suffix}", actuals[name])
    return out


def _measure(node: PlanNode, fn: Callable[..., Any], args: tuple) -> Any:
    """Call ``fn(*args)`` and fill ``node``'s time, rows out and own spill."""
    spill_base = _SPILL_ROWS
    start = time.perf_counter()
    out = fn(*args)
    node.seconds = time.perf_counter() - start
    if isinstance(out, Table):
        node.rows_out = out.num_rows
    spilled = _SPILL_ROWS - spill_base
    if spilled:  # charge the node only what its children did not spill
        spilled -= sum(child.spilled_rows or 0 for child in node.children)
    node.spilled_rows = spilled or None
    return out


class _Context:
    """One SELECT's execution state, threaded through its plan nodes.

    ``table`` and ``scope`` are the FROM rows so far and their column
    resolution; ``result`` is the last node's output (the SELECT's result
    once Aggregate or Project ran); ``groups`` is the aggregation's
    ``(env, keep, n_groups)``, which an ORDER BY over aggregates reads.
    """

    __slots__ = ("engine", "table", "scope", "result", "groups")

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine
        self.table: Table = None
        self.scope: _Scope = None
        self.result: Table = None
        self.groups: tuple[dict[Expr, np.ndarray], np.ndarray, int] = None

    def rows(self, scope: _Scope) -> Table:
        """Make ``scope`` the current FROM rows; returns its table."""
        self.scope = scope
        self.table = scope.table
        return scope.table


def _run_stages(nodes: list[PlanNode], ctx: _Context) -> Table:
    """Run sibling nodes in order through :func:`_timed`; returns the last output."""
    for node in nodes:
        ctx.result = _timed(node, _RUNNERS[node.op], node, ctx)
    return ctx.result


# -- operators: FROM and WHERE -------------------------------------------------------


def _run_scan(node: PlanNode, ctx: _Context) -> Table:
    ref, scan = node._args
    table = ctx.engine._lookup(ref.name)
    if scan is not None and scan.access != "seq":
        index = ctx.engine._indexes[ref.name][scan.index_column]
        if scan.access == "index-eq":
            positions = index.lookup_eq(scan.index_value)
        else:
            positions = index.lookup_range(
                scan.index_low,
                scan.index_high,
                scan.index_include_low,
                scan.index_include_high,
            )
        table = table.take(positions)
    if scan is not None and scan.columns is not None:
        table = table.select(list(scan.columns))
    node.bytes_scanned = _table_bytes(table)
    return ctx.rows(_Scope.single(ref.binding, table))


def _run_filter(node: PlanNode, ctx: _Context) -> Table:
    table = ctx.table
    node.rows_in = table.num_rows
    mask = _as_bool_mask(_evaluate(node._args, table, ctx.scope), table.num_rows)
    return ctx.rows(ctx.scope.over(table.filter(mask)))


def _run_subquery(node: PlanNode, ctx: _Context) -> Table:
    derived = _run_stages(node.children, _Context(ctx.engine))
    return ctx.rows(_Scope.single(node.detail, derived))


def _run_join(node: PlanNode, ctx: _Context) -> Table:
    join, join_plan, n_left = node._args
    left, right = _Context(ctx.engine), _Context(ctx.engine)
    _run_stages(node.children[:n_left], left)
    _run_stages(node.children[n_left:], right)
    left_scope = left.scope.qualified()
    right_scope = right.scope.qualified()
    left_key = left_scope.resolve(join.on_left)
    right_key = right_scope.resolve(join.on_right)
    index = None
    if join_plan is not None and join_plan.strategy == "index":
        index = ctx.engine._indexes[join_plan.index_table][join_plan.index_column]
    left_table, right_table = left_scope.table, right_scope.table
    left_rows, right_rows = _equi_join(
        left_table.column(left_key), right_table.column(right_key), join.kind, index
    )
    return ctx.rows(_Scope.joined(_assemble_join(left_table, right_table, left_rows, right_rows)))


# -- operators: projection and aggregation -----------------------------------------


def _run_project(node: PlanNode, ctx: _Context) -> Table:
    query_plan = node._args
    select = query_plan.select
    table = ctx.table
    if isinstance(select.items, Star):
        return ctx.scope.star_projection(table)
    data: dict[str, Column] = {}
    for name, item in zip(query_plan.output_names, select.items):
        value = _evaluate(item.expr, table, ctx.scope)
        data[name] = _to_column(value, table.num_rows)
    return Table(data)


def _run_aggregate(node: PlanNode, ctx: _Context) -> Table:
    query_plan = node._args
    select = query_plan.select
    table, scope = ctx.table, ctx.scope
    n_rows = node.rows_in = table.num_rows
    group_exprs = _resolve_group_keys(query_plan, scope)
    keys = [_group_key(expr, table, scope) for expr in group_exprs]
    if group_exprs and _parallel_eligible(query_plan, n_rows, ctx.engine.workers):
        env, n_groups = _parallel_aggregation(
            node, query_plan, table, scope, group_exprs, keys, ctx.engine.workers
        )
    else:
        if group_exprs:
            group_ids, n_groups, first_rows = factorize([array for array, _ in keys])
        else:
            group_ids = np.zeros(n_rows, dtype=np.int64)
            n_groups = 1
        env = {}
        for expr, (array, categories) in zip(group_exprs, keys):
            env[expr] = _decode(array[first_rows], categories)
        for aggregate in query_plan.aggregates:
            env[aggregate] = _evaluate_aggregate(
                aggregate, table, scope, group_ids, n_groups
            )
    alias_map = _alias_map(query_plan)
    if select.having is not None:
        having_expr = _resolve_aliases(select.having, alias_map)
        mask_values = _evaluate_grouped(having_expr, env, n_groups)
        mask = _as_bool_mask(mask_values, n_groups)
        keep = np.flatnonzero(mask)
    else:
        keep = np.arange(n_groups)
    data: dict[str, Column] = {}
    for name, item in zip(query_plan.output_names, select.items):
        values = _broadcast(_evaluate_grouped(item.expr, env, n_groups), n_groups)
        data[name] = _to_column(values[keep], len(keep))
    ctx.groups = (env, keep, n_groups)
    return Table(data)


def _group_key(expr: Expr, table: Table, scope: _Scope) -> tuple[np.ndarray, np.ndarray | None]:
    """A GROUP BY key's per-row array and, if those are codes, their categories.

    A bare reference to a dictionary-encoded column groups on its codes;
    any other key on its evaluated values.
    """
    column = _encoded_column(expr, table, scope)
    if column is not None:
        return column.codes, column.categories
    return _broadcast(_evaluate(expr, table, scope), table.num_rows), None


def _encoded_column(expr: Expr, table: Table, scope: _Scope) -> Column | None:
    """The dictionary-encoded column ``expr`` names, if it is a bare reference to one."""
    if isinstance(expr, ColumnRef):
        column = table.column(scope.resolve(expr))
        if column.codes is not None:
            return column
    return None


def _decode(array: np.ndarray, categories: np.ndarray | None) -> np.ndarray:
    """Group key values: ``array`` itself, or the categories its codes name."""
    return array if categories is None else categories[array]


def _aggregate_argument(aggregate: Aggregate, table: Table, scope: _Scope) -> np.ndarray:
    """An aggregate's per-row argument; COUNT of an encoded column reads its codes.

    Codes are never NULL, and equal codes are equal strings, so COUNT and
    COUNT(DISTINCT) give the same answers on them.
    """
    if aggregate.func == "COUNT":
        column = _encoded_column(aggregate.argument, table, scope)
        if column is not None:
            return column.codes
    return np.asarray(_broadcast(_evaluate(aggregate.argument, table, scope), table.num_rows))


def _parallel_eligible(query_plan: QueryPlan, n_rows: int, workers: int) -> bool:
    """Whether this aggregation can run as partial/final over partitions."""
    if workers < 2 or n_rows < _PARALLEL_MIN_ROWS:
        return False
    for aggregate in query_plan.aggregates:
        if aggregate.distinct or aggregate.func not in _PARALLEL_FUNCS:
            return False
    return True


def _parallel_aggregation(
    node: PlanNode,
    query_plan: QueryPlan,
    table: Table,
    scope: _Scope,
    group_exprs: tuple[Expr, ...],
    keys: list[tuple[np.ndarray, np.ndarray | None]],
    n_workers: int,
) -> tuple[dict[Expr, np.ndarray], int]:
    """Partitioned scan + parallel partial aggregate + in-order finalize.

    Rows are split into contiguous partitions; each worker scans its
    slice of the already-evaluated key/argument columns (codes for
    encoded keys), groups it locally in first-appearance order, and
    returns its groups' keys plus mergeable partial states.  The
    coordinator numbers the partitions' keys **in partition order** by
    first appearance — exactly the first-appearance-over-all-rows
    numbering the serial path produces — then folds the partials into
    final values.  The ``Aggregate`` node gains one ``ParallelScan`` +
    ``PartialAggregate`` child pair per partition (worker-measured times)
    and a ``FinalizeAggregate`` merge child.
    """
    n_rows = table.num_rows
    funcs = tuple(a.func for a in query_plan.aggregates)
    agg_arrays = [
        None if a.argument is None else _aggregate_argument(a, table, scope)
        for a in query_plan.aggregates
    ]
    key_arrays = [array for array, _ in keys]
    ranges = shard_ranges(n_rows, n_workers)
    obs.counter("sql.parallel_aggregate")
    with WorkerPool(n_workers, payload=(key_arrays, agg_arrays)) as pool:
        parts = pool.map_shards(
            _work.sql_partial_aggregate,
            [(lo, hi, funcs) for lo, hi in ranges],
        )
    for i, ((lo, hi), part) in enumerate(zip(ranges, parts)):
        node.children.append(
            PlanNode(
                "ParallelScan",
                f"partition={i} rows[{lo}:{hi}]",
                rows_out=part["rows"],
                seconds=part["scan_seconds"],
            )
        )
        node.children.append(
            PlanNode(
                "PartialAggregate",
                f"partition={i}",
                rows_in=part["rows"],
                rows_out=part["groups"],
                seconds=part["agg_seconds"],
            )
        )
    finalize = _child(node, "FinalizeAggregate", f"partitions={len(parts)} workers={n_workers}")
    args = (finalize, query_plan, group_exprs, keys, agg_arrays, parts)
    return _timed(finalize, _finalize_aggregate, *args)


def _finalize_aggregate(
    node: PlanNode,
    query_plan: QueryPlan,
    group_exprs: tuple[Expr, ...],
    keys: list[tuple[np.ndarray, np.ndarray | None]],
    agg_arrays: list[np.ndarray | None],
    parts: list[dict],
) -> tuple[dict[Expr, np.ndarray], int]:
    """Number the partitions' groups in order, merge their partials and
    decode the group keys."""
    merged = [
        np.concatenate([part["keys"][k] for part in parts]) for k in range(len(keys))
    ]
    group_ids, n_groups, first_rows = factorize(merged)
    bounds = np.cumsum([part["groups"] for part in parts])[:-1]
    remaps = np.split(group_ids, bounds)
    env: dict[Expr, np.ndarray] = {}
    for expr, array, (_, categories) in zip(group_exprs, merged, keys):
        env[expr] = _decode(array[first_rows], categories)
    for i, aggregate in enumerate(query_plan.aggregates):
        env[aggregate] = _merge_partials(
            aggregate.func,
            agg_arrays[i],
            [part["partials"][i] for part in parts],
            remaps,
            n_groups,
        )
    node.rows_in = len(group_ids)
    node.rows_out = n_groups
    return env, n_groups


# -- operators: DISTINCT, ORDER BY, LIMIT ----------------------------------------------


def _run_distinct(node: PlanNode, ctx: _Context) -> Table:
    node.rows_in = ctx.result.num_rows
    return ctx.result.distinct()


def _run_sort(node: PlanNode, ctx: _Context) -> Table:
    query_plan = node._args
    select = query_plan.select
    result, table, scope = ctx.result, ctx.table, ctx.scope
    sort_arrays: list[np.ndarray] = []
    flags: list[bool] = []
    alias_map = _alias_map(query_plan)
    for item in select.order_by:
        expr = item.expr
        if isinstance(expr, Literal) and isinstance(expr.value, int):
            index = expr.value - 1
            if not 0 <= index < result.num_columns:
                raise SqlPlanError(
                    f"ORDER BY position {expr.value} out of range"
                )
            values = result[result.column_names[index]]
        elif isinstance(expr, ColumnRef) and expr.table is None and expr.name in result:
            values = result[expr.name]
        elif expr in alias_map.values() and _find_output(expr, query_plan) is not None:
            values = result[_find_output(expr, query_plan)]
        elif query_plan.is_aggregation:
            env, keep, n_groups = ctx.groups
            resolved = _resolve_aliases(expr, alias_map)
            values = _broadcast(
                _evaluate_grouped(resolved, env, n_groups), n_groups
            )[keep]
        else:
            if select.distinct:
                raise SqlPlanError(
                    "ORDER BY with DISTINCT must reference output columns"
                )
            values = _broadcast(_evaluate(expr, table, scope), table.num_rows)
        if len(values) != result.num_rows:
            raise SqlExecutionError("ORDER BY expression length mismatch")
        sort_arrays.append(np.asarray(values))
        flags.append(item.descending)
    codes = []
    for values, descending in zip(sort_arrays, flags):
        code = _order_codes(values)
        codes.append(-code if descending else code)
    order = np.lexsort(list(reversed(codes)))
    return result.take(order)


def _run_limit(node: PlanNode, ctx: _Context) -> Table:
    node.rows_in = ctx.result.num_rows
    return ctx.result.slice(*node._args)


#: What runs for each pipeline node, dispatched on ``node.op``.
_RUNNERS: dict[str, Callable[[PlanNode, _Context], Table]] = {
    "Scan": _run_scan,
    "Filter": _run_filter,
    "Subquery": _run_subquery,
    "Join": _run_join,
    "Project": _run_project,
    "Aggregate": _run_aggregate,
    "Distinct": _run_distinct,
    "Sort": _run_sort,
    "Limit": _run_limit,
}


# -- scope -----------------------------------------------------------------------


class _Scope:
    """Column-name resolution for the current FROM clause.

    For a single table the physical names are the original column names.
    After a join every physical name is ``binding.column`` and unqualified
    references resolve when exactly one binding has the column.
    """

    def __init__(self, table: Table, binding: str | None, is_join: bool) -> None:
        self.table = table
        self._binding = binding
        self._is_join = is_join

    @classmethod
    def single(cls, binding: str, table: Table) -> "_Scope":
        """Scope over one physical or derived table."""
        return cls(table, binding, is_join=False)

    @classmethod
    def joined(cls, table: Table) -> "_Scope":
        """Scope over a join result with qualified column names."""
        return cls(table, None, is_join=True)

    def over(self, table: Table) -> "_Scope":
        """This scope's names over ``table`` (the same rows, filtered)."""
        return _Scope(table, self._binding, self._is_join)

    def qualified(self) -> "_Scope":
        """Return this scope with every physical column qualified."""
        if self._is_join:
            return self
        renamed = self.table.rename(
            {name: f"{self._binding}.{name}" for name in self.table.column_names}
        )
        return _Scope(renamed, None, is_join=True)

    def resolve(self, ref: ColumnRef) -> str:
        """Map a column reference to a physical column name."""
        if not self._is_join:
            if ref.table is not None and ref.table != self._binding:
                raise SqlPlanError(f"unknown table qualifier {ref.table!r}")
            if ref.name not in self.table:
                raise SqlPlanError(f"unknown column {ref.display!r}")
            return ref.name
        if ref.table is not None:
            physical = f"{ref.table}.{ref.name}"
            if physical not in self.table:
                raise SqlPlanError(f"unknown column {ref.display!r}")
            return physical
        matches = [
            name
            for name in self.table.column_names
            if name.rsplit(".", 1)[-1] == ref.name
        ]
        if not matches:
            raise SqlPlanError(f"unknown column {ref.name!r}")
        if len(matches) > 1:
            raise SqlPlanError(f"ambiguous column {ref.name!r}: {matches}")
        return matches[0]

    def star_projection(self, table: Table) -> Table:
        """Project all columns, unqualifying join columns where unambiguous."""
        if not self._is_join:
            return table
        renames: dict[str, str] = {}
        short_names = [name.rsplit(".", 1)[-1] for name in table.column_names]
        for name, short in zip(table.column_names, short_names):
            if short_names.count(short) == 1:
                renames[name] = short
        return table.rename(renames)


def _equi_join(
    left: Column, right: Column, how: str, index: Index | None
) -> tuple[np.ndarray, np.ndarray]:
    """Matched ``(left_rows, right_rows)`` of an equality join on two key columns.

    Pairs come in the canonical order every strategy shares: left rows
    ascending, each left row's matches ascending, and a LEFT miss as right
    row -1.  Keys are equal exactly when a dict of the right keys would
    find the left key: Python's ``==`` and ``hash``, so numbers compare
    exactly, ``None`` matches ``None``, NaN never matches and a string
    never equals a number.  ``index``, an index over ``right``'s rows on
    the key, lets the probe skip reading ``right``.  Each left row's
    matches are one range ``order[first:first + count]``
    (:func:`_bucket_ranges`, :func:`_sorted_ranges`), and
    ``repeat``/``cumsum`` spread the ranges into pairs.
    """
    if isinstance(index, HashIndex):
        first, counts, order = _bucket_ranges(left, index)
    else:
        first, counts, order = _sorted_ranges(left, right, index)
    # The left rows that emit pairs: all of them in a LEFT join, else the matched.
    rows = np.arange(len(counts), dtype=np.int64) if how == "left" else np.flatnonzero(counts)
    counts, first = counts[rows], first[rows]
    per_row = np.maximum(counts, 1)
    left_rows = np.repeat(rows, per_row)
    # Pair p of left row i takes match p - (i's first pair) of i's range.
    slots = np.arange(len(left_rows), dtype=np.int64) + np.repeat(
        first - (np.cumsum(per_row) - per_row), per_row
    )
    hit = np.repeat(counts > 0, per_row)
    right_rows = np.full(len(left_rows), -1, dtype=np.int64)
    right_rows[hit] = order[slots[hit]]
    return left_rows, right_rows


def _bucket_ranges(left: Column, index: HashIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each left row's ``(first, count)`` in ``order``: the hash index's
    buckets for the left's distinct keys, laid end to end.

    One dict lookup per distinct left key (per category of an encoded
    column), so the index is never read in full.
    """
    values, codes = _dictionary(left)
    if codes is None:
        codes, _, firsts = factorize([values])
        values = values[firsts]
    buckets = [index.buckets.get(value, _NO_ROWS) for value in values.tolist()]
    counts = np.array([len(rows) for rows in buckets], dtype=np.int64)
    order = np.concatenate([_NO_ROWS, *buckets])
    return (np.cumsum(counts) - counts)[codes], counts[codes], order


def _sorted_ranges(
    left: Column, right: Column, index: SortedIndex | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each left row's ``(first, count)`` in ``order``, the right rows sorted
    by key, stably so equal keys keep their row order; two binary searches
    find each range.

    A sorted index holds that order; its keys are probed as they are
    (:func:`_probe_keys`), unless a string meets a number, which matches
    nothing and sorts ``right`` like a join without an index.
    """
    if index is not None and (left.kind == "str") == (index.keys.kind == "str"):
        order, keys = index.order, index.keys.values
        left_keys, left_ok = _probe_keys(left, index.keys)
    else:
        left_keys, left_ok, keys, keys_ok = _join_keys(left, right)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if keys_ok is not None:
            keys_ok = keys_ok[order]
            order, keys = order[keys_ok], keys[keys_ok]
    first = np.searchsorted(keys, left_keys, side="left")
    counts = np.searchsorted(keys, left_keys, side="right") - first
    if left_ok is not None:
        counts[~left_ok] = 0
    return first, counts, order


def _join_keys(
    left: Column, right: Column
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Both key columns as arrays of one comparable dtype, each with a mask
    of the rows that can match at all (None: every row), equal where
    :func:`_equi_join` holds the keys equal.

    Numeric pairs stay numeric (:func:`_number_keys`).  Any other pair
    goes through one dict factorization of the right then the left
    values, whose ids are equal exactly where the values are; an encoded
    column contributes its categories and its rows take their category's
    id.
    """
    kinds = {left.kind, right.kind}
    if "str" not in kinds:
        as_int = "int" in kinds or "float" not in kinds
        return (*_number_keys(left, as_int), *_number_keys(right, as_int))
    (right_values, right_codes), (left_values, left_codes) = map(_dictionary, (right, left))
    ids = factorize([np.concatenate([right_values, left_values])])[0]
    right_ids, left_ids = ids[: len(right_values)], ids[len(right_values) :]
    if right_codes is not None:
        right_ids = right_ids[right_codes]
    if left_codes is not None:
        left_ids = left_ids[left_codes]
    return left_ids, None, right_ids, None


def _probe_keys(left: Column, keys: Column) -> tuple[np.ndarray, np.ndarray | None]:
    """Left keys comparable with a sorted index's ``keys`` (the two sides
    both strings or both numbers), and the rows that can match; ``keys``
    are not read.

    The index holds no NULL and no NaN, so a NULL left key matches
    nothing.  Numbers take the keys' type (:func:`_number_keys`).
    """
    if left.kind != "str":
        return _number_keys(left, keys.kind != "float")
    values, codes = _dictionary(left)
    ok = np.array([value is not None for value in values], dtype=bool)
    values = np.where(ok, values, "")
    return (values, ok) if codes is None else (values[codes], ok[codes])


def _number_keys(column: Column, as_int: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """A numeric key column as int64 (``as_int``) or float64 keys, and the
    rows that can match.

    NaN matches nothing.  Ints and floats compare exactly, so an int beyond
    2**53 never matches the float it rounds to: a float compared as int64
    matches only where it is integral and inside int64's range, and an int
    compared as float64 only where float64 holds it exactly.
    """
    values = column.values
    if column.kind == "float":
        if not as_int:
            return values, ~np.isnan(values)
        exact = (values == np.floor(values)) & (values >= -(2.0**63)) & (values < 2.0**63)
        return np.where(exact, values, 0.0).astype(np.int64), exact
    if as_int or column.kind == "bool":
        return values.astype(np.int64 if as_int else np.float64, copy=False), None
    as_float = values.astype(np.float64)
    return as_float, np.where(as_float < 2.0**63, as_float, 0.0).astype(np.int64) == values


def _dictionary(column: Column) -> tuple[np.ndarray, np.ndarray | None]:
    """The values a key column's factorization reads, and the codes that
    spread them over its rows (None: the values are the rows)."""
    if column.codes is not None:
        return column.categories, column.codes
    return column.values, None


def _assemble_join(left: Table, right: Table, left_rows: Any, right_rows: Any) -> Table:
    """Materialize join output from matched row-index pairs.

    ``right_rows == -1`` marks a LEFT JOIN miss: right columns widen to
    NULL (``None`` for strings, NaN for numerics) on those rows, and so
    lose any dictionary encoding; without misses, columns keep theirs.
    """
    left_part = left.take(np.asarray(left_rows, dtype=np.int64))
    right_idx = np.asarray(right_rows, dtype=np.int64)
    missing = right_idx < 0
    any_missing = bool(missing.any())
    safe_idx = np.where(missing, 0, right_idx)
    data = {name: left_part.column(name) for name in left_part.column_names}
    for name in right.column_names:
        column = right.column(name)
        if right.num_rows == 0:
            data[name] = Column(np.full(len(right_idx), np.nan), "float")
        elif not any_missing:
            data[name] = column.take(right_idx)
        elif column.kind == "str":
            taken = column.values[safe_idx]
            taken[missing] = None
            data[name] = Column(taken, "str")
        else:
            values = column.values[safe_idx].astype(np.float64)
            values[missing] = np.nan
            data[name] = Column(values, "float")
    return Table(data)


# -- expression evaluation ----------------------------------------------------------


def _evaluate(expr: Expr, table: Table, scope: _Scope) -> Any:
    """Evaluate ``expr`` against table rows; returns an array or a scalar."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return table[scope.resolve(expr)]
    if isinstance(expr, Unary):
        return _apply_unary(expr.op, _evaluate(expr.operand, table, scope))
    if isinstance(expr, Binary):
        return _apply_binary(
            expr.op,
            _evaluate(expr.left, table, scope),
            lambda: _evaluate(expr.right, table, scope),
            expr,
        )
    if isinstance(expr, Between):
        value = _evaluate(expr.operand, table, scope)
        low = _evaluate(expr.low, table, scope)
        high = _evaluate(expr.high, table, scope)
        mask = np.logical_and(
            _compare(">=", value, low), _compare("<=", value, high)
        )
        return np.logical_not(mask) if expr.negated else mask
    if isinstance(expr, InList):
        value = _evaluate(expr.operand, table, scope)
        items = [_evaluate(item, table, scope) for item in expr.items]
        return _in_list(value, items, expr.negated)
    if isinstance(expr, IsNull):
        value = _evaluate(expr.operand, table, scope)
        mask = _is_null(value, table.num_rows)
        return np.logical_not(mask) if expr.negated else mask
    if isinstance(expr, FunctionCall):
        args = tuple(_evaluate(arg, table, scope) for arg in expr.args)
        return call_scalar_function(expr.name, args)
    if isinstance(expr, Case):
        return _apply_case(expr, lambda e: _evaluate(e, table, scope), table.num_rows)
    if isinstance(expr, Aggregate):
        raise SqlPlanError("aggregate functions are not allowed in this context")
    raise SqlPlanError(f"cannot evaluate expression node {type(expr).__name__}")


def _evaluate_grouped(expr: Expr, env: dict[Expr, np.ndarray], n_groups: int) -> Any:
    """Evaluate ``expr`` per group; columns must come through ``env``."""
    if expr in env:
        return env[expr]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        raise SqlPlanError(
            f"column {expr.display!r} must appear in GROUP BY or inside an aggregate"
        )
    if isinstance(expr, Unary):
        return _apply_unary(expr.op, _evaluate_grouped(expr.operand, env, n_groups))
    if isinstance(expr, Binary):
        return _apply_binary(
            expr.op,
            _evaluate_grouped(expr.left, env, n_groups),
            lambda: _evaluate_grouped(expr.right, env, n_groups),
            expr,
        )
    if isinstance(expr, Between):
        value = _evaluate_grouped(expr.operand, env, n_groups)
        low = _evaluate_grouped(expr.low, env, n_groups)
        high = _evaluate_grouped(expr.high, env, n_groups)
        mask = np.logical_and(_compare(">=", value, low), _compare("<=", value, high))
        return np.logical_not(mask) if expr.negated else mask
    if isinstance(expr, InList):
        value = _evaluate_grouped(expr.operand, env, n_groups)
        items = [_evaluate_grouped(item, env, n_groups) for item in expr.items]
        return _in_list(value, items, expr.negated)
    if isinstance(expr, IsNull):
        value = _evaluate_grouped(expr.operand, env, n_groups)
        mask = _is_null(value, n_groups)
        return np.logical_not(mask) if expr.negated else mask
    if isinstance(expr, FunctionCall):
        args = tuple(_evaluate_grouped(arg, env, n_groups) for arg in expr.args)
        return call_scalar_function(expr.name, args)
    if isinstance(expr, Case):
        return _apply_case(expr, lambda e: _evaluate_grouped(e, env, n_groups), n_groups)
    raise SqlPlanError(f"cannot evaluate expression node {type(expr).__name__}")


def _evaluate_aggregate(
    aggregate: Aggregate,
    table: Table,
    scope: _Scope,
    group_ids: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    if aggregate.argument is None:  # COUNT(*)
        return np.bincount(group_ids, minlength=n_groups).astype(np.int64)
    values = _aggregate_argument(aggregate, table, scope)
    if aggregate.func == "COUNT":
        nulls = _is_null(values, len(values))
        if nulls.any():
            rows = np.flatnonzero(~nulls)
            values, group_ids = values[rows], group_ids[rows]
        if aggregate.distinct:
            return grouped_aggregate(values, group_ids, n_groups, "count_distinct")
        return np.bincount(group_ids, minlength=n_groups).astype(np.int64)
    func = AGGREGATE_FUNCTIONS[aggregate.func]
    return grouped_aggregate(values, group_ids, n_groups, func)


# -- operator helpers ----------------------------------------------------------------


def _apply_unary(op: str, value: Any) -> Any:
    if op == "-":
        if isinstance(value, np.ndarray) and value.dtype == object:
            raise SqlExecutionError("cannot negate a string value")
        return -value  # numpy handles arrays and scalars alike
    if op == "NOT":
        return np.logical_not(value)
    raise SqlPlanError(f"unknown unary operator {op!r}")


def _apply_binary(op: str, left: Any, right_thunk: Any, node: Binary) -> Any:
    right = right_thunk()
    if op in ("AND", "OR"):
        fn = np.logical_and if op == "AND" else np.logical_or
        return fn(left, right)
    if op in ("=", "!=", "<", "<=", ">", ">="):
        return _compare(op, left, right)
    if op == "LIKE":
        if not isinstance(right, str):
            raise SqlPlanError("LIKE pattern must be a string literal")
        return like_match(left, right)
    if op in ("+", "-", "*", "/", "%"):
        return _arithmetic(op, left, right)
    raise SqlPlanError(f"unknown binary operator {op!r}")


def _arithmetic(op: str, left: Any, right: Any) -> Any:
    for side in (left, right):
        if isinstance(side, str) or (
            isinstance(side, np.ndarray) and side.dtype == object
        ):
            raise SqlExecutionError(f"operator {op!r} is not defined for strings")
    if op in ("/", "%"):
        divisor = np.asarray(right)
        if np.any(divisor == 0):
            raise SqlExecutionError("division by zero")
    if op == "+":
        return np.add(left, right)
    if op == "-":
        return np.subtract(left, right)
    if op == "*":
        return np.multiply(left, right)
    if op == "/":
        return np.divide(left, right)
    return np.mod(left, right)


def _compare(op: str, left: Any, right: Any) -> np.ndarray:
    left_is_obj = isinstance(left, np.ndarray) and left.dtype == object
    right_is_obj = isinstance(right, np.ndarray) and right.dtype == object
    if left_is_obj or right_is_obj or isinstance(left, str) or isinstance(right, str):
        return _compare_object(op, left, right)
    ops = {
        "=": np.equal,
        "!=": np.not_equal,
        "<": np.less,
        "<=": np.less_equal,
        ">": np.greater,
        ">=": np.greater_equal,
    }
    return ops[op](left, right)


def _compare_object(op: str, left: Any, right: Any) -> np.ndarray:
    import operator as _operator

    _note_spill(
        len(left) if isinstance(left, np.ndarray) else len(right)
    )

    ops = {
        "=": _operator.eq,
        "!=": _operator.ne,
        "<": _operator.lt,
        "<=": _operator.le,
        ">": _operator.gt,
        ">=": _operator.ge,
    }
    fn = ops[op]
    left_arr = left if isinstance(left, np.ndarray) else None
    right_arr = right if isinstance(right, np.ndarray) else None
    length = len(left_arr) if left_arr is not None else len(right_arr)
    if length >= _OBJECT_COMPARE_WARN_ROWS:
        obs.counter("sql.object_compare_fallback")
        logger.warning(
            "object-dtype %r comparison fell back to a Python row loop "
            "over %d rows; consider filtering earlier or comparing numerics",
            op, length,
        )
    out = np.empty(length, dtype=bool)
    for i in range(length):
        lhs = left_arr[i] if left_arr is not None else left
        rhs = right_arr[i] if right_arr is not None else right
        if lhs is None or rhs is None:
            out[i] = False if op != "!=" else True
            continue
        try:
            out[i] = bool(fn(lhs, rhs))
        except TypeError as exc:
            raise SqlExecutionError(
                f"cannot compare {type(lhs).__name__} with {type(rhs).__name__}"
            ) from exc
    return out


def _in_list(value: Any, items: list[Any], negated: bool) -> np.ndarray:
    if any(isinstance(item, np.ndarray) for item in items):
        raise SqlPlanError("IN list items must be scalar expressions")
    array = np.asarray(value) if not isinstance(value, np.ndarray) else value
    if array.dtype == object:
        allowed = set(items)
        mask = np.asarray([v in allowed for v in array], dtype=bool)
    else:
        mask = np.isin(array, items)
    return np.logical_not(mask) if negated else mask


def _is_null(value: Any, length: int) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return _none_mask(value)
        if np.issubdtype(value.dtype, np.floating):
            return np.isnan(value)
        return np.zeros(value.shape[0], dtype=bool)
    if value is None:
        return np.ones(length, dtype=bool)
    if isinstance(value, float) and np.isnan(value):
        return np.ones(length, dtype=bool)
    return np.zeros(length, dtype=bool)


def _none_mask(values: np.ndarray) -> np.ndarray:
    """Which entries of an object array are ``None`` (a per-row loop)."""
    return np.asarray([v is None for v in values], dtype=bool)


def _apply_case(expr: Case, evaluate: Any, length: int) -> np.ndarray:
    default = evaluate(expr.default) if expr.default is not None else None
    values = [evaluate(value) for _, value in expr.whens]
    conditions = [
        _as_bool_mask(evaluate(condition), length) for condition, _ in expr.whens
    ]
    use_object = any(
        isinstance(v, str)
        or (isinstance(v, np.ndarray) and v.dtype == object)
        for v in values + [default]
    ) or default is None
    if use_object:
        out = np.empty(length, dtype=object)
        out[:] = None
    else:
        out = np.empty(length, dtype=np.float64)
    out[:] = _broadcast(default, length) if default is not None else out[:]
    # Apply whens in reverse so the FIRST matching branch wins.
    for condition, value in zip(reversed(conditions), reversed(values)):
        broadcast_value = _broadcast(value, length)
        out[condition] = broadcast_value[condition]
    return out


# -- small utilities -------------------------------------------------------------------


def _display(value: Any) -> str | None:
    """Render an ANALYZE summary value as a string (None stays NULL)."""
    if value is None:
        return None
    if isinstance(value, float) and not isinstance(value, bool):
        if not np.isfinite(value):
            return str(value)
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return str(value)


def _project_detail(query_plan: QueryPlan) -> str:
    names = query_plan.output_names
    if not names:
        return "*"
    if len(names) > 4:
        return f"[{', '.join(names[:4])}, ... +{len(names) - 4}]"
    return f"[{', '.join(names)}]"


def _broadcast(value: Any, length: int) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.shape[0] != length:
            raise SqlExecutionError(
                f"expression produced {value.shape[0]} rows, expected {length}"
            )
        return value
    if isinstance(value, str) or value is None:
        out = np.empty(length, dtype=object)
        out[:] = value
        return out
    return np.full(length, value)


def _as_bool_mask(value: Any, length: int) -> np.ndarray:
    array = _broadcast(value, length)
    if array.dtype == object:
        return np.asarray([bool(v) for v in array], dtype=bool)
    if array.dtype != np.bool_:
        raise SqlExecutionError("predicate did not evaluate to a boolean")
    return array


def _to_column(value: Any, length: int) -> Column:
    array = _broadcast(value, length)
    if array.dtype == object:
        return Column(array, "str") if _all_str_or_none(array) else Column(array.tolist())
    return Column(array)


def _all_str_or_none(array: np.ndarray) -> bool:
    return all(v is None or isinstance(v, str) for v in array)


def _merge_partials(
    func: str,
    values: np.ndarray | None,
    partials: list,
    remaps: list[np.ndarray],
    n_groups: int,
) -> np.ndarray:
    """Fold per-partition partial aggregate states into final group values.

    ``remaps[p]`` maps partition ``p``'s local group ids to global ids;
    within one partition the global ids are distinct, so fancy-indexed
    accumulation is safe.  COUNT merges exactly; SUM/AVG add partial sums
    in partition order (last-ulp float reassociation vs serial); MIN/MAX
    merge via ``np.minimum``/``np.maximum`` (NaN-propagating, matching the
    serial per-group ``min()``/``max()``).
    """
    if values is None or func == "COUNT":
        total = np.zeros(n_groups, dtype=np.int64)
        for part, remap in zip(partials, remaps):
            total[remap] += part
        return total
    if func == "SUM":
        sums = np.zeros(n_groups, dtype=np.float64)
        for part, remap in zip(partials, remaps):
            sums[remap] += part
        if np.issubdtype(values.dtype, np.integer):
            return sums.astype(np.int64)
        return sums
    if func == "AVG":
        sums = np.zeros(n_groups, dtype=np.float64)
        counts = np.zeros(n_groups, dtype=np.int64)
        for (part_sums, part_counts), remap in zip(partials, remaps):
            sums[remap] += part_sums
            counts[remap] += part_counts
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    if func in ("MIN", "MAX"):
        out = np.empty(n_groups, dtype=partials[0].dtype)
        seen = np.zeros(n_groups, dtype=bool)
        for part, remap in zip(partials, remaps):
            if out.dtype == object:
                for j, gid in enumerate(remap):
                    value = part[j]
                    if not seen[gid]:
                        out[gid] = value
                    elif func == "MIN":
                        out[gid] = min(out[gid], value)
                    else:
                        out[gid] = max(out[gid], value)
            else:
                new = ~seen[remap]
                out[remap[new]] = part[new]
                old_idx = remap[~new]
                if old_idx.size:
                    fold = np.minimum if func == "MIN" else np.maximum
                    out[old_idx] = fold(out[old_idx], part[~new])
            seen[remap] = True
        return out
    raise SqlExecutionError(  # pragma: no cover - guarded by _parallel_eligible
        f"aggregate {func!r} has no mergeable partial"
    )


def _resolve_group_keys(query_plan: QueryPlan, scope: "_Scope") -> tuple[Expr, ...]:
    """Resolve positional (``GROUP BY 1``) and alias group keys.

    BigQuery-style: an integer literal refers to the 1-based select item,
    and a bare identifier that matches an output alias (and is not itself a
    physical column) groups by that item's expression.
    """
    select = query_plan.select
    alias_map = _alias_map(query_plan)
    items = select.items if not isinstance(select.items, Star) else ()
    resolved: list[Expr] = []
    for expr in select.group_by:
        if isinstance(expr, Literal) and isinstance(expr.value, int):
            index = expr.value - 1
            if not 0 <= index < len(items):
                raise SqlPlanError(f"GROUP BY position {expr.value} out of range")
            expr = items[index].expr
        elif isinstance(expr, ColumnRef) and expr.table is None and expr.name in alias_map:
            if not _is_physical_column(expr, scope):
                expr = alias_map[expr.name]
        if find_aggregates(expr):
            raise SqlPlanError("aggregate functions are not allowed in GROUP BY")
        resolved.append(expr)
    return tuple(resolved)


def _is_physical_column(ref: ColumnRef, scope: "_Scope") -> bool:
    try:
        scope.resolve(ref)
    except SqlPlanError:
        return False
    return True


def _alias_map(query_plan: QueryPlan) -> dict[str, Expr]:
    select = query_plan.select
    if isinstance(select.items, Star):
        return {}
    return {
        name: item.expr
        for name, item in zip(query_plan.output_names, select.items)
    }


def _find_output(expr: Expr, query_plan: QueryPlan) -> str | None:
    select = query_plan.select
    if isinstance(select.items, Star):
        return None
    for name, item in zip(query_plan.output_names, select.items):
        if item.expr == expr:
            return name
    return None


def _resolve_aliases(expr: Expr, alias_map: dict[str, Expr]) -> Expr:
    """Rewrite bare column references that name an output alias."""
    if isinstance(expr, ColumnRef) and expr.table is None and expr.name in alias_map:
        return alias_map[expr.name]
    if isinstance(expr, Unary):
        return Unary(expr.op, _resolve_aliases(expr.operand, alias_map))
    if isinstance(expr, Binary):
        return Binary(
            expr.op,
            _resolve_aliases(expr.left, alias_map),
            _resolve_aliases(expr.right, alias_map),
        )
    if isinstance(expr, Between):
        return Between(
            _resolve_aliases(expr.operand, alias_map),
            _resolve_aliases(expr.low, alias_map),
            _resolve_aliases(expr.high, alias_map),
            expr.negated,
        )
    if isinstance(expr, InList):
        return InList(
            _resolve_aliases(expr.operand, alias_map),
            tuple(_resolve_aliases(item, alias_map) for item in expr.items),
            expr.negated,
        )
    if isinstance(expr, IsNull):
        return IsNull(_resolve_aliases(expr.operand, alias_map), expr.negated)
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name, tuple(_resolve_aliases(arg, alias_map) for arg in expr.args)
        )
    if isinstance(expr, Case):
        return Case(
            tuple(
                (_resolve_aliases(c, alias_map), _resolve_aliases(v, alias_map))
                for c, v in expr.whens
            ),
            _resolve_aliases(expr.default, alias_map) if expr.default else None,
        )
    return expr


def _order_codes(values: np.ndarray) -> np.ndarray:
    """Dense order-preserving integer codes (ties equal) for lexsort."""
    if values.dtype == object:
        try:
            distinct = sorted(set(values.tolist()))
        except TypeError as exc:
            raise SqlExecutionError(f"cannot order mixed-type values: {exc}") from exc
        mapping = {value: code for code, value in enumerate(distinct)}
        return np.asarray([mapping[v] for v in values], dtype=np.int64)
    _, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64)
