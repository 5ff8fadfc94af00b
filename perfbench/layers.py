"""Outside-in per-layer tracing for the benchmark's traced runs.

The program is not edited: a traced run replaces, for its duration, the
attribute each caller actually resolves with a thin timing wrapper, and
puts every original back afterwards.  Class methods are patched on the
class (``MeasurementEngine.measure_many``, ``Gauge.set``, ...).  Module
names are patched where the caller imported them by name: the engine
bound ``attribute`` and ``compute_batch`` at import, so patching
``repro.chain.attribution.attribute`` would record nothing, while
``repro.core.engine.attribute`` is the name the engine looks up.

Wrappers are installed before any worker pool forks.  Spans recorded
inside forked workers stay in those processes and are dropped; the
coordinator's ``parallel.wait`` span carries the critical path.

Each span keeps its name, start, end, parent span and operation id in
flat in-memory arrays (one report, one monitor command, one query or one
set-up step is one operation), and the arrays are written out when the
run ends.  The bookkeeping per call is five array appends and one store,
because the monitor makes about ten wrapped calls per block.

A span's *self* time is its duration minus the durations of its direct
wrapped children.  Summed over every span, self time telescopes to the
summed duration of the top-level spans, so ``unattributed_s`` (traced
wall time minus summed self time) is exactly the time spent outside any
wrapped call: CLI argument handling, benchmark glue, unwrapped helpers.

Layer -> per-layer metric -> workload, and what each should move
------------------------------------------------------------------
The ``paper`` workload's traced run covers the ``paper`` and ``monitor``
families, the ``sql`` workload's the ``sql`` family.  Spans carry the
operation (report, monitor command, query) they ran in.

``simulation``  simulation.run.{calls,self_s}: paper_s, paper_serial_s and
                setup_s (paper, sql).
``chain``       chain.{to_table,block_table}.self_s: setup_s (sql).
``attribution`` attribution.{attribute,segment_histograms,
                sliding_histograms,distribution}.{calls,self_s}: paper_*.
``windows``     windows.generate.{calls,self_s}: paper_*.
``engine``      engine.{measure,measure_many,measure_calendar_many,
                measure_sliding_many}.{calls,self_s} and
                engine.sliding_reuse_ratio: paper_*.
``metrics``     metrics.compute_batch.{calls,self_s}, metrics.windows,
                metrics.compute.{calls,self_s}: paper_* in bulk (reports),
                monitor_btc_blocks_per_s as one-row batches (monitor
                commands), both on paper.
``parallel``    parallel.{pools,tasks,pool_start_s,wait_s,pool_close_s}:
                paper_s and the two sql group-by means (paper, sql).
``analysis``    analysis.{figures,findings,report}.self_s, viz.self_s:
                paper_*.
``streaming``   streaming.push.{calls,self_s}, streaming.eval_pushes,
                streaming.eval_push_s, streaming.rolling_push_s: the two
                monitor rates (paper).
``serve``       serve.{loop,feed,state}.self_s: monitor_eth_blocks_per_s
                (paper).
``obs``         obs.{instrument,history,alerts}.{calls,self_s}: both
                monitor rates (paper).
``sql``         sql.{parse,plan,optimize,execute,analyze,create_index}
                .self_s and sql.<kind>.rows_scanned_per_row: the sql_*
                latencies and setup_s (sql).
``table``       table.grouped_aggregate.{calls,self_s},
                table.{statistics,build_index}.self_s: the group-by and
                distinct means and setup_s (sql).

No-change predictions the traced runs check: ``parallel.pools_serial``
(pools created by ``--workers 1`` reports) and ``parallel.pools_monitor``
(pools created by monitor commands) read 0, so a dispatch change predicts
no change in ``paper_serial_s`` or ``monitor_*``; ``streaming.*``,
``serve.*`` and ``obs.*`` read non-zero only on ``paper``, where the
monitor commands run; ``sql.*`` and ``table.*`` only on ``sql``.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Any, Callable, Iterable, Iterator

import numpy as np

#: Span name -> the attributes it wraps, as ``"module"`` or
#: ``"module:Class"`` plus the attribute name.
WRAPPED: dict[str, tuple[tuple[str, str], ...]] = {
    "simulation.run": (
        ("repro.analysis.study", "simulate_bitcoin_2019"),
        ("repro.analysis.study", "simulate_ethereum_2019"),
    ),
    "chain.to_table": (("repro.chain.chain:Chain", "to_table"),),
    "chain.block_table": (("repro.chain.chain:Chain", "block_table"),),
    "attribution.attribute": (("repro.core.engine", "attribute"),),
    "attribution.segment_histograms": (
        ("repro.chain.attribution:Credits", "segment_histograms"),
    ),
    "attribution.sliding_histograms": (
        ("repro.chain.attribution:Credits", "sliding_histograms"),
    ),
    "attribution.distribution": (("repro.chain.attribution:Credits", "distribution"),),
    "windows.generate": (
        ("repro.windows.fixed:FixedCalendarWindows", "generate"),
        ("repro.windows.fixed:FixedBlockWindows", "generate"),
        ("repro.windows.sliding:SlidingBlockWindows", "generate"),
        ("repro.windows.timesliding:SlidingTimeWindows", "generate"),
    ),
    "engine.measure": (("repro.core.engine:MeasurementEngine", "measure"),),
    "engine.measure_many": (("repro.core.engine:MeasurementEngine", "measure_many"),),
    "engine.measure_calendar_many": (
        ("repro.core.engine:MeasurementEngine", "measure_calendar_many"),
    ),
    "engine.measure_sliding_many": (
        ("repro.core.engine:MeasurementEngine", "measure_sliding_many"),
    ),
    "engine.measure_sliding": (("repro.core.engine:MeasurementEngine", "measure_sliding"),),
    "metrics.compute_batch": (
        ("repro.core.engine", "compute_batch"),
        ("repro.core.streaming", "compute_batch"),
    ),
    "metrics.compute": (("repro.metrics.base:FunctionMetric", "compute"),),
    "parallel.pool_start": (("repro.parallel.pool:WorkerPool", "__init__"),),
    "parallel.wait": (("repro.parallel.pool:WorkerPool", "map_shards"),),
    "parallel.pool_close": (("repro.parallel.pool:WorkerPool", "close"),),
    "analysis.figures": (
        ("repro.analysis.study:DecentralizationStudy", "all_figures"),
        ("repro.analysis.study:DecentralizationStudy", "figure"),
    ),
    "analysis.findings": (
        ("repro.analysis.study:DecentralizationStudy", "findings"),
        ("repro.analysis.report", "iqr_anomalies"),
        ("repro.analysis.events", "event_timeline"),
        ("repro.analysis.events", "coincident_events"),
    ),
    "analysis.report": (("repro.analysis.report", "generate_report"),),
    "viz": (("repro.analysis.report", "sparkline"),),
    "streaming.push": (("repro.core.streaming:StreamingMonitor", "push"),),
    "streaming.rolling_push": (("repro.core.rolling:RollingHistogram", "push"),),
    "serve.loop": (("repro.serve", "run_monitor"),),
    "serve.state": (
        ("repro.serve.state:MonitorState", "record_push"),
        ("repro.serve.state:MonitorState", "record_evaluation"),
        ("repro.serve.state:MonitorState", "mark_finished"),
    ),
    "obs.instrument": (
        ("repro.obs.metrics:Counter", "inc"),
        ("repro.obs.metrics:Gauge", "set"),
        ("repro.obs.metrics:TimingHistogram", "observe"),
    ),
    "obs.history": (("repro.obs.timeseries:Series", "record"),),
    "obs.alerts": (("repro.obs.alerts:AlertManager", "evaluate"),),
    "sql.parse": (("repro.sql.executor", "parse"),),
    "sql.plan": (("repro.sql.executor", "plan"),),
    "sql.optimize": (("repro.sql.executor", "optimize"),),
    "sql.execute": (("repro.sql.executor:QueryEngine", "execute"),),
    "sql.analyze": (("repro.sql.executor:QueryEngine", "analyze"),),
    "sql.create_index": (("repro.sql.executor:QueryEngine", "create_index"),),
    "table.grouped_aggregate": (("repro.sql.executor", "grouped_aggregate"),),
    "table.statistics": (("repro.table.table:Table", "statistics"),),
    "table.build_index": (("repro.sql.executor", "build_index"),),
}

#: Spans recorded by hand rather than by patching an attribute: each
#: ``next()`` on the feed ``run_monitor`` receives.
EXTRA_SPANS = ("serve.feed",)

#: Query kinds whose plan tree gives ``sql.<kind>.rows_scanned_per_row``.
SQL_KINDS = ("point", "join", "btc_groupby", "eth_groupby", "eth_distinct")

#: Every per-layer metric: name -> (unit, workloads it must be non-zero on).
#: The workload sets drive the wrapper coverage check; an empty set means
#: the metric is a prediction of zero or a derived value.
PER_LAYER: dict[str, tuple[str, frozenset[str]]] = {}


def _metric(name: str, unit: str, *workloads: str) -> None:
    PER_LAYER[name] = (unit, frozenset(workloads))


_metric("simulation.run.calls", "count", "paper", "sql")
_metric("simulation.run.self_s", "s", "paper", "sql")
_metric("chain.to_table.self_s", "s", "sql")
_metric("chain.block_table.self_s", "s", "sql")
for _name in ("attribute", "segment_histograms", "sliding_histograms", "distribution"):
    _metric(f"attribution.{_name}.calls", "count", "paper")
    _metric(f"attribution.{_name}.self_s", "s", "paper")
_metric("windows.generate.calls", "count", "paper")
_metric("windows.generate.self_s", "s", "paper")
for _name in ("measure", "measure_many", "measure_calendar_many", "measure_sliding_many"):
    _metric(f"engine.{_name}.calls", "count", "paper")
    _metric(f"engine.{_name}.self_s", "s", "paper")
_metric("engine.sliding_reuse_ratio", "ratio")
_metric("metrics.compute_batch.calls", "count", "paper")
_metric("metrics.compute_batch.self_s", "s", "paper")
_metric("metrics.windows", "count", "paper")
_metric("metrics.compute.calls", "count", "paper")
_metric("metrics.compute.self_s", "s", "paper")
_metric("parallel.pools", "count", "paper", "sql")
_metric("parallel.pools_serial", "count")
_metric("parallel.pools_monitor", "count")
_metric("parallel.tasks", "count", "paper", "sql")
_metric("parallel.pool_start_s", "s", "paper", "sql")
_metric("parallel.wait_s", "s", "paper", "sql")
_metric("parallel.pool_close_s", "s", "paper", "sql")
_metric("analysis.figures.self_s", "s", "paper")
_metric("analysis.findings.self_s", "s", "paper")
_metric("analysis.report.self_s", "s", "paper")
_metric("viz.self_s", "s", "paper")
_metric("streaming.push.calls", "count", "paper")
_metric("streaming.push.self_s", "s", "paper")
_metric("streaming.eval_pushes", "count", "paper")
_metric("streaming.eval_push_s", "s", "paper")
_metric("streaming.rolling_push_s", "s", "paper")
_metric("serve.loop.self_s", "s", "paper")
_metric("serve.feed.self_s", "s", "paper")
_metric("serve.state.self_s", "s", "paper")
for _name in ("instrument", "history", "alerts"):
    _metric(f"obs.{_name}.calls", "count", "paper")
    _metric(f"obs.{_name}.self_s", "s", "paper")
for _name in ("parse", "plan", "optimize", "execute", "analyze", "create_index"):
    _metric(f"sql.{_name}.self_s", "s", "sql")
for _name in SQL_KINDS:
    _metric(f"sql.{_name}.rows_scanned_per_row", "ratio", "sql")
_metric("table.grouped_aggregate.calls", "count", "sql")
_metric("table.grouped_aggregate.self_s", "s", "sql")
_metric("table.statistics.self_s", "s", "sql")
_metric("table.build_index.self_s", "s", "sql")
_metric("unattributed_s", "s", "paper", "sql")
_metric("trace_overhead", "ratio")

#: Per-layer metrics backed by a span whose name is not the metric's stem
#: (the rest are ``<span>.calls`` or ``<span>.self_s``).
_SPAN_OF = {
    "parallel.pools": "parallel.pool_start",
    "parallel.pool_start_s": "parallel.pool_start",
    "parallel.wait_s": "parallel.wait",
    "parallel.pool_close_s": "parallel.pool_close",
    "streaming.rolling_push_s": "streaming.rolling_push",
    "viz.self_s": "viz",
}


def _resolve(path: str) -> Any:
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Recorder:
    """Span store plus the patches that feed it.

    Use as a context manager: entering installs every wrapper, leaving
    restores every original attribute, even when the traced code raised.
    """

    def __init__(self) -> None:
        self.names: list[str] = [*WRAPPED, *EXTRA_SPANS]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Open span ids, innermost last; -1 is the root.
        self._stack = [-1]
        self._op = [-1]
        #: Operation id -> (kind, label).
        self.ops: list[tuple[str, str]] = []
        #: Rows handed to ``compute_batch`` and shards handed to ``map_shards``.
        self.counts = {"metrics.windows": 0, "parallel.tasks": 0}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- operations ---------------------------------------------------------

    def begin_op(self, kind: str, label: str = "") -> int:
        """Start a new operation; later spans carry its id."""
        self.ops.append((kind, label))
        self._op[0] = len(self.ops) - 1
        return self._op[0]

    def end_op(self) -> None:
        """Spans recorded from now on belong to no operation."""
        self._op[0] = -1

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as span ``name``."""
        name_id = self._name_id[name]
        perf = time.perf_counter
        stack, op = self._stack, self._op
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(op[0])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf()
                stack.pop()

        return wrapper

    def _counting(self, key: str, size: Callable[[tuple], int], fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += size(args)
            return fn(*args, **kwargs)

        return counted

    def timed_feed(self, feed: Iterable) -> Iterator:
        """Yield ``feed``'s items, timing each pull as a ``serve.feed`` span."""
        pull = self.wrap("serve.feed", iter(feed).__next__)
        while True:
            try:
                item = pull()
            except StopIteration:
                return
            yield item

    def _wrapper_for(self, name: str, original: Callable) -> Callable:
        wrapped = self.wrap(name, original)
        if name == "metrics.compute_batch":
            return self._counting("metrics.windows", _batch_rows, wrapped)
        if name == "parallel.wait":
            return self._counting("parallel.tasks", lambda a: len(a[2]), wrapped)
        if name == "serve.loop":
            timed_feed = self.timed_feed

            @functools.wraps(original)
            def run_monitor(feed, *args, **kwargs):
                return wrapped(timed_feed(feed), *args, **kwargs)

            return run_monitor
        return wrapped

    def install(self) -> None:
        """Patch every attribute in :data:`WRAPPED`."""
        for name, targets in WRAPPED.items():
            for path, attr in targets:
                owner = _resolve(path)
                original = vars(owner)[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrapper_for(name, original))

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The span columns as numpy arrays."""
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write the spans, the name table and the operation table."""
        np.savez(
            path,
            names=np.array(self.names),
            op_kinds=np.array([kind for kind, _ in self.ops] or [""]),
            op_labels=np.array([label for _, label in self.ops] or [""]),
            **self.arrays(),
        )


def _batch_rows(args: tuple) -> int:
    batch = args[1]
    rows = getattr(batch, "n_windows", None)
    return int(rows) if rows is not None else len(batch)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = end - start
    child = parent >= 0
    covered = np.bincount(
        parent[child], weights=duration[child], minlength=duration.size
    )
    return duration - covered


def span_totals(recorder: Recorder) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and inclusive ``total_s``."""
    cols = recorder.arrays()
    selfs = self_times(cols["parent"], cols["start"], cols["end"])
    n = len(recorder.names)
    calls = np.bincount(cols["name"], minlength=n)
    self_s = np.bincount(cols["name"], weights=selfs, minlength=n)
    total_s = np.bincount(cols["name"], weights=cols["end"] - cols["start"], minlength=n)
    return {
        name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
        for i, name in enumerate(recorder.names)
    }


def _evaluating_pushes(recorder: Recorder) -> tuple[int, float]:
    """Pushes with a ``metrics.compute_batch`` child: count, inclusive seconds.

    ``StreamingMonitor.push`` evaluates the window (one ``compute_batch``
    per monitored metric) exactly when it raises ``evaluations``.
    """
    cols = recorder.arrays()
    push_id = recorder.names.index("streaming.push")
    batch_id = recorder.names.index("metrics.compute_batch")
    batch_parents = cols["parent"][cols["name"] == batch_id]
    parents = np.unique(batch_parents[batch_parents >= 0])
    pushes = parents[cols["name"][parents] == push_id]
    seconds = float((cols["end"][pushes] - cols["start"][pushes]).sum())
    return int(pushes.size), seconds


def _pools_in(recorder: Recorder, op_kind: str) -> int:
    cols = recorder.arrays()
    pool_id = recorder.names.index("parallel.pool_start")
    kinds = np.array([kind for kind, _ in recorder.ops] + [""])
    span_kinds = kinds[cols["op"]]  # op -1 indexes the trailing ""
    return int(((cols["name"] == pool_id) & (span_kinds == op_kind)).sum())


def layer_metrics(
    recorder: Recorder,
    wall_s: float,
    untraced_s: float,
    rows_scanned: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``wall_s`` is the traced region's wall time, ``untraced_s`` the same
    work timed with no wrappers installed, ``rows_scanned`` the
    ``sql.<kind>.rows_scanned_per_row`` values (empty off the sql
    workload).
    """
    totals = span_totals(recorder)
    eval_pushes, eval_push_s = _evaluating_pushes(recorder)
    sliding_requests = (
        totals["engine.measure_sliding_many"]["calls"]
        + totals["engine.measure_sliding"]["calls"]
    )
    derived = {
        "metrics.windows": float(recorder.counts["metrics.windows"]),
        "parallel.tasks": float(recorder.counts["parallel.tasks"]),
        "parallel.pools_serial": float(_pools_in(recorder, "paper_serial")),
        "parallel.pools_monitor": float(
            _pools_in(recorder, "monitor_eth") + _pools_in(recorder, "monitor_btc")
        ),
        "streaming.eval_pushes": float(eval_pushes),
        "streaming.eval_push_s": eval_push_s,
        "engine.sliding_reuse_ratio": (
            1.0 - totals["attribution.sliding_histograms"]["calls"] / sliding_requests
            if sliding_requests
            else 0.0
        ),
        "unattributed_s": wall_s - sum(t["self_s"] for t in totals.values()),
        "trace_overhead": wall_s / untraced_s - 1.0 if untraced_s > 0 else 0.0,
    }
    for kind in SQL_KINDS:
        derived[f"sql.{kind}.rows_scanned_per_row"] = float(rows_scanned.get(kind, 0.0))
    values: dict[str, float] = {}
    for name in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
            continue
        span, field = _span_field(name)
        values[name] = float(totals[span][field])
    return values


def _span_field(name: str) -> tuple[str, str]:
    """The span and the ``span_totals`` field behind a span-backed metric."""
    if name in _SPAN_OF:
        return _SPAN_OF[name], "calls" if name == "parallel.pools" else "self_s"
    span, _, field = name.rpartition(".")
    return span, field


def zero_predictions(workload: str) -> list[str]:
    """Per-layer metrics that must read 0 on ``workload``'s traced run.

    No pool under ``--workers 1`` or in a monitor command; the streaming,
    serving and obs layers only on ``paper`` (its monitor commands); sql
    and table only on ``sql``.
    """
    prefixes = ("sql.", "table.") if workload == "paper" else ("streaming.", "serve.", "obs.")
    zero = [name for name in PER_LAYER if name.startswith(prefixes)]
    return sorted({*zero, "parallel.pools_serial", "parallel.pools_monitor"})


def coverage_gaps(recorder: Recorder, values: dict[str, float], workload: str) -> list[str]:
    """Per-layer metrics used on ``workload`` whose spans recorded no call.

    A gap means a wrapper sits on a name nobody resolves, or the layer
    stopped running on that workload.  Derived counts must be non-zero.
    """
    totals = span_totals(recorder)
    gaps = []
    for name, (_, workloads) in PER_LAYER.items():
        if workload not in workloads:
            continue
        span, _ = _span_field(name)
        calls = totals[span]["calls"] if span in totals else values[name]
        if not calls:
            gaps.append(name)
    return gaps
