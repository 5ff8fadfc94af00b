"""Plan trees: the :class:`PlanNode` type and its text rendering.

The executor builds one :class:`PlanNode` tree per SELECT right after
optimization.  ``EXPLAIN`` renders that tree without running it
(estimates only); ``execute()`` and ``EXPLAIN ANALYZE`` run the same
tree, filling each node's wall time and rows in/out as it executes, and
:func:`format_plan` renders the result as the ``repro query
--explain-analyze`` output::

    Query                                  time=3.96ms rows=20
    ├─ Parse                               time=0.23ms
    ├─ Plan                                time=0.02ms
    └─ Execute                             time=3.70ms rows=20 est=20
       ├─ Optimize                         time=0.09ms
       ├─ Scan credits                     time=0.41ms rows=86305
       ├─ Aggregate keys=1 aggregates=1    time=2.22ms in=86305 out=1137
       ...

Operators additionally report the bytes of column data they scanned and
the rows that *spilled* off the columnar fast path onto per-row Python
loops (``bytes=``/``spill=`` in the rendering).  While the process-wide
tracer (:mod:`repro.obs`) records, every executed node is also a
``sql.<Op>`` span carrying those actuals, and they accumulate as
``sql.op.<kind>.rows_out`` / ``.bytes_scanned`` / ``.spill_rows``
counters in the Prometheus-exported registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class PlanNode:
    """One operator of a plan tree, with its estimate and measured actuals.

    ``rows_est`` is the cost-based planner's estimate; the other counts
    and ``seconds`` are filled when the node runs.  ``bytes_scanned`` is
    the raw size of the column data an operator touched (scan-type
    operators).  ``spilled_rows`` counts rows that fell off the columnar
    fast path onto a per-row Python loop in this operator's own code —
    there is no disk spill in this engine, so "spill" measures the
    analogous cliff: work leaving vectorized numpy kernels.
    """

    op: str
    detail: str = ""
    rows_in: int | None = None
    rows_out: int | None = None
    rows_est: int | None = None
    bytes_scanned: int | None = None
    spilled_rows: int | None = None
    seconds: float = 0.0
    children: list = field(default_factory=list)
    #: What the executor runs for this node (never rendered or compared).
    _args: Any = field(default=None, repr=False, compare=False)

    @property
    def label(self) -> str:
        """Operator name plus its detail, if any."""
        return f"{self.op} {self.detail}".rstrip()


def _format_bytes(n: int) -> str:
    """Human byte size with one-letter unit (``4.2MB``, ``978B``)."""
    size = float(n)
    for unit in ("B", "kB", "MB", "GB"):
        if size < 1024.0 or unit == "GB":
            return f"{size:.1f}{unit}" if unit != "B" else f"{int(size)}B"
        size /= 1024.0
    return f"{int(size)}B"  # pragma: no cover - unreachable


def format_plan(node: PlanNode, include_time: bool = True) -> str:
    """Render a plan tree with per-operator wall time and row counts.

    Estimated rows (``est=``, from the cost-based planner) print after the
    actual counts so estimated-vs-actual can be read off each line.  Pure
    ``EXPLAIN`` (no execution) renders with ``include_time=False``, showing
    estimates only.
    """
    lines: list[str] = []

    def visit(node: PlanNode, prefix: str, connector: str, child_prefix: str) -> None:
        stats = [f"time={node.seconds * 1e3:.2f}ms"] if include_time else []
        if node.rows_in is not None and node.rows_in != node.rows_out:
            stats.append(f"in={node.rows_in}")
            if node.rows_out is not None:
                stats.append(f"out={node.rows_out}")
        elif node.rows_out is not None:
            stats.append(f"rows={node.rows_out}")
        if node.rows_est is not None:
            stats.append(f"est={node.rows_est}")
        if node.bytes_scanned is not None:
            stats.append(f"bytes={_format_bytes(node.bytes_scanned)}")
        if node.spilled_rows:
            stats.append(f"spill={node.spilled_rows}")
        label = f"{prefix}{connector}{node.label}"
        lines.append(f"{label:<45s} {' '.join(stats)}".rstrip())
        for i, child in enumerate(node.children):
            last = i == len(node.children) - 1
            visit(
                child,
                child_prefix,
                "└─ " if last else "├─ ",
                child_prefix + ("   " if last else "│  "),
            )

    visit(node, "", "", "")
    return "\n".join(lines)
