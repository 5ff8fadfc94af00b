"""Streaming decentralization monitoring.

The paper motivates sliding windows with timeliness: discovering abnormal
changes as they happen, not at the end of a calendar interval.  This
module is that deployment story: a :class:`StreamingMonitor` ingests
blocks one at a time, maintains the trailing-N-blocks credit distribution
incrementally (O(producers-per-block) per push) and recomputes the metrics
every ``stride`` blocks — the sliding step M.  It only measures:
:meth:`StreamingMonitor.push` reports whether it completed a window
evaluation, and an :class:`~repro.obs.alerts.AlertManager` turns the
latest values into alerts.

>>> from repro.obs.alerts import AlertManager, AlertRule
>>> monitor = StreamingMonitor(window_size=4, stride=2, metrics=("nakamoto",))
>>> manager = AlertManager()
>>> manager.add_rule(AlertRule("nakamoto-below-2", metric="nakamoto", below=2))
>>> feed = [["a"], ["b"], ["c"], ["d"]] + [["a"]] * 4 + [["b"], ["c"]]
>>> for producers in feed:
...     if monitor.push(producers):
...         for event in manager.evaluate(monitor.latest()):
...             print(monitor.blocks_seen, event.state, event.message)
8 firing nakamoto=1.0000 (below 2)
10 resolved nakamoto=2.0000 (below 2)
"""

from __future__ import annotations

from typing import Sequence

from repro import obs
from repro.core.rolling import RollingHistogram
from repro.errors import MeasurementError
from repro.metrics.base import DistributionBatch, Metric, compute_batch, get_metric


class StreamingMonitor:
    """Incremental sliding-window measurement over a block feed."""

    def __init__(
        self,
        window_size: int,
        stride: int | None = None,
        metrics: Sequence[str | Metric] = ("gini", "entropy", "nakamoto"),
    ) -> None:
        if window_size <= 0:
            raise MeasurementError(f"window_size must be positive, got {window_size}")
        if stride is None:
            stride = max(window_size // 2, 1)
        if stride <= 0:
            raise MeasurementError(f"stride must be positive, got {stride}")
        self.window_size = window_size
        self.stride = stride
        self._metrics = [
            get_metric(metric) if isinstance(metric, str) else metric
            for metric in metrics
        ]
        self._window = RollingHistogram(capacity=window_size)
        self._block_count = 0
        self._history: dict[str, list[tuple[int, float]]] = {
            metric.name: [] for metric in self._metrics
        }

    # -- ingestion --------------------------------------------------------------

    def push(self, producers: Sequence[str], fractional: bool = False) -> bool:
        """Ingest one block; True if it completed a window evaluation.

        ``producers`` are the block's payout addresses (usually one).
        With ``fractional`` each address gets ``1/k`` credit, otherwise
        each gets a full credit (the paper's per-address policy).
        """
        if not producers:
            raise MeasurementError("a block needs at least one producer")
        weight_each = 1.0 / len(producers) if fractional else 1.0
        self._window.push(producers, weight_each)
        self._block_count += 1
        if (
            self._block_count < self.window_size
            or (self._block_count - self.window_size) % self.stride != 0
        ):
            return False
        self._evaluate()
        return True

    def _evaluate(self) -> None:
        # One-row batch so every monitored metric shares a single sort of
        # the current window's distribution.
        with obs.span("streaming.evaluate", block_count=self._block_count):
            batch = DistributionBatch.from_distributions(
                [self._window.distribution()]
            )
            for metric in self._metrics:
                value = float(compute_batch(metric, batch)[0])
                self._history[metric.name].append((self._block_count, value))
        obs.counter("streaming.evaluations")

    # -- inspection -----------------------------------------------------------------

    @property
    def blocks_seen(self) -> int:
        """Total blocks pushed so far."""
        return self._block_count

    @property
    def metric_names(self) -> tuple[str, ...]:
        """Names of the monitored metrics, in registration order."""
        return tuple(self._history)

    @property
    def evaluations(self) -> int:
        """How many window evaluations have run so far."""
        return len(next(iter(self._history.values()), ()))

    def latest(self) -> dict[str, float]:
        """Most recent value per monitored metric (empty before 1st window)."""
        return {
            name: history[-1][1]
            for name, history in self._history.items()
            if history
        }

    def current(self, metric: str) -> float:
        """Compute ``metric`` over the current window immediately."""
        if self._window.n_blocks == 0:
            raise MeasurementError("no blocks in the window yet")
        resolved = get_metric(metric)
        return float(resolved.compute(self._window.distribution()))

    def history(self, metric: str) -> list[tuple[int, float]]:
        """(block_count, value) pairs of all evaluations for ``metric``."""
        try:
            return list(self._history[metric])
        except KeyError:
            raise MeasurementError(f"metric {metric!r} is not monitored") from None

    def producers_in_window(self) -> int:
        """Distinct producers currently in the window."""
        return self._window.n_active
