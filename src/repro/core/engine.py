"""The measurement engine.

Binds a chain's credits to metrics and window families:

>>> from repro.core import MeasurementEngine
>>> from repro.simulation import simulate_bitcoin_2019
>>> engine = MeasurementEngine.from_chain(simulate_bitcoin_2019())  # doctest: +SKIP
>>> daily_gini = engine.measure_calendar("gini", "day")             # doctest: +SKIP
>>> weekly_sliding = engine.measure_sliding("entropy", size=1008)   # doctest: +SKIP
"""

from __future__ import annotations

import logging
from typing import Sequence

import numpy as np

from repro import obs
from repro.chain.attribution import Credits, attribute
from repro.chain.chain import Chain
from repro.chain.pools import PoolRegistry
from repro.core.series import MeasurementSeries
from repro.errors import MeasurementError
from repro.metrics.base import DistributionBatch, Metric, compute_batch, get_metric
from repro.windows.base import BlockWindow, TimeWindow, Window
from repro.windows.fixed import FixedCalendarWindows
from repro.windows.sliding import SlidingBlockWindows
from repro.windows.timesliding import SlidingTimeWindows

logger = logging.getLogger(__name__)


class MeasurementEngine:
    """Computes decentralization series over one chain's credits."""

    def __init__(self, credits: Credits, quality: dict | None = None) -> None:
        self.credits = credits
        #: Ingest data-quality report stamped onto every series this
        #: engine produces (``None`` for a clean/direct ingest).
        self.quality = quality

    @classmethod
    def from_chain(
        cls,
        chain: Chain,
        policy: str = "per-address",
        registry: PoolRegistry | None = None,
        quality: dict | None = None,
        workers: int | str | None = None,
    ) -> "MeasurementEngine":
        """Attribute ``chain`` under ``policy`` and wrap the credits.

        ``workers`` is accepted for compatibility and unused: attribution
        and the engine's sweeps always run in-process (the study
        parallelizes across chains instead; see ``docs/PARALLELISM.md``).
        """
        return cls(
            attribute(chain, policy=policy, registry=registry), quality=quality
        )

    # -- generic measurement -----------------------------------------------------

    def measure(
        self,
        metric: str | Metric,
        windows: Sequence[Window],
        window_desc: str | None = None,
    ) -> MeasurementSeries:
        """Compute ``metric`` over each window; empty windows are skipped.

        This is the reference per-window loop: it recomputes each window's
        distribution from its credit slice and dispatches one metric call
        per window.  :meth:`measure_many` and :meth:`measure_sliding` build
        on faster batched/incremental paths that must agree with it.
        """
        resolved = get_metric(metric) if isinstance(metric, str) else metric
        indices: list[int] = []
        labels: list[str] = []
        values: list[float] = []
        skipped = 0
        with obs.span(
            "engine.measure", metric=resolved.name, windows=len(windows)
        ):
            for window in windows:
                lo, hi = self._credit_range(window)
                if hi <= lo:
                    skipped += 1
                    continue
                distribution = self.credits.distribution(lo, hi)
                indices.append(window.index)
                labels.append(window.label)
                values.append(float(resolved.compute(distribution)))
        return MeasurementSeries(
            chain_name=self.credits.chain_name,
            metric_name=resolved.name,
            window_desc=window_desc or _describe(windows),
            indices=np.asarray(indices, dtype=np.int64),
            labels=tuple(labels),
            values=np.asarray(values, dtype=np.float64),
            skipped=skipped,
            quality=self.quality,
        )

    def measure_many(
        self,
        metrics: Sequence[str | Metric],
        windows: Sequence[Window],
        window_desc: str | None = None,
    ) -> dict[str, MeasurementSeries]:
        """Compute several metrics over one window sweep.

        Each window's distribution is built exactly once and every metric
        is evaluated over the whole sweep at once through
        :func:`~repro.metrics.base.compute_batch`, so metrics with
        vectorized kernels share a single sort per window.  Returns one
        series per metric, keyed by metric name.
        """
        resolved = [get_metric(m) if isinstance(m, str) else m for m in metrics]
        indices: list[int] = []
        labels: list[str] = []
        distributions: list[np.ndarray] = []
        skipped = 0
        with obs.span(
            "engine.measure_many",
            metrics=[m.name for m in resolved],
            windows=len(windows),
        ):
            for window in windows:
                lo, hi = self._credit_range(window)
                if hi <= lo:
                    skipped += 1
                    continue
                distributions.append(self.credits.distribution(lo, hi))
                indices.append(window.index)
                labels.append(window.label)
            batch = DistributionBatch.from_distributions(distributions)
        return self._series_from_batch(
            resolved,
            batch,
            indices=np.asarray(indices, dtype=np.int64),
            labels=tuple(labels),
            skipped=skipped,
            window_desc=window_desc or _describe(windows),
        )

    def measure_calendar_many(
        self,
        metrics: Sequence[str | Metric],
        granularity: str,
    ) -> dict[str, MeasurementSeries]:
        """Several metrics over one fixed-calendar sweep (one pass)."""
        windows = FixedCalendarWindows(granularity).generate()
        return self.measure_many(metrics, windows, window_desc=f"fixed-{granularity}")

    def measure_sliding_many(
        self,
        metrics: Sequence[str | Metric],
        size: int,
        step: int | None = None,
        workers: int | str | None = None,
    ) -> dict[str, MeasurementSeries]:
        """Several metrics over one sliding sweep.

        Uses the incremental segment-histogram fast path when the family
        decomposes into aligned segments (``size % step == 0``, the
        paper's M = N/2 always does) and its dense histograms fit the
        memory budget; otherwise falls back to the generic batched sweep
        and logs which of the two ruled the fast path out.  A family with
        no window is an empty series on the fast path.  Every call sweeps
        afresh: sweep each family once for all the metrics it needs.
        ``workers`` is accepted for compatibility and unused: the sweep
        always runs in-process.
        """
        generator = SlidingBlockWindows(size, step)
        resolved = [get_metric(m) if isinstance(m, str) else m for m in metrics]
        fast = self._measure_sliding_fast(resolved, generator)
        if fast is not None:
            obs.counter("engine.sliding.fast_path")
            return fast
        obs.counter("engine.sliding.fallback")
        cause = (
            "size % step != 0"
            if generator.size % generator.step
            else "dense histograms over the memory budget"
        )
        logger.warning(
            "sliding sweep size=%d step=%d fell off the incremental fast path "
            "(%s); using the generic per-window sweep",
            generator.size, generator.step, cause,
        )
        windows = generator.generate(self.credits.n_blocks)
        return self.measure_many(
            resolved, windows, window_desc=f"sliding-{generator.size}/{generator.step}"
        )

    def distribution_for(self, window: Window) -> np.ndarray:
        """The per-entity credit distribution inside ``window``."""
        lo, hi = self._credit_range(window)
        return self.credits.distribution(lo, hi)

    def top_entities_for(self, window: Window, k: int = 10) -> list[tuple[str, float]]:
        """The ``k`` heaviest producers inside ``window``."""
        lo, hi = self._credit_range(window)
        return self.credits.top_entities(lo, hi, k)

    # -- the paper's two window families ---------------------------------------------

    def measure_calendar(self, metric: str | Metric, granularity: str) -> MeasurementSeries:
        """Fixed calendar windows (paper §II): ``day``, ``week`` or ``month``."""
        windows = FixedCalendarWindows(granularity).generate()
        return self.measure(metric, windows, window_desc=f"fixed-{granularity}")

    def measure_sliding(
        self,
        metric: str | Metric,
        size: int,
        step: int | None = None,
    ) -> MeasurementSeries:
        """Count-based sliding windows (paper §III); ``step`` defaults to N/2.

        One metric of :meth:`measure_sliding_many`, so the same fast path
        or fallback applies; results match the per-window reference loop.
        """
        resolved = get_metric(metric) if isinstance(metric, str) else metric
        return self.measure_sliding_many([resolved], size, step)[resolved.name]

    def measure_time_sliding(
        self,
        metric: str | Metric,
        duration: int,
        step: int | None = None,
    ) -> MeasurementSeries:
        """Wall-clock sliding windows (extension; see
        :class:`~repro.windows.timesliding.SlidingTimeWindows`)."""
        generator = SlidingTimeWindows(duration, step)
        windows = generator.generate()
        return self.measure(
            metric,
            windows,
            window_desc=f"time-sliding-{generator.duration}/{generator.step}",
        )

    def measure_time_sliding_many(
        self,
        metrics: Sequence[str | Metric],
        duration: int,
        step: int | None = None,
    ) -> dict[str, MeasurementSeries]:
        """Several metrics over one wall-clock sliding sweep.

        Builds each window's distribution once and shares it across all
        metrics through the batched kernels — the time-window counterpart
        of :meth:`measure_sliding_many`.
        """
        generator = SlidingTimeWindows(duration, step)
        windows = generator.generate()
        return self.measure_many(
            metrics,
            windows,
            window_desc=f"time-sliding-{generator.duration}/{generator.step}",
        )

    # -- internals -------------------------------------------------------------------

    def _measure_sliding_fast(
        self,
        metrics: Sequence[Metric],
        generator: SlidingBlockWindows,
    ) -> dict[str, MeasurementSeries] | None:
        """The incremental sliding sweep, or ``None`` when it doesn't apply.

        Derives every window's dense histogram from per-segment partials
        (one pass over the credits per call) and hands the whole sweep to
        the batched metric kernels, once for all ``metrics``.
        """
        size, step = generator.size, generator.step
        with obs.span("engine.sliding_sweep", size=size, step=step):
            matrix = self.credits.sliding_histograms(size, step)
        if matrix is None:
            return None
        n_windows = matrix.shape[0]
        offsets = self.credits.block_offsets
        starts = np.arange(n_windows, dtype=np.int64) * step
        nonempty = offsets[starts + size] > offsets[starts]
        indices = np.flatnonzero(nonempty)
        labels = tuple(
            f"blocks[{int(i) * step}:{int(i) * step + size}]" for i in indices
        )
        rows = matrix if bool(nonempty.all()) else matrix[nonempty]
        return self._series_from_batch(
            metrics,
            DistributionBatch.from_dense(rows),
            indices=indices,
            labels=labels,
            skipped=int(n_windows - indices.size),
            window_desc=f"sliding-{size}/{step}",
        )

    def _series_from_batch(
        self,
        metrics: Sequence[Metric],
        batch: DistributionBatch,
        indices: np.ndarray,
        labels: tuple[str, ...],
        skipped: int,
        window_desc: str,
    ) -> dict[str, MeasurementSeries]:
        result: dict[str, MeasurementSeries] = {}
        for metric in metrics:
            values = (
                compute_batch(metric, batch)
                if batch.n_windows
                else np.zeros(0, dtype=np.float64)
            )
            result[metric.name] = MeasurementSeries(
                chain_name=self.credits.chain_name,
                metric_name=metric.name,
                window_desc=window_desc,
                indices=indices,
                labels=labels,
                values=values,
                skipped=skipped,
                quality=self.quality,
            )
        return result

    def _credit_range(self, window: Window) -> tuple[int, int]:
        if isinstance(window, TimeWindow):
            return self.credits.credit_range_for_time(window.start_ts, window.end_ts)
        if isinstance(window, BlockWindow):
            stop = min(window.stop_block, self.credits.n_blocks)
            start = min(window.start_block, stop)
            return self.credits.credit_range_for_blocks(start, stop)
        raise MeasurementError(f"unsupported window type: {type(window).__name__}")


def _describe(windows: Sequence[Window]) -> str:
    if not windows:
        return "empty"
    first = windows[0]
    if isinstance(first, TimeWindow):
        return f"time-windows[{len(windows)}]"
    return f"block-windows[{len(windows)}]"
