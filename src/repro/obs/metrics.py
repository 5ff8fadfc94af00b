"""Metric instruments: counters, gauges and timing histograms.

Instruments are created lazily through a :class:`MetricsRegistry` (the
process-wide one lives on the tracer; see :mod:`repro.obs.tracer`) and
aggregate in memory until exported.  A counter accumulates increments, a
gauge keeps the last value, and a timing histogram records observations in
seconds with exact count/total/min/max plus percentile estimates from a
bounded sample of the most recent observations.
"""

from __future__ import annotations

import bisect
import threading

import numpy as np

#: Timing histograms keep the most recent this-many raw observations for
#: percentile estimates; count/total/min/max stay exact past the cap.
_HISTOGRAM_SAMPLE_CAP = 4096

#: Upper bounds (seconds) of the exposition buckets every timing histogram
#: maintains exactly — counts are bumped on :meth:`TimingHistogram.observe`
#: rather than reconstructed from the bounded sample, so bucket totals stay
#: correct past the sample cap.  The implicit ``+Inf`` bucket rides along.
DEFAULT_BUCKET_BOUNDS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing total.

    ``help`` is the human description served on ``/metrics`` ``# HELP``
    lines; ``history`` is the per-instrument time-series hook installed by
    :meth:`MetricsRegistry.set_history` — ``None`` (the default) keeps the
    hot path at a single attribute check.
    """

    __slots__ = ("name", "value", "help", "history")

    def __init__(self, name: str, help: str | None = None) -> None:
        self.name = name
        self.value = 0.0
        self.help = help
        self.history = None

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (default 1) to the counter."""
        self.value += n
        history = self.history
        if history is not None:
            history(self.value)


class Gauge:
    """A point-in-time value; each ``set`` overwrites the last."""

    __slots__ = ("name", "value", "help", "history")

    def __init__(self, name: str, help: str | None = None) -> None:
        self.name = name
        self.value = 0.0
        self.help = help
        self.history = None

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)
        history = self.history
        if history is not None:
            history(self.value)


class TimingHistogram:
    """Distribution of durations (seconds).

    >>> h = TimingHistogram("build")
    >>> for t in (0.1, 0.2, 0.3):
    ...     h.observe(t)
    >>> h.count, round(h.total, 3), round(h.mean, 3)
    (3, 0.6, 0.2)
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "bucket_bounds", "_bucket_counts", "_samples", "help", "history")

    def __init__(
        self, name: str, bucket_bounds: tuple[float, ...] = DEFAULT_BUCKET_BOUNDS,
        help: str | None = None,
    ) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.bucket_bounds = tuple(sorted(bucket_bounds))
        #: Per-bucket (non-cumulative) counts; the last slot is +Inf.
        self._bucket_counts = [0] * (len(self.bucket_bounds) + 1)
        self._samples: list[float] = []
        self.help = help
        self.history = None

    def observe(self, seconds: float) -> None:
        """Record one duration."""
        seconds = float(seconds)
        samples = self._samples
        if len(samples) < _HISTOGRAM_SAMPLE_CAP:
            samples.append(seconds)
        else:  # full: the oldest observation's slot
            samples[self.count % _HISTOGRAM_SAMPLE_CAP] = seconds
        self.count += 1
        self.total += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if seconds > self.maximum:
            self.maximum = seconds
        self._bucket_counts[bisect.bisect_left(self.bucket_bounds, seconds)] += 1
        history = self.history
        if history is not None:
            history(seconds)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` pairs ending at +Inf.

        >>> h = TimingHistogram("t", bucket_bounds=(0.1, 1.0))
        >>> for t in (0.05, 0.5, 2.0):
        ...     h.observe(t)
        >>> h.cumulative_buckets()
        [(0.1, 1), (1.0, 2), (inf, 3)]
        """
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(
            (*self.bucket_bounds, float("inf")), self._bucket_counts
        ):
            running += count
            out.append((bound, running))
        return out

    @property
    def mean(self) -> float:
        """Average observed duration (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the most recent 4,096
        observations, linear-interpolated as :func:`numpy.percentile`."""
        if not self._samples:
            return 0.0
        return float(np.percentile(np.asarray(self._samples), q))

    def as_dict(self) -> dict:
        """Exportable summary of this histogram."""
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def dump_state(self) -> dict:
        """Full mergeable state (exact totals, buckets, bounded sample)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "bounds": list(self.bucket_bounds),
            "buckets": list(self._bucket_counts),
            "samples": list(self._samples),
        }

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`dump_state` into this one.

        Exact statistics (count/total/min/max) always merge exactly;
        bucket counts merge exactly when the bounds agree (they do for
        every histogram this package creates) and are otherwise
        reconstructed from the bounded sample.  The other sample folds in
        as if observed after this one's, so percentiles stay estimates
        over the most recent 4,096 samples, as for a single process.
        """
        count = int(state.get("count", 0))
        if not count:
            return
        position = self.count
        self.count += count
        self.total += float(state.get("total", 0.0))
        self.minimum = min(self.minimum, float(state.get("min", self.minimum)))
        self.maximum = max(self.maximum, float(state.get("max", self.maximum)))
        samples = state.get("samples", [])
        if tuple(state.get("bounds", ())) == self.bucket_bounds:
            for i, n in enumerate(state.get("buckets", [])):
                self._bucket_counts[i] += int(n)
        else:  # pragma: no cover - foreign bounds only via hand-built states
            for seconds in samples:
                self._bucket_counts[
                    bisect.bisect_left(self.bucket_bounds, seconds)
                ] += 1
        kept = self._samples
        for seconds in samples:
            if len(kept) < _HISTOGRAM_SAMPLE_CAP:
                kept.append(seconds)
            else:
                kept[position % _HISTOGRAM_SAMPLE_CAP] = seconds
            position += 1


class MetricsRegistry:
    """Lazily-created named instruments, one namespace per kind.

    Instrument creation and whole-registry reads take an internal lock so a
    serving thread (the ``/metrics`` endpoint scraping mid-run) never
    iterates a dict that an ingest thread is growing.  Updates on an
    already-created instrument are plain attribute writes — each scrape
    sees a consistent instrument list and at-least-as-old values.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.timings: dict[str, TimingHistogram] = {}
        #: The attached time-series store (see :meth:`set_history`), if any.
        self._history = None

    def counter(self, name: str, help: str | None = None) -> Counter:
        """Get or create the counter ``name`` (``help`` feeds ``# HELP``)."""
        instrument = self.counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.counters.setdefault(name, Counter(name, help=help))
                if self._history is not None and instrument.history is None:
                    instrument.history = self._history.recorder(name, kind="counter")
        if help is not None and instrument.help is None:
            instrument.help = help
        return instrument

    def gauge(self, name: str, help: str | None = None) -> Gauge:
        """Get or create the gauge ``name`` (``help`` feeds ``# HELP``)."""
        instrument = self.gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.gauges.setdefault(name, Gauge(name, help=help))
                if self._history is not None and instrument.history is None:
                    instrument.history = self._history.recorder(name, kind="gauge")
        if help is not None and instrument.help is None:
            instrument.help = help
        return instrument

    def timing(self, name: str, help: str | None = None) -> TimingHistogram:
        """Get or create the timing histogram ``name``."""
        instrument = self.timings.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.timings.setdefault(
                    name, TimingHistogram(name, help=help)
                )
                if self._history is not None and instrument.history is None:
                    instrument.history = self._history.recorder(name, kind="timing")
        if help is not None and instrument.help is None:
            instrument.help = help
        return instrument

    def set_history(self, store) -> None:
        """Attach (or with ``None`` detach) a time-series history store.

        While attached, every instrument update also appends to the
        store: counters record their cumulative value, gauges their
        current value, timing histograms each observed duration.
        Existing and future instruments are both wired; detaching resets
        every instrument's hook to the free ``None`` path.
        """
        with self._lock:
            self._history = store
            for kind, instruments in (
                ("counter", self.counters),
                ("gauge", self.gauges),
                ("timing", self.timings),
            ):
                for name, instrument in instruments.items():
                    instrument.history = (
                        None if store is None else store.recorder(name, kind=kind)
                    )

    @property
    def history(self):
        """The attached time-series store, or ``None``."""
        return self._history

    def reset(self) -> None:
        """Drop every instrument (an attached history store stays attached)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.timings.clear()

    def instruments(self) -> tuple[list[Counter], list[Gauge], list[TimingHistogram]]:
        """Name-sorted, point-in-time instrument lists (safe to iterate)."""
        with self._lock:
            return (
                [c for _, c in sorted(self.counters.items())],
                [g for _, g in sorted(self.gauges.items())],
                [t for _, t in sorted(self.timings.items())],
            )

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument, sorted by name."""
        counters, gauges, timings = self.instruments()
        return {
            "counters": {c.name: c.value for c in counters},
            "gauges": {g.name: g.value for g in gauges},
            "timings": {t.name: t.as_dict() for t in timings},
        }

    def dump_state(self) -> dict:
        """Picklable full state for cross-process merging (see tracer.adopt)."""
        counters, gauges, timings = self.instruments()
        return {
            "counters": {c.name: c.value for c in counters},
            "gauges": {g.name: g.value for g in gauges},
            "timings": {t.name: t.dump_state() for t in timings},
        }

    def merge_state(self, state: dict) -> None:
        """Fold a :meth:`dump_state` from another process into this registry.

        Counters add, gauges take the incoming value (last write wins,
        matching single-process semantics), timing histograms merge their
        exact statistics and bounded samples.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, hist_state in state.get("timings", {}).items():
            self.timing(name).merge_state(hist_state)
