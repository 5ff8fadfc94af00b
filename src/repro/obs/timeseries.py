"""In-process time-series storage with retention and downsampling rollups.

The serving layer (PR 3/7) exposed *instantaneous* gauges; the paper's
argument is that decentralization must be watched **over time** — the
Jan-14-2019 anomaly is only visible against thirteen days of history.
This module is the retention substrate: a dependency-free
:class:`TimeSeriesStore` that keeps, per series,

* a **raw ring buffer** of the most recent ``(timestamp, value)`` points
  (bounded, O(1) append), and
* **downsampling rollups** — by default 1-minute and 10-minute buckets,
  each holding exact ``count``/``sum``/``min``/``max`` plus a bounded
  :class:`QuantileSketch` — so history survives long after the raw ring
  has wrapped, at a resolution that degrades gracefully with age.

Every existing counter/gauge/timing gets history for free through the
registry hook: :meth:`~repro.obs.metrics.MetricsRegistry.set_history`
wires each instrument's updates into a store.  With no store attached the
per-update cost is a single ``is None`` check — the disabled path is
budgeted (<2% of the BTC sliding sweep) in
``benchmarks/bench_perf_timeseries.py``, same contract as the tracer and
profiler.

The store is clock-injectable (pass a callable or a
:class:`~repro.resilience.retry.Clock`), so the SLO engine's burn-rate
windows (:mod:`repro.obs.slo`) evaluate on a
:class:`~repro.resilience.retry.ManualClock` in tests.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ValidationError

#: Raw points kept per series before the ring wraps.
DEFAULT_RAW_CAPACITY = 4096

#: Default rollup levels as ``(resolution_seconds, retention_seconds)``:
#: 1-minute buckets for 6 hours, 10-minute buckets for 3 days — the spans
#: the slow burn-rate windows in :mod:`repro.obs.slo` need.
DEFAULT_LEVELS: tuple[tuple[float, float], ...] = (
    (60.0, 6 * 3600.0),
    (600.0, 3 * 86400.0),
)

#: Values kept per rollup bucket for quantile estimates.
_SKETCH_CAP = 64


def _resolve_clock(clock) -> Callable[[], float]:
    """Accept a plain callable, a Clock-like object, or None (wall time)."""
    if clock is None:
        return time.time
    monotonic = getattr(clock, "monotonic", None)
    if monotonic is not None:
        return monotonic
    if callable(clock):
        return clock
    raise ValidationError(f"clock must be callable or have .monotonic, got {clock!r}")


class QuantileSketch:
    """A bounded value sample for quantile estimates inside one bucket.

    Uses deterministic reservoir sampling (a small LCG seeded from the
    stream length) so repeated runs over the same data give identical
    quantiles — the same reproducibility contract as the rest of the
    pipeline.

    >>> sketch = QuantileSketch()
    >>> for v in range(100):
    ...     sketch.add(float(v))
    >>> 40.0 <= sketch.quantile(0.5) <= 60.0
    True
    """

    __slots__ = ("_values", "_seen", "_state", "capacity")

    def __init__(self, capacity: int = _SKETCH_CAP) -> None:
        if capacity < 1:
            raise ValidationError(f"sketch capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._values: list[float] = []
        self._seen = 0
        self._state = 0x9E3779B9

    def add(self, value: float) -> None:
        """Fold one value into the sketch."""
        self.add_many((value,))

    def add_many(self, values: Sequence[float]) -> None:
        """Fold ``values`` in order: fill the sample to ``capacity``, then
        replace a slot when a deterministic LCG draw in ``[0, seen)`` lands
        in it (the classic reservoir rule)."""
        kept = self._values
        room = self.capacity - len(kept)
        if room > 0:
            kept.extend(values[:room])
            self._seen = len(kept)
            values = values[room:]
        state, seen, capacity = self._state, self._seen, self.capacity
        for value in values:
            seen += 1
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            slot = state % seen
            if slot < capacity:
                kept[slot] = value
        self._state, self._seen = state, seen

    @property
    def seen(self) -> int:
        """Total values ever added (may exceed the retained sample)."""
        return self._seen

    def quantile(self, q: float) -> float:
        """The ``q``-th quantile (0..1, clamped) of the retained sample,
        linear-interpolated as :func:`numpy.quantile` (0.0 if empty)."""
        if not self._values:
            return 0.0
        return float(np.quantile(self._values, min(max(q, 0.0), 1.0)))


class Bucket:
    """One rollup bucket: exact aggregates plus a quantile sketch."""

    __slots__ = ("start", "count", "total", "minimum", "maximum", "sketch")

    def __init__(self, start: float) -> None:
        self.start = start
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.sketch = QuantileSketch()

    def add(self, value: float) -> None:
        self.add_many((value,))

    def add_many(self, values: Sequence[float]) -> None:
        """Fold ``values`` in order.

        The total is a sequential ``+=`` loop, so a batch sums exactly as
        its points would one at a time: ``sum()`` of floats is compensated
        since Python 3.12 and would differ in the last bits.  ``min``/``max``
        start from the running extreme and replace it only on a strict
        ``<``/``>``, so a NaN never becomes an extreme.
        """
        if not values:
            return
        self.count += len(values)
        total = self.total
        for value in values:
            total += value
        self.total = total
        self.minimum = min(self.minimum, *values)
        self.maximum = max(self.maximum, *values)
        self.sketch.add_many(values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """JSON-ready view served by ``/api/v1/series``."""
        return {
            "ts": self.start,
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "p50": self.sketch.quantile(0.50),
            "p95": self.sketch.quantile(0.95),
        }


class RollupLevel:
    """A bounded sequence of fixed-resolution buckets for one series."""

    __slots__ = ("resolution", "retention", "_buckets")

    def __init__(self, resolution: float, retention: float) -> None:
        if resolution <= 0:
            raise ValidationError(f"resolution must be positive, got {resolution}")
        if retention < resolution:
            raise ValidationError(
                f"retention {retention} is shorter than one {resolution}s bucket"
            )
        self.resolution = resolution
        self.retention = retention
        max_buckets = max(int(retention // resolution), 1)
        self._buckets: deque[Bucket] = deque(maxlen=max_buckets)

    def record(self, ts: float, value: float) -> None:
        """Fold one point into its bucket (out-of-order folds backwards)."""
        self.record_many((ts,), (value,))

    def record_many(self, timestamps: Sequence[float], values: Sequence[float]) -> None:
        """Fold points in order, each into its bucket.

        Each run of consecutive points that share a bucket start folds
        into its bucket at once.  A NaN start never equals the previous
        one, so it forms a run of its own, as it would a bucket.
        """
        resolution = self.resolution
        n = len(timestamps)
        begin = 0
        while begin < n:
            ts = timestamps[begin]
            start = ts - (ts % resolution)
            end = begin + 1
            while end < n:
                ts = timestamps[end]
                if ts - (ts % resolution) != start:
                    break
                end += 1
            bucket = self._bucket_for(start)
            if bucket is not None:
                bucket.add_many(values[begin:end])
            begin = end

    def _bucket_for(self, start: float) -> Bucket | None:
        """The bucket starting at ``start``: the newest, a retained older one
        (a late arrival), a new one, or None when it is older than the
        retained window (the point is dropped)."""
        buckets = self._buckets
        if buckets:
            newest = buckets[-1]
            if newest.start == start:
                return newest
            if start < newest.start:
                for bucket in reversed(buckets):
                    if bucket.start == start:
                        return bucket
                    if bucket.start < start:
                        break
                return None
        bucket = Bucket(start)
        buckets.append(bucket)
        return bucket

    def buckets(self, start: float | None = None, end: float | None = None) -> list[Bucket]:
        """Retained buckets overlapping ``[start, end]``, oldest first."""
        out = []
        for bucket in self._buckets:
            if start is not None and bucket.start + self.resolution <= start:
                continue
            if end is not None and bucket.start > end:
                continue
            out.append(bucket)
        return out

    def __len__(self) -> int:
        return len(self._buckets)


class Series:
    """One named series: a raw ring plus its rollup levels."""

    __slots__ = ("name", "kind", "_ts", "_values", "_capacity", "_next", "_count",
                 "levels")

    def __init__(
        self,
        name: str,
        capacity: int = DEFAULT_RAW_CAPACITY,
        levels: Iterable[tuple[float, float]] = DEFAULT_LEVELS,
        kind: str = "value",
    ) -> None:
        if capacity < 1:
            raise ValidationError(f"raw capacity must be >= 1, got {capacity}")
        self.name = name
        self.kind = kind
        self._capacity = capacity
        self._ts: list[float] = []
        self._values: list[float] = []
        self._next = 0
        self._count = 0
        self.levels = [RollupLevel(res, ret) for res, ret in levels]

    def record(self, ts: float, value: float) -> None:
        self.record_many((ts,), (value,))

    def record_many(self, timestamps: Sequence[float], values: Sequence[float]) -> None:
        """Append points in order: the raw ring keeps the newest ``capacity``,
        and every point folds into each rollup level."""
        n = len(timestamps)
        if n != len(values):
            raise ValidationError(f"{n} timestamps for {len(values)} values")
        self._count += n
        for level in self.levels:
            level.record_many(timestamps, values)
        capacity = self._capacity
        room = capacity - len(self._ts)
        if room > 0:  # still filling: _next == len(_ts)
            self._ts.extend(timestamps[:room])
            self._values.extend(values[:room])
            self._next = len(self._ts) % capacity
            timestamps, values = timestamps[room:], values[room:]
        n = len(timestamps)
        if n > capacity:  # only the newest ring-full survives
            self._next = (self._next + n - capacity) % capacity
            timestamps, values, n = timestamps[-capacity:], values[-capacity:], capacity
        if n:
            begin = self._next
            head = min(n, capacity - begin)
            self._ts[begin:begin + head] = timestamps[:head]
            self._values[begin:begin + head] = values[:head]
            self._ts[:n - head] = timestamps[head:]
            self._values[:n - head] = values[head:]
            self._next = (begin + n) % capacity

    @property
    def total_points(self) -> int:
        """Points ever recorded (the ring retains at most ``capacity``)."""
        return self._count

    def raw_points(
        self, start: float | None = None, end: float | None = None
    ) -> list[tuple[float, float]]:
        """Retained raw ``(ts, value)`` points in arrival order."""
        n = len(self._ts)
        if n < self._capacity:
            order = range(n)
        else:
            order = [(self._next + i) % self._capacity for i in range(n)]
        out = []
        for i in order:
            ts = self._ts[i]
            if start is not None and ts < start:
                continue
            if end is not None and ts > end:
                continue
            out.append((ts, self._values[i]))
        return out

    def latest(self) -> tuple[float, float] | None:
        """The most recent ``(ts, value)``, or None when empty."""
        if not self._ts:
            return None
        index = (self._next - 1) % self._capacity if self._ts else 0
        if len(self._ts) < self._capacity:
            index = len(self._ts) - 1
        return (self._ts[index], self._values[index])


class TimeSeriesStore:
    """Thread-safe, bounded, in-process metric history.

    >>> store = TimeSeriesStore(clock=lambda: 0.0)
    >>> store.record("demo", 1.0, ts=0.0)
    >>> store.record("demo", 3.0, ts=1.0)
    >>> [p["value"] for p in store.query("demo")["points"]]
    [1.0, 3.0]

    A serving thread (``/api/v1/series``) reads while the ingest thread
    records; both take the store lock, and every query returns fresh
    lists, never internal state.
    """

    def __init__(
        self,
        raw_capacity: int = DEFAULT_RAW_CAPACITY,
        levels: Iterable[tuple[float, float]] = DEFAULT_LEVELS,
        clock=None,
    ) -> None:
        self._lock = threading.RLock()
        self._series: dict[str, Series] = {}
        self._raw_capacity = raw_capacity
        self._levels = tuple(levels)
        self._now = _resolve_clock(clock)

    def now(self) -> float:
        """The store's current clock reading."""
        return self._now()

    # -- recording ------------------------------------------------------------

    def series(self, name: str, kind: str = "value") -> Series:
        """Get or create the series ``name``."""
        existing = self._series.get(name)
        if existing is not None:
            return existing
        with self._lock:
            return self._series.setdefault(
                name, Series(name, self._raw_capacity, self._levels, kind=kind)
            )

    def record(self, name: str, value: float, ts: float | None = None,
               kind: str = "value") -> None:
        """Append one point to ``name`` (now-stamped unless ``ts`` given)."""
        series = self.series(name, kind=kind)
        with self._lock:
            series.record(self._now() if ts is None else float(ts), float(value))

    def record_many(self, name: str, timestamps: Sequence[float],
                    values: Sequence[float], kind: str = "value") -> None:
        """Append stamped points to ``name`` under one lock.

        The store ends up as one :meth:`record` per ``(ts, value)`` pair,
        in order, would leave it: the same raw ring, bucket aggregates and
        quantile sketches.
        """
        series = self.series(name, kind=kind)
        timestamps = list(map(float, timestamps))
        values = list(map(float, values))
        with self._lock:
            series.record_many(timestamps, values)

    def recorder(self, name: str, kind: str = "value") -> Callable[[float], None]:
        """A single-argument callback recording into ``name``.

        This is what :meth:`~repro.obs.metrics.MetricsRegistry.set_history`
        installs on each instrument — one bound callable per instrument,
        so the hot path does no dict lookups.
        """
        series = self.series(name, kind=kind)
        lock = self._lock
        now = self._now

        def record(value: float) -> None:
            with lock:
                series.record(now(), float(value))

        return record

    # -- querying -------------------------------------------------------------

    def series_names(self) -> list[str]:
        """Sorted names of every series with at least one point."""
        with self._lock:
            return sorted(
                name for name, s in self._series.items() if s.total_points
            )

    def latest(self, name: str) -> tuple[float, float] | None:
        """Most recent ``(ts, value)`` of ``name``, or None."""
        with self._lock:
            series = self._series.get(name)
            return series.latest() if series is not None else None

    def raw_points(
        self, name: str, start: float | None = None, end: float | None = None
    ) -> list[tuple[float, float]]:
        """Raw retained points of ``name`` in ``[start, end]``."""
        with self._lock:
            series = self._series.get(name)
            return series.raw_points(start, end) if series is not None else []

    def tail_values(self, name: str, n: int) -> list[float]:
        """The last ``n`` raw values of ``name`` (for sparklines)."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                return []
            points = series.raw_points()
        return [value for _, value in points[-n:]]

    def query(
        self,
        name: str,
        start: float | None = None,
        end: float | None = None,
        step: float | None = None,
    ) -> dict:
        """A JSON-ready slice of ``name`` at the resolution fitting ``step``.

        ``step`` picks the level: ``None``/small steps read the raw ring
        (``{"ts", "value"}`` points), larger steps read the coarsest
        rollup whose resolution still fits (``{"ts", "count", "mean",
        "min", "max", "p50", "p95"}`` buckets).  Raises :class:`KeyError`
        for an unknown series — the HTTP layer maps that onto 404.
        """
        with self._lock:
            series = self._series.get(name)
            if series is None or not series.total_points:
                raise KeyError(name)
            level = None
            if step is not None:
                for candidate in series.levels:
                    if candidate.resolution <= step:
                        level = candidate
            if level is None:
                points = [
                    {"ts": ts, "value": value}
                    for ts, value in series.raw_points(start, end)
                ]
                resolution = 0.0
            else:
                points = [b.as_dict() for b in level.buckets(start, end)]
                resolution = level.resolution
        return {
            "name": name,
            "kind": series.kind,
            "start": start,
            "end": end,
            "step": resolution,
            "points": points,
        }

    def stats(self) -> dict:
        """Store-wide footprint summary for ``/status``."""
        with self._lock:
            names = [s for s in self._series.values() if s.total_points]
            return {
                "series": len(names),
                "points_recorded": sum(s.total_points for s in names),
                "raw_capacity": self._raw_capacity,
                "levels": [
                    {"resolution": res, "retention": ret}
                    for res, ret in self._levels
                ],
            }


def attach_history(registry, store: TimeSeriesStore | None = None,
                   clock=None) -> TimeSeriesStore:
    """Wire ``registry``'s instruments into a store (creating one if needed).

    Convenience wrapper over
    :meth:`~repro.obs.metrics.MetricsRegistry.set_history`; returns the
    attached store.  Detach with ``registry.set_history(None)``.
    """
    if store is None:
        store = TimeSeriesStore(clock=clock)
    registry.set_history(store)
    return store
