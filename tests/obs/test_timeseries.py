"""Tests for the in-process time-series store (:mod:`repro.obs.timeseries`).

Covers the raw ring (wrap order, window filters), the rollup levels
(bucket alignment, out-of-order folds, retention eviction), query level
selection, the registry history hook, and — as property tests — that
downsampled mean/count stay consistent with the raw points they
summarize, including at retention boundaries, and that a bulk
``record_many`` leaves a store exactly as point-by-point ``record`` does.
"""

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    DEFAULT_RAW_CAPACITY,
    Bucket,
    QuantileSketch,
    RollupLevel,
    Series,
    TimeSeriesStore,
    attach_history,
)


class TestQuantileSketch:
    def test_exact_below_capacity(self):
        sketch = QuantileSketch(capacity=16)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            sketch.add(v)
        assert sketch.quantile(0.0) == 1.0
        assert sketch.quantile(0.5) == 3.0
        assert sketch.quantile(1.0) == 5.0

    def test_deterministic_across_runs(self):
        def run():
            sketch = QuantileSketch(capacity=8)
            for v in range(1000):
                sketch.add(float(v))
            return [sketch.quantile(q) for q in (0.1, 0.5, 0.9)]

        assert run() == run()

    def test_reservoir_stays_representative(self):
        sketch = QuantileSketch(capacity=64)
        for v in range(10_000):
            sketch.add(float(v))
        assert sketch.seen == 10_000
        assert 3_000 <= sketch.quantile(0.5) <= 7_000

    def test_empty_and_invalid(self):
        assert QuantileSketch().quantile(0.5) == 0.0
        with pytest.raises(ValidationError):
            QuantileSketch(capacity=0)


class TestRollupLevel:
    def test_buckets_align_to_resolution(self):
        level = RollupLevel(60.0, 3600.0)
        level.record(61.0, 1.0)
        level.record(119.0, 3.0)
        level.record(120.0, 5.0)
        buckets = level.buckets()
        assert [b.start for b in buckets] == [60.0, 120.0]
        assert buckets[0].count == 2
        assert buckets[0].mean == 2.0
        assert buckets[1].minimum == buckets[1].maximum == 5.0

    def test_out_of_order_folds_into_retained_bucket(self):
        level = RollupLevel(60.0, 3600.0)
        level.record(60.0, 1.0)
        level.record(180.0, 1.0)
        level.record(70.0, 9.0)  # late, lands in the 60s bucket
        first = level.buckets()[0]
        assert first.count == 2
        assert first.maximum == 9.0

    def test_too_old_points_are_dropped(self):
        level = RollupLevel(60.0, 120.0)  # keeps 2 buckets
        for ts in (0.0, 60.0, 120.0):
            level.record(ts, 1.0)
        assert [b.start for b in level.buckets()] == [60.0, 120.0]
        level.record(0.0, 99.0)  # bucket already evicted: no-op
        assert all(b.maximum != 99.0 for b in level.buckets())

    def test_retention_evicts_oldest(self):
        level = RollupLevel(60.0, 180.0)  # 3 buckets max
        for i in range(10):
            level.record(i * 60.0, float(i))
        assert len(level) == 3
        assert [b.start for b in level.buckets()] == [420.0, 480.0, 540.0]

    def test_window_filter(self):
        level = RollupLevel(60.0, 3600.0)
        for i in range(5):
            level.record(i * 60.0, 1.0)
        got = [b.start for b in level.buckets(start=100.0, end=200.0)]
        assert got == [60.0, 120.0, 180.0]  # 60s bucket overlaps start=100

    def test_validation(self):
        with pytest.raises(ValidationError):
            RollupLevel(0.0, 60.0)
        with pytest.raises(ValidationError):
            RollupLevel(60.0, 30.0)


class TestSeriesRing:
    def test_wraps_and_preserves_arrival_order(self):
        series = Series("s", capacity=4, levels=())
        for i in range(6):
            series.record(float(i), float(i * 10))
        points = series.raw_points()
        assert [ts for ts, _ in points] == [2.0, 3.0, 4.0, 5.0]
        assert series.total_points == 6
        assert series.latest() == (5.0, 50.0)

    def test_window_filter_on_raw(self):
        series = Series("s", capacity=10, levels=())
        for i in range(5):
            series.record(float(i), 1.0)
        assert [ts for ts, _ in series.raw_points(start=1.0, end=3.0)] == [1.0, 2.0, 3.0]

    def test_empty_latest(self):
        assert Series("s").latest() is None


class TestTimeSeriesStore:
    def test_query_raw_by_default(self):
        store = TimeSeriesStore(clock=lambda: 0.0)
        store.record("m", 1.0, ts=10.0)
        store.record("m", 2.0, ts=20.0)
        result = store.query("m")
        assert result["step"] == 0.0
        assert [p["value"] for p in result["points"]] == [1.0, 2.0]

    def test_query_picks_coarsest_fitting_level(self):
        store = TimeSeriesStore(clock=lambda: 0.0)
        for i in range(20):
            store.record("m", float(i), ts=i * 60.0)
        raw = store.query("m", step=1.0)
        one_min = store.query("m", step=60.0)
        ten_min = store.query("m", step=1200.0)
        assert raw["step"] == 0.0
        assert one_min["step"] == 60.0
        assert ten_min["step"] == 600.0
        assert sum(p["count"] for p in one_min["points"]) == 20
        assert sum(p["count"] for p in ten_min["points"]) == 20

    def test_unknown_series_raises_keyerror(self):
        store = TimeSeriesStore()
        with pytest.raises(KeyError):
            store.query("nope")

    def test_tail_values_and_latest(self):
        store = TimeSeriesStore(clock=lambda: 0.0)
        for i in range(10):
            store.record("m", float(i), ts=float(i))
        assert store.tail_values("m", 3) == [7.0, 8.0, 9.0]
        assert store.tail_values("missing", 3) == []
        assert store.latest("m") == (9.0, 9.0)

    def test_series_names_and_stats(self):
        store = TimeSeriesStore(clock=lambda: 0.0)
        store.record("b", 1.0, ts=0.0)
        store.record("a", 1.0, ts=0.0)
        store.series("empty")  # created but never recorded: hidden
        assert store.series_names() == ["a", "b"]
        stats = store.stats()
        assert stats["series"] == 2
        assert stats["points_recorded"] == 2

    def test_clock_injection_variants(self):
        class ClockLike:
            def monotonic(self):
                return 42.0

        assert TimeSeriesStore(clock=ClockLike()).now() == 42.0
        assert TimeSeriesStore(clock=lambda: 7.0).now() == 7.0
        with pytest.raises(ValidationError):
            TimeSeriesStore(clock=object())


class TestRegistryHistoryHook:
    def test_instruments_record_history_once_attached(self):
        registry = MetricsRegistry()
        counter_before = registry.counter("pre.hits")
        store = attach_history(registry, clock=lambda: 0.0)
        counter_before.inc()
        registry.counter("post.hits").inc(2)
        registry.gauge("post.depth").set(3.5)
        registry.timing("post.lat").observe(0.25)
        assert store.latest("pre.hits")[1] == 1.0
        assert store.latest("post.hits")[1] == 2.0
        assert store.latest("post.depth")[1] == 3.5
        assert store.latest("post.lat")[1] == 0.25

    def test_counter_history_is_cumulative(self):
        registry = MetricsRegistry()
        store = attach_history(registry, clock=lambda: 0.0)
        c = registry.counter("c")
        c.inc()
        c.inc(2)
        assert [v for _, v in store.raw_points("c")] == [1.0, 3.0]

    def test_detach_restores_free_path(self):
        registry = MetricsRegistry()
        store = attach_history(registry)
        gauge = registry.gauge("g")
        assert gauge.history is not None
        registry.set_history(None)
        assert gauge.history is None
        assert registry.gauge("later").history is None
        gauge.set(1.0)  # no store attached: must not record
        assert store.latest("g") is None

    def test_reset_keeps_history_attached(self):
        registry = MetricsRegistry()
        store = attach_history(registry, clock=lambda: 0.0)
        registry.reset()
        registry.counter("after.reset").inc()
        assert store.latest("after.reset")[1] == 1.0

    def test_disabled_path_is_plain_none_check(self):
        registry = MetricsRegistry()
        assert registry.counter("free").history is None
        assert registry.history is None


@st.composite
def _point_batches(draw):
    """Monotone-ish timestamps over a few buckets with float values."""
    n = draw(st.integers(min_value=1, max_value=120))
    start = draw(st.floats(min_value=0.0, max_value=1e4))
    steps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=90.0),
            min_size=n, max_size=n,
        )
    )
    values = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n,
        )
    )
    ts = []
    t = start
    for step in steps:
        t += step
        ts.append(t)
    return list(zip(ts, values))


class TestRollupConsistencyProperties:
    RESOLUTION = 60.0

    @settings(max_examples=60, deadline=None)
    @given(points=_point_batches())
    def test_downsampled_mean_and_count_match_raw(self, points):
        retention = 10 * 86400.0  # long enough that nothing is evicted
        level = RollupLevel(self.RESOLUTION, retention)
        expected: dict[float, list[float]] = {}
        for ts, value in points:
            level.record(ts, value)
            expected.setdefault(ts - ts % self.RESOLUTION, []).append(value)
        buckets = {b.start: b for b in level.buckets()}
        assert set(buckets) == set(expected)
        for start, values in expected.items():
            bucket = buckets[start]
            assert bucket.count == len(values)
            assert math.isclose(
                bucket.mean, sum(values) / len(values),
                rel_tol=1e-9, abs_tol=1e-6,
            )
            assert bucket.minimum == min(values)
            assert bucket.maximum == max(values)

    @settings(max_examples=60, deadline=None)
    @given(points=_point_batches())
    def test_retention_boundary_keeps_newest_buckets_consistent(self, points):
        # A deliberately tiny retention: only the 3 newest buckets
        # survive, and each retained bucket must still agree with the
        # raw points that belong to it.
        retention = 3 * self.RESOLUTION
        level = RollupLevel(self.RESOLUTION, retention)
        expected: dict[float, list[float]] = {}
        for ts, value in points:
            level.record(ts, value)
            expected.setdefault(ts - ts % self.RESOLUTION, []).append(value)
        retained = level.buckets()
        assert len(retained) <= 3
        # The retained buckets are the newest ones, in order.
        starts = [b.start for b in retained]
        assert starts == sorted(starts)
        for bucket in retained:
            values = expected[bucket.start]
            # A late point whose bucket was already evicted is dropped,
            # so the bucket may undercount relative to the raw list only
            # if that bucket start predates the newest retained window —
            # retained buckets never overcount.
            assert bucket.count <= len(values)
            if bucket.count == len(values):
                assert math.isclose(
                    bucket.mean, sum(values) / len(values),
                    rel_tol=1e-9, abs_tol=1e-6,
                )

    @settings(max_examples=40, deadline=None)
    @given(points=_point_batches())
    def test_store_query_counts_match_raw_total(self, points):
        store = TimeSeriesStore(
            raw_capacity=4096, levels=((self.RESOLUTION, 10 * 86400.0),),
            clock=lambda: 0.0,
        )
        for ts, value in points:
            store.record("m", value, ts=ts)
        rolled = store.query("m", step=self.RESOLUTION)
        assert sum(p["count"] for p in rolled["points"]) == len(points)
        raw = store.query("m")
        assert len(raw["points"]) == min(len(points), 4096)


class TestBucketDict:
    def test_as_dict_shape(self):
        bucket = Bucket(120.0)
        bucket.add(1.0)
        bucket.add(3.0)
        d = bucket.as_dict()
        assert d["ts"] == 120.0
        assert d["count"] == 2
        assert d["mean"] == 2.0
        assert d["min"] == 1.0 and d["max"] == 3.0
        assert set(d) == {"ts", "count", "mean", "min", "max", "p50", "p95"}


def _state(store: TimeSeriesStore, name: str):
    """Everything a series holds, floats as hex so ``-0.0`` differs from ``0.0``."""
    series = store._series[name]
    levels = [
        [
            (b.start.hex(), b.count, b.total.hex(), b.minimum.hex(), b.maximum.hex(),
             [v.hex() for v in b.sketch._values], b.sketch.seen, b.sketch._state)
            for b in level.buckets()
        ]
        for level in series.levels
    ]
    raw = [(ts.hex(), value.hex()) for ts, value in series.raw_points()]
    return raw, series.latest(), series.total_points, levels


def _reference_state(points, raw_capacity, levels):
    """What a series holds after ``points``, worked out one point at a time
    with none of the store's code, in the shape :func:`_state` returns.

    The raw ring keeps the newest ``raw_capacity`` points.  At each level a
    point whose bucket start is below the newest bucket's joins the newest
    bucket starting at or before it when that bucket has its start, and is
    dropped otherwise; any other point joins the newest bucket if it has
    the same start, or opens a new one, and the oldest bucket goes when
    the level is full.  A bucket sums with ``+=``, keeps strict ``<``/``>``
    extremes and a 64-value reservoir whose replacements follow an LCG
    draw in ``[0, seen)``.
    """
    points = [(float(ts), float(value)) for ts, value in points]
    out_levels = []
    for resolution, retention in levels:
        buckets = deque(maxlen=max(int(retention // resolution), 1))
        for ts, value in points:
            start = ts - ts % resolution
            if buckets and start < buckets[-1]["start"]:
                bucket = next((b for b in reversed(buckets) if b["start"] <= start), None)
                if bucket is None or bucket["start"] != start:
                    continue
            elif buckets and buckets[-1]["start"] == start:
                bucket = buckets[-1]
            else:
                bucket = {"start": start, "count": 0, "total": 0.0, "min": math.inf,
                          "max": -math.inf, "sample": [], "seen": 0, "state": 0x9E3779B9}
                buckets.append(bucket)
            bucket["count"] += 1
            bucket["total"] += value
            if value < bucket["min"]:
                bucket["min"] = value
            if value > bucket["max"]:
                bucket["max"] = value
            bucket["seen"] += 1
            if len(bucket["sample"]) < 64:
                bucket["sample"].append(value)
            else:
                bucket["state"] = (bucket["state"] * 1103515245 + 12345) & 0x7FFFFFFF
                slot = bucket["state"] % bucket["seen"]
                if slot < 64:
                    bucket["sample"][slot] = value
        out_levels.append([
            (b["start"].hex(), b["count"], b["total"].hex(), b["min"].hex(),
             b["max"].hex(), [v.hex() for v in b["sample"]], b["seen"], b["state"])
            for b in buckets
        ])
    raw = [(ts.hex(), value.hex()) for ts, value in points[-raw_capacity:]]
    latest = points[-1] if points else None
    return raw, latest, len(points), out_levels


#: Steps between points: repeats, sub-bucket moves, exact bucket lengths,
#: late points (one or more buckets back) and points older than retention.
_STEPS = (0.0, 0.004, 0.3, 1.0, 2.5, -0.7, -3.0, -40.0)


@st.composite
def _stamped_batches(draw):
    """Batches of ``(ts, value)`` points from a random walk over time."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    ts = draw(st.sampled_from((0.0, 0.999, 1_700_000_000.0)))
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        runs = draw(st.lists(
            st.tuples(st.sampled_from(_STEPS), st.integers(min_value=1, max_value=90)),
            max_size=4,
        ))
        batch = []
        for step, repeat in runs:
            for _ in range(repeat):
                ts += step
                value = rng.choice((0.0, -0.0, 2.5, rng.uniform(-1e3, 1e3)))
                batch.append((ts, value))
        batches.append(batch)
    return batches


class TestRecordMany:
    """``record_many`` equals one ``record`` per point on a twin store, and
    both equal the point-by-point reference :func:`_reference_state`."""

    LEVELS = ((1.0, 4.0), (5.0, 20.0))  # four buckets each, so eviction is common

    @staticmethod
    def twins(raw_capacity, levels):
        return (
            TimeSeriesStore(raw_capacity=raw_capacity, levels=levels, clock=lambda: 0.0)
            for _ in range(2)
        )

    @staticmethod
    def feed(bulk, single, batch):
        bulk.record_many("m", [ts for ts, _ in batch], [v for _, v in batch])
        for ts, value in batch:
            single.record("m", value, ts=ts)

    @settings(max_examples=150, deadline=None)
    @given(batches=_stamped_batches(), raw_capacity=st.sampled_from((1, 3, 16, 64)))
    def test_bulk_equals_point_by_point(self, batches, raw_capacity):
        bulk, single = self.twins(raw_capacity, self.LEVELS)
        points = []
        for batch in batches:
            self.feed(bulk, single, batch)
            points.extend(batch)
            if single.series_names():
                assert _state(bulk, "m") == _state(single, "m")
                assert _state(bulk, "m") == _reference_state(
                    points, raw_capacity, self.LEVELS
                )

    def test_wraps_the_default_ring_and_fills_every_reservoir(self):
        levels = ((60.0, 6 * 3600.0),)
        bulk, single = self.twins(DEFAULT_RAW_CAPACITY, levels)
        rng = random.Random(7)
        ts = 1_700_000_000.0
        points = []
        for size in (4095, 1, 4097, 300, 9000, 0, 64):
            batch = []
            for _ in range(size):
                ts += 0.013
                batch.append((ts, rng.expovariate(1e4)))
            self.feed(bulk, single, batch)
            points.extend(batch)
        assert single.raw_points("m") == bulk.raw_points("m")
        assert len(bulk.raw_points("m")) == DEFAULT_RAW_CAPACITY
        assert _state(bulk, "m") == _state(single, "m")
        assert _state(bulk, "m") == _reference_state(points, DEFAULT_RAW_CAPACITY, levels)

    def test_nan_timestamps_and_values_fold_as_single_records(self):
        nan = float("nan")
        batch = [(0.5, 1.0), (nan, 2.0), (0.6, nan), (0.7, -1.0), (nan, nan), (0.2, 3.0)]
        bulk, single = self.twins(8, self.LEVELS)
        self.feed(bulk, single, batch)
        assert _state(bulk, "m") == _state(single, "m")
        assert _state(bulk, "m") == _reference_state(batch, 8, self.LEVELS)

    def test_values_are_stored_as_floats(self):
        bulk, single = self.twins(8, self.LEVELS)
        self.feed(bulk, single, [(1, 2), (3, True)])
        assert _state(bulk, "m") == _state(single, "m")
        assert _state(bulk, "m") == _reference_state([(1, 2), (3, True)], 8, self.LEVELS)

    def test_length_mismatch_rejected(self):
        store = TimeSeriesStore()
        with pytest.raises(ValidationError, match="2 timestamps for 1 values"):
            store.record_many("m", [0.0, 1.0], [5.0])
