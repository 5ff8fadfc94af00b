"""Performance — metric history overhead when no store is attached.

Every counter/gauge/timing carries an optional ``history`` hook that the
:class:`~repro.obs.timeseries.TimeSeriesStore` attaches at monitor start;
the contract (same as the tracer's in ``bench_perf_obs.py``) is that with
history *detached* the hook is a single ``is None`` check whose total
cost stays under 2% of the BTC sliding-family sweep.  This file measures
both halves, plus the recording path itself, and proves the EWMA anomaly
detector flags the paper's day-14 Bitcoin regime shift with no false
positives on the preceding days.
"""

import time

import pytest

from repro import obs
from repro.obs.alerts import AnomalyDetector
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesStore, attach_history

#: Maximum tolerated detached-history cost, as a fraction of sweep time.
OVERHEAD_BUDGET = 0.02

#: Safety factor on the measured per-sweep event count.
EVENT_MARGIN = 2.0


def _detached_call_cost(calls: int = 200_000) -> float:
    """Mean seconds per counter-inc with no history store attached."""
    registry = MetricsRegistry()
    counter = registry.counter("bench.noop")
    assert counter.history is None
    start = time.perf_counter()
    for _ in range(calls):
        counter.inc()
    return (time.perf_counter() - start) / calls


def test_perf_detached_counter_per_call(benchmark):
    """Microbenchmark: one counter inc with the history hook detached."""
    registry = MetricsRegistry()
    counter = registry.counter("bench.noop")
    assert counter.history is None
    benchmark(counter.inc)


def test_perf_recording_path_per_point(benchmark):
    """Microbenchmark: one gauge set flowing raw + 1m + 10m rollups."""
    registry = MetricsRegistry()
    attach_history(registry)
    gauge = registry.gauge("bench.depth")
    assert gauge.history is not None
    benchmark(gauge.set, 0.5)


def test_detached_history_under_budget(btc):
    """Detached-history cost is <2% of the BTC sliding-family sweep.

    Counts the metric events one warmed sweep fires (spans land on the
    tracer, not the registry, so only counter bumps pay the history
    check), bounds the overhead as (per-call detached cost) x (count,
    with margin), and compares against the measured sweep time — both
    sides scale with machine speed, so the 2% claim is robust.
    """

    def full_family():
        return [btc.measure_sliding("entropy", n) for n in (144, 1_008, 4_320)]

    full_family()  # warm-up run, as in the perf benchmark

    tracer = obs.enable_tracing()
    try:
        full_family()
        events = sum(tracer.metrics.snapshot()["counters"].values())
    finally:
        obs.disable_tracing()

    per_call = _detached_call_cost()
    start = time.perf_counter()
    full_family()
    sweep_seconds = time.perf_counter() - start

    overhead = per_call * events * EVENT_MARGIN
    budget = OVERHEAD_BUDGET * sweep_seconds
    assert overhead < budget, (
        f"detached history would cost {overhead * 1e6:.1f}us per sweep "
        f"({events:.0f} events x{EVENT_MARGIN} margin x {per_call * 1e9:.0f}ns), "
        f"over the 2% budget of {budget * 1e6:.1f}us "
        f"(sweep {sweep_seconds * 1e3:.1f}ms)"
    )


def test_attached_store_records_sweep_counters(btc):
    """Sanity: with a store attached, sweep counters grow history."""
    tracer = obs.enable_tracing()
    store = TimeSeriesStore()
    previous = tracer.metrics.history
    tracer.metrics.set_history(store)
    try:
        btc.measure_sliding("entropy", 2_016, 1_008)
        names = store.series_names()
        assert any(name.startswith("engine.sliding") for name in names)
        fast = store.latest("engine.sliding.fast_path")
        assert fast is not None and fast[1] >= 1.0
    finally:
        tracer.metrics.set_history(previous)
        obs.disable_tracing()


def test_day14_regime_shift_flagged_without_false_positives(btc):
    """§II-C1d: the EWMA z-score detector flags exactly day index 13.

    The replayed 2019 BTC chain's daily Gini collapses on Jan 14 (two
    blocks with 80+/90+ coinbase addresses explode the producer set); fed
    the daily series in order, the detector must fire on day 13 and stay
    quiet on every earlier day.
    """
    gini = btc.measure_calendar("gini", "day")
    detector = AnomalyDetector(alpha=0.3, threshold=4.0, warmup=5)
    flagged = [
        index for index, value in enumerate(gini.values[:14])
        if detector.is_anomaly(float(value))
    ]
    print(f"\n=== day-14 anomaly detector ===")
    print(f"  daily gini[0:14] = {[round(float(v), 3) for v in gini.values[:14]]}")
    print(f"  flagged day indices: {flagged}")
    assert flagged == [13], (
        f"expected exactly day 13 flagged, got {flagged}"
    )
