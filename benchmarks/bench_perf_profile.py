"""Performance — resource-profiler overhead when profiling is disabled.

Profiling (:mod:`repro.obs.profile`) piggybacks on the tracer's span
lifecycle: enabled, every span pays a ``process_time`` + ``/proc`` RSS
sample; disabled, the tracer checks one attribute per span and the
:func:`~repro.obs.profile.profiled` decorator is a single ``if`` around
a plain call.  The contract gated here is that the *disabled* paths cost
under 3% of the BTC sliding-family sweep — profiling must be free to
leave compiled into the hot layers, exactly like tracing.
"""

import time

import pytest

from repro import obs
from repro.core.engine import MeasurementEngine
from repro.obs import profile

#: Maximum tolerated disabled-profiling cost, per the ISSUE budget.
OVERHEAD_BUDGET = 0.03

#: Safety factor on the measured per-sweep event count.
EVENT_MARGIN = 2.0


def _assert_all_off() -> None:
    assert not obs.tracing_enabled()
    assert not profile.profiling_enabled()


def _disabled_decorated_call_cost(calls: int = 200_000) -> float:
    """Mean seconds per call of a ``@profiled`` function, all off."""
    _assert_all_off()

    @profile.profiled("bench.noop")
    def noop() -> int:
        return 1

    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return (time.perf_counter() - start) / calls


def test_perf_profiled_decorator_disabled(benchmark):
    """Microbenchmark: one ``@profiled`` call with tracing+profiling off."""
    _assert_all_off()

    @profile.profiled("bench.noop")
    def noop() -> int:
        return 1

    benchmark(noop)


def test_perf_span_with_profiler_installed_vs_not(benchmark, btc):
    """The acceptance sweep with profiling merely *available* (default)."""
    _assert_all_off()

    def full_family():
        return [btc.measure_sliding("entropy", n) for n in (144, 1_008, 4_320)]

    series = benchmark(full_family)
    assert sum(len(s) for s in series) > 800


def test_disabled_profiling_overhead_under_budget(btc):
    """Disabled-profiling cost is <3% of the BTC sliding-family sweep.

    Mirrors ``bench_perf_obs.test_disabled_overhead_under_budget``:
    count the span events one warmed sweep fires (running it once under
    tracing), bound the disabled cost as (per-call decorated cost) x
    (count, with margin), and compare against the measured sweep time —
    both sides scale with machine speed.
    """

    def full_family():
        return [btc.measure_sliding("entropy", n) for n in (144, 1_008, 4_320)]

    full_family()  # warm-up run

    tracer = obs.enable_tracing()
    try:
        full_family()
        events = len(tracer.spans)
    finally:
        obs.disable_tracing()

    per_call = _disabled_decorated_call_cost()
    start = time.perf_counter()
    full_family()
    sweep_seconds = time.perf_counter() - start

    overhead = per_call * events * EVENT_MARGIN
    budget = OVERHEAD_BUDGET * sweep_seconds
    assert overhead < budget, (
        f"disabled profiling would cost {overhead * 1e6:.1f}us per sweep "
        f"({events} spans x{EVENT_MARGIN} margin x {per_call * 1e9:.0f}ns), "
        f"over the 3% budget of {budget * 1e6:.1f}us "
        f"(sweep {sweep_seconds * 1e3:.1f}ms)"
    )


def test_enabled_profiling_attaches_resource_attrs(btc):
    """Sanity: with profiling on, sweep spans carry cpu/rss samples."""
    engine = MeasurementEngine(btc.credits)
    tracer = obs.enable_tracing()
    profile.enable_profiling()
    try:
        engine.measure_sliding("entropy", 2_016, 1_008)
        sweep = next(s for s in tracer.spans if s.name == "engine.sliding_sweep")
        assert sweep.attrs["cpu"] >= 0.0
        assert sweep.attrs["rss_kb"] > 0
    finally:
        profile.disable_profiling()
        obs.disable_tracing()
