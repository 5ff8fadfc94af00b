"""Performance — observability overhead when tracing is disabled.

The tracer is a process-wide singleton that every hot layer calls into
unconditionally; the contract is that with tracing *disabled* those calls
are guard-checked no-ops whose total cost stays under 2% of the BTC
sliding-family sweep.  This file measures both halves of that claim: the
per-call cost of the disabled primitives, and the end-to-end sweep time
with instrumentation live in the code.
"""

import time

import pytest

from repro import obs

#: Maximum tolerated disabled-path cost, as a fraction of sweep time.
OVERHEAD_BUDGET = 0.02

#: Safety factor on the measured per-sweep event count.
EVENT_MARGIN = 2.0


def _disabled_call_cost(calls: int = 200_000) -> float:
    """Mean seconds per disabled span+counter pair, measured directly."""
    assert not obs.tracing_enabled()
    start = time.perf_counter()
    for _ in range(calls):
        with obs.span("bench.noop", key=1):
            pass
        obs.counter("bench.noop")
    return (time.perf_counter() - start) / calls


def test_perf_disabled_span_per_call(benchmark):
    """Microbenchmark: one disabled span + one disabled counter."""
    assert not obs.tracing_enabled()

    def noop_pair():
        with obs.span("bench.noop", key=1):
            pass
        obs.counter("bench.noop")

    benchmark(noop_pair)


def test_perf_btc_sliding_family_untraced(benchmark, btc):
    """The acceptance sweep, tracing disabled (the shipped default)."""
    assert not obs.tracing_enabled()

    def full_family():
        return [btc.measure_sliding("entropy", n) for n in (144, 1_008, 4_320)]

    series = benchmark(full_family)
    assert sum(len(s) for s in series) > 800


def test_disabled_overhead_under_budget(btc):
    """Disabled-path cost is <2% of the BTC sliding-family sweep.

    Counts the instrumentation events one warmed sweep actually fires
    (by running it once under tracing), bounds the overhead as
    (per-call disabled cost) x (that count, with margin), and compares
    against the measured untraced sweep time — both sides scale with
    machine speed, so the 2% claim is robust.
    """

    def full_family():
        return [btc.measure_sliding("entropy", n) for n in (144, 1_008, 4_320)]

    full_family()  # warm-up run, as in the perf benchmark

    tracer = obs.enable_tracing()
    try:
        full_family()
        counter_events = sum(tracer.metrics.snapshot()["counters"].values())
        events = len(tracer.spans) + counter_events
    finally:
        obs.disable_tracing()

    per_call = _disabled_call_cost()
    start = time.perf_counter()
    full_family()
    sweep_seconds = time.perf_counter() - start

    overhead = per_call * events * EVENT_MARGIN
    budget = OVERHEAD_BUDGET * sweep_seconds
    assert overhead < budget, (
        f"disabled tracing would cost {overhead * 1e6:.1f}us per sweep "
        f"({events:.0f} events x{EVENT_MARGIN} margin x {per_call * 1e9:.0f}ns), "
        f"over the 2% budget of {budget * 1e6:.1f}us "
        f"(sweep {sweep_seconds * 1e3:.1f}ms)"
    )


def test_enabled_tracing_records_sweep_spans(btc):
    """Sanity: with tracing on, the sweep emits engine spans + counters."""
    tracer = obs.enable_tracing()
    try:
        btc.measure_sliding("entropy", 2_016, 1_008)
        names = {span.name for span in tracer.spans}
        counters = tracer.metrics.snapshot()["counters"]
        assert "engine.sliding_sweep" in names
        assert "engine.sliding.fast_path" in counters
    finally:
        obs.disable_tracing()
