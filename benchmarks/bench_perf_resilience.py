"""Performance — resilience overhead when fault injection is disabled.

Resilient reads go through :func:`repro.resilience.retry.retry_call`;
without a policy it is a direct passthrough, and the fault-injection
hooks are ``None``-guarded.  The
contract is that this disabled path (the shipped default) costs less than
2% of the BTC sliding-family sweep.  This file measures both halves of
that claim: the per-call cost of the disabled passthrough, and the
end-to-end sweep time with the resilience layer wired into the pipeline.
"""

import time

from repro.resilience.retry import retry_call

#: Maximum tolerated disabled-path cost, as a fraction of sweep time.
OVERHEAD_BUDGET = 0.02

#: Safety factor on the per-sweep call bound.
CALL_MARGIN = 2.0

#: Generous bound on resilient call sites around one sweep.  The sweep
#: itself contains none, and the BigQuery facade loads and queries
#: directly.  Per-page retry and injector hooks exist only on the paged
#: fetch (``fetch_chain``), never on the disabled path.
PER_SWEEP_CALLS = 16


def _noop():
    return None


def _disabled_call_cost(calls: int = 200_000) -> float:
    """Mean seconds per disabled retry_call passthrough, measured directly."""
    start = time.perf_counter()
    for _ in range(calls):
        retry_call(_noop)
    return (time.perf_counter() - start) / calls


def test_perf_disabled_retry_per_call(benchmark):
    """Microbenchmark: one policy-less retry_call."""
    assert benchmark(lambda: retry_call(_noop)) is None


def test_perf_btc_sliding_family_resilience_disabled(benchmark, btc):
    """The acceptance sweep with the resilience layer at its defaults."""

    def full_family():
        return [btc.measure_sliding("entropy", n) for n in (144, 1_008, 4_320)]

    series = benchmark(full_family)
    assert sum(len(s) for s in series) > 800


def test_disabled_overhead_under_budget(btc):
    """Disabled resilience costs <2% of the BTC sliding-family sweep.

    Bounds the overhead as (per-call passthrough cost) x (a generous
    per-sweep call count, with margin) and compares against the measured
    sweep time — both sides scale with machine speed, so the 2% claim is
    robust across hosts.
    """

    def full_family():
        return [btc.measure_sliding("entropy", n) for n in (144, 1_008, 4_320)]

    full_family()  # warm-up run, as in the perf benchmark

    per_call = _disabled_call_cost()
    start = time.perf_counter()
    full_family()
    sweep_seconds = time.perf_counter() - start

    overhead = per_call * PER_SWEEP_CALLS * CALL_MARGIN
    budget = OVERHEAD_BUDGET * sweep_seconds
    assert overhead < budget, (
        f"disabled resilience would cost {overhead * 1e6:.1f}us per sweep "
        f"({PER_SWEEP_CALLS} calls x{CALL_MARGIN} margin x "
        f"{per_call * 1e9:.0f}ns), over the 2% budget of "
        f"{budget * 1e6:.1f}us (sweep {sweep_seconds * 1e3:.1f}ms)"
    )
