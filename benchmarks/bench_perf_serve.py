"""Performance — telemetry serving under and without overload protection.

The overload guard is optional per server; the contract (same shape as
the tracer's in ``bench_perf_obs.py``) is that with the guard *disabled*
the per-request bookkeeping it adds is a guard-checked no-op whose cost
stays under 2% of a real request.  This file measures both halves —
the disabled-path per-request cost and live request latency — plus the
guarded fast path (rate-limit check + fresh cache hit) and a short
closed-loop ``loadgen`` burst that must finish without an error or an
unhandled 5xx.
"""

import time
import urllib.request

from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    LoadgenConfig,
    OverloadConfig,
    OverloadGuard,
    TelemetryServer,
    run_loadgen,
)

#: Maximum tolerated disabled-path cost, as a fraction of request time.
OVERHEAD_BUDGET = 0.02


def _status_server(overload=None):
    registry = MetricsRegistry()
    return TelemetryServer(
        registry,
        status_fn=lambda: {"chain": "bench", "blocks": 4_320,
                           "metrics": {"gini": 0.41, "entropy": 3.2}},
        overload=overload,
    )


def _fetch(port: int, path: str = "/status") -> bytes:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=5.0
    ) as response:
        return response.read()


def _disabled_path_cost(calls: int = 200_000) -> float:
    """Mean seconds of the per-request bookkeeping the guard adds when
    no guard is configured: three attribute resets and one None check."""
    guard = None
    sink = []
    start = time.perf_counter()
    for _ in range(calls):
        responded = False
        extra_headers = []
        cache_key = None
        if guard is not None:  # pragma: no cover - disabled path
            sink.append((responded, extra_headers, cache_key))
    return (time.perf_counter() - start) / calls


def test_perf_serve_status_request(benchmark):
    """Microbenchmark: one GET /status with no overload guard."""
    with _status_server() as server:
        body = benchmark(_fetch, server.port)
    assert b"bench" in body


def test_perf_serve_guarded_cache_hit(benchmark):
    """Microbenchmark: one GET /status through the full guard stack
    (rate-limit check, admission slot, fresh cache hit)."""
    guard = OverloadGuard(
        OverloadConfig(
            max_inflight=64,
            rate_limit=1_000_000.0,
            burst=1_000_000,
            cache_ttl=3600.0,
        ),
        registry=MetricsRegistry(),
    )
    with _status_server(overload=guard) as server:
        _fetch(server.port)  # populate the cache: steady-state is a hit
        body = benchmark(_fetch, server.port)
    assert b"bench" in body
    assert guard.cache.snapshot()["hits"] >= 1


def test_perf_serve_loadgen_p99(benchmark):
    """Closed-loop loadgen burst: every request is answered cleanly.

    The benchmarked quantity is a single request to the server the burst
    just loaded; the burst itself must see no error and no unhandled 5xx.
    """
    with _status_server() as server:
        report = run_loadgen(
            LoadgenConfig(
                url=f"http://127.0.0.1:{server.port}",
                path="/status",
                duration=1.0,
                clients=4,
            )
        )
        body = benchmark(_fetch, server.port)
    assert b"bench" in body
    assert report.errors == 0
    assert report.unhandled_5xx == 0


def test_disabled_guard_overhead_under_budget():
    """Disabled-guard bookkeeping is <2% of a real request.

    Both sides are measured on this machine: the per-request cost of the
    added bookkeeping (attribute resets + None check) against the median
    of 50 live /status requests — so the 2% claim scales with hardware.
    """
    per_request_cost = _disabled_path_cost()
    with _status_server() as server:
        _fetch(server.port)  # warm the handler path
        samples = []
        for _ in range(50):
            start = time.perf_counter()
            _fetch(server.port)
            samples.append(time.perf_counter() - start)
    samples.sort()
    median_request = samples[len(samples) // 2]
    budget = OVERHEAD_BUDGET * median_request
    print(f"\n=== disabled-guard overhead ===")
    print(f"  bookkeeping: {per_request_cost * 1e9:.0f}ns/request")
    print(f"  median request: {median_request * 1e6:.0f}us; "
          f"2% budget: {budget * 1e6:.1f}us")
    assert per_request_cost < budget, (
        f"disabled-guard bookkeeping costs {per_request_cost * 1e9:.0f}ns "
        f"per request, over the 2% budget of {budget * 1e9:.0f}ns "
        f"(median request {median_request * 1e6:.0f}us)"
    )
