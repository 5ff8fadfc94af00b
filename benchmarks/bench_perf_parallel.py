"""Performance — the two parallel paths that remain.

Three claims, measured:

* **Study fan-out** — the paper study runs each chain's half as one pool
  task.  ROADMAP item 2's gate: the median of 3 ``workers=2`` study
  reports is at most 1.10x the median of 3 ``workers=1`` reports, so the
  default ``--workers auto`` is never slower than serial.  Skipped with
  one usable CPU, where ``auto`` is the serial path.
* **SQL group-by** — the BigQuery-style group-by through the partitioned
  operators (the timed path must be the partitioned one).
* **Auto overhead** — with one usable CPU ``workers="auto"`` resolves to 1
  and the study must take the in-process path: no pool is ever created,
  and the residual guard cost (one ``resolve_workers`` per study) stays
  under 2% of the study's time, measured the same way
  ``bench_perf_obs.py`` bounds disabled-tracing overhead.
"""

import statistics
import time

import pytest

from repro.analysis.report import generate_report
from repro.analysis.study import DecentralizationStudy
from repro.parallel import pool_status, resolve_workers, usable_cpus

#: Reports timed per worker count for the fan-out gate.
ROUNDS = 3

#: The fan-out report may take at most this multiple of the serial one.
FAN_OUT_BUDGET = 1.10

#: Maximum tolerated serial-path guard cost, as a fraction of study time.
OVERHEAD_BUDGET = 0.02

#: Safety factor on the measured guard-call cost.
GUARD_MARGIN = 10.0


def _report_seconds(workers: int) -> float:
    """Wall seconds of one fresh study report (simulation included)."""
    start = time.perf_counter()
    generate_report(DecentralizationStudy(seed=2019, workers=workers))
    return time.perf_counter() - start


def test_study_fan_out_not_slower_than_serial():
    """``workers=2`` (what ``auto`` resolves to on 2 CPUs) must beat serial."""
    if usable_cpus() < 2:
        pytest.skip("one usable CPU: auto resolves to the serial path")
    _report_seconds(1)  # warm imports and first-call costs
    seconds: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(ROUNDS):
        for workers in (2, 1):
            seconds[workers].append(_report_seconds(workers))
    fan_out = statistics.median(seconds[2])
    serial = statistics.median(seconds[1])
    assert fan_out <= FAN_OUT_BUDGET * serial, (
        f"study fan-out {fan_out * 1e3:.0f}ms vs serial {serial * 1e3:.0f}ms "
        f"(medians of {ROUNDS}), over the {FAN_OUT_BUDGET:.2f}x budget"
    )


def test_perf_parallel_sql_groupby(benchmark, study):
    """The BigQuery-style group-by through the partitioned operators."""
    from repro.sql import QueryEngine, format_plan

    table = study.chain("btc").to_table()
    engine = QueryEngine({"credits": table}, workers=2)

    def run_query():
        return engine.execute(
            "SELECT producer, COUNT(*) AS n FROM credits "
            "GROUP BY producer ORDER BY n DESC LIMIT 20"
        )

    result = benchmark(run_query)
    assert result.num_rows == 20
    # Prove the timed path was the partitioned one, not the serial fallback.
    _, root = engine.explain_analyze(
        "SELECT producer, COUNT(*) AS n FROM credits GROUP BY producer"
    )
    assert "ParallelScan" in format_plan(root)


def test_auto_workers_overhead_under_budget(study):
    """With one usable CPU ``workers='auto'`` must cost (almost) nothing.

    Two halves: (a) an ``auto`` study creates no pool at all — checked
    against the lifetime pool counters; (b) the guard work the serial
    path did gain (resolving ``auto`` and deciding not to fan out) is
    bounded at well under 2% of the study, the same budget-style bound
    ``bench_perf_obs.py`` places on disabled tracing.
    """
    if resolve_workers("auto") != 1:
        pytest.skip("multi-core host: auto legitimately builds a pool")
    chains = {"bitcoin": study.chain("btc"), "ethereum": study.chain("eth")}
    before = pool_status()["lifetime"]["pools_created"]
    start = time.perf_counter()
    DecentralizationStudy(**chains, workers="auto").chain_results()
    study_seconds = time.perf_counter() - start
    assert pool_status()["lifetime"]["pools_created"] == before

    calls = 10_000
    start = time.perf_counter()
    for _ in range(calls):
        resolve_workers("auto")
    guard_seconds = (time.perf_counter() - start) / calls

    # A study resolves workers once; margin it by 10x.
    overhead = guard_seconds * GUARD_MARGIN
    budget = OVERHEAD_BUDGET * study_seconds
    assert overhead < budget, (
        f"auto-workers guard would cost {overhead * 1e6:.1f}us per study "
        f"({guard_seconds * 1e9:.0f}ns per resolve x{GUARD_MARGIN:.0f} margin), "
        f"over the 2% budget of {budget * 1e6:.1f}us "
        f"(study {study_seconds * 1e3:.1f}ms)"
    )
