"""Performance — the measurement pipeline and its substrates.

Times the hot paths a user of the library actually hits: a full fixed
daily measurement over each chain, the full sliding family, a BigQuery-
style SQL aggregation over the Bitcoin credit table, and the table
engine's group-by on the same data.  ``make bench-perf`` prints their
pytest-benchmark tables; the repo's end-to-end and per-layer performance
numbers come from perfbench (``perfbench/run.py``, see ``BENCHMARK.json``).
"""

import pytest

from repro.sql import QueryEngine


def test_perf_btc_daily_gini(benchmark, btc):
    series = benchmark(btc.measure_calendar, "gini", "day")
    assert len(series) == 365


def test_perf_eth_daily_gini(benchmark, eth):
    series = benchmark.pedantic(
        eth.measure_calendar, args=("gini", "day"), rounds=2, iterations=1
    )
    assert len(series) == 365


def test_perf_btc_sliding_family(benchmark, btc):
    def full_family():
        return [btc.measure_sliding("entropy", n) for n in (144, 1_008, 4_320)]

    series = benchmark(full_family)
    assert sum(len(s) for s in series) > 800


def test_perf_btc_sliding_family_measure_many(benchmark, btc):
    """Whole figure-suite sweep: three metrics across the three window
    sizes in one batched call per size, sharing one sort per window."""
    metrics = ("gini", "entropy", "nakamoto")

    def full_sweep():
        return [btc.measure_sliding_many(metrics, n) for n in (144, 1_008, 4_320)]

    sweeps = benchmark(full_sweep)
    assert all(set(sweep) == set(metrics) for sweep in sweeps)
    assert sum(len(sweep["gini"]) for sweep in sweeps) > 800


def test_perf_eth_sliding_family_measure_many(benchmark, eth):
    metrics = ("gini", "entropy", "nakamoto")

    def full_sweep():
        return [
            eth.measure_sliding_many(metrics, n) for n in (6_000, 42_000, 180_000)
        ]

    sweeps = benchmark.pedantic(full_sweep, rounds=3, iterations=1, warmup_rounds=1)
    assert sum(len(sweep["entropy"]) for sweep in sweeps) > 500


def test_perf_sql_groupby_over_credits(benchmark, study):
    table = study.chain("btc").to_table()
    engine = QueryEngine({"credits": table})

    def run_query():
        return engine.execute(
            "SELECT producer, COUNT(*) AS n FROM credits "
            "GROUP BY producer ORDER BY n DESC LIMIT 20"
        )

    result = benchmark(run_query)
    assert result.num_rows == 20


def test_perf_table_groupby_over_credits(benchmark, study):
    table = study.chain("btc").to_table()

    def run_groupby():
        return table.group_by("producer").aggregate(n=("height", "count"))

    result = benchmark(run_groupby)
    assert result.num_rows > 1_000  # ~1.1k distinct producers in BTC 2019


def test_perf_eth_attribution(benchmark, study):
    from repro.chain.attribution import attribute

    chain = study.chain("eth")
    # 2 cold rounds showed ~44% stddev (0.278s vs 0.532s); a warmup round
    # plus 5 measured rounds gives a median steady enough to compare runs.
    credits = benchmark.pedantic(
        attribute, args=(chain,), rounds=5, iterations=1, warmup_rounds=1
    )
    assert credits.n_credits == 2_204_650
