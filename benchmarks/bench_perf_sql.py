"""Performance — cost-based SQL optimizer: index scans vs full scans.

Builds a 200k-row synthetic block table and times the same selective
equality query through an indexed engine and through an ``optimizer=False``
engine.  The headline test asserts the acceptance gate from the optimizer
PR: the indexed point lookup must be at least 5x faster end-to-end than
the full scan, with byte-identical results.  CI ``bench-smoke`` runs that
gate; ``make bench-perf`` prints the timing tables.
"""

import time

import numpy as np
import pytest

from repro.sql import QueryEngine
from repro.table import Table

#: Acceptance gate: indexed equality lookup vs full scan, end-to-end.
MIN_SPEEDUP = 5.0

N_ROWS = 200_000
POINT_SQL = "SELECT height, producer FROM blocks WHERE producer = 'p123'"
RANGE_SQL = "SELECT height, reward FROM blocks WHERE height BETWEEN 1000 AND 1999"


@pytest.fixture(scope="module")
def big_table() -> Table:
    return Table(
        {
            "height": np.arange(N_ROWS),
            "producer": [f"p{i % 997}" for i in range(N_ROWS)],
            "reward": np.arange(N_ROWS, dtype=float) % 13,
        }
    )


@pytest.fixture(scope="module")
def indexed_engine(big_table) -> QueryEngine:
    engine = QueryEngine({"blocks": big_table})
    engine.create_index("blocks", "producer", "hash")
    engine.create_index("blocks", "height", "sorted")
    engine.execute("ANALYZE")
    return engine


@pytest.fixture(scope="module")
def full_scan_engine(big_table) -> QueryEngine:
    return QueryEngine({"blocks": big_table}, optimizer=False)


def _best_of(fn, repeat: int = 5) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_perf_sql_indexed_point_lookup(benchmark, indexed_engine, full_scan_engine):
    """The tentpole gate: >=5x end-to-end on a selective equality query."""
    expected = full_scan_engine.execute(POINT_SQL).to_rows()
    result = benchmark(indexed_engine.execute, POINT_SQL)
    assert result.to_rows() == expected

    indexed = _best_of(lambda: indexed_engine.execute(POINT_SQL))
    full = _best_of(lambda: full_scan_engine.execute(POINT_SQL))
    speedup = full / indexed
    assert speedup >= MIN_SPEEDUP, (
        f"indexed lookup only {speedup:.1f}x faster than full scan "
        f"(indexed {indexed * 1e3:.3f}ms, full {full * 1e3:.3f}ms); "
        f"gate is {MIN_SPEEDUP:.0f}x over {N_ROWS:,} rows"
    )


def test_perf_sql_full_scan_baseline(benchmark, full_scan_engine):
    """The same query without the optimizer, for the recorded ratio."""
    result = benchmark.pedantic(
        full_scan_engine.execute, args=(POINT_SQL,), rounds=5, iterations=1
    )
    assert result.num_rows == 201


def test_perf_sql_indexed_range_scan(benchmark, indexed_engine):
    result = benchmark(indexed_engine.execute, RANGE_SQL)
    assert result.num_rows == 1_000


def test_perf_sql_analyze(benchmark, big_table):
    engine = QueryEngine({"blocks": big_table})
    summary = benchmark(engine.analyze)
    assert summary.num_rows == 3


def test_perf_sql_optimized_join(benchmark, indexed_engine, big_table):
    """Selective probe side joined against the indexed 200k-row table."""
    probe = Table({"height": np.arange(0, N_ROWS, N_ROWS // 50)})
    engine = QueryEngine({"blocks": big_table, "probe": probe})
    engine.create_index("blocks", "height", "sorted")
    engine.execute("ANALYZE")
    sql = (
        "SELECT p.height, b.producer FROM probe p "
        "JOIN blocks b ON p.height = b.height"
    )
    result = benchmark(engine.execute, sql)
    assert result.num_rows == 50
