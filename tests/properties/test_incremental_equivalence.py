"""Equivalence: incremental/batched measurement paths vs the naive loop.

The fast paths — segment-derived sliding histograms
(:meth:`Credits.sliding_histograms`), the batched metric kernels
(:func:`compute_batch`) and :meth:`MeasurementEngine.measure_many` — must
reproduce the per-window reference loop (:meth:`MeasurementEngine.measure`)
for every registered metric and every attribution policy, including which
windows get skipped as empty.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.chain.attribution import attribute
from repro.chain.pools import PoolInfo, PoolRegistry
from repro.core.engine import MeasurementEngine
from repro.metrics.base import available_metrics
from repro.windows.base import TimeWindow
from repro.windows.sliding import SlidingBlockWindows
from tests.conftest import make_tiny_chain

REGISTRY = PoolRegistry(
    [PoolInfo("PoolA", "a", 0.5, 0.5), PoolInfo("PoolB", "b", 0.3, 0.3)]
)

POLICIES = (
    ("per-address", None),
    ("first-address", None),
    ("fractional", None),
    ("pool", REGISTRY),
)

#: Metrics whose values are (small) integers and must match bit-for-bit.
INTEGER_METRICS = {"nakamoto", "nakamoto-33"}


def random_producers(rng: np.random.Generator, n_blocks: int) -> list[list[str]]:
    names = [f"addr{i}" for i in "abcdefghjk"] + ["a", "b"]
    producers = []
    for _ in range(n_blocks):
        k = int(rng.integers(1, 4))
        producers.append(list(rng.choice(names, size=k, replace=False)))
    return producers


def assert_series_equal(fast, naive, metric):
    __tracebackhide__ = True
    assert fast.metric_name == naive.metric_name
    assert fast.labels == naive.labels
    assert np.array_equal(fast.indices, naive.indices)
    assert fast.skipped == naive.skipped, f"{metric}: skip counts diverge"
    if metric in INTEGER_METRICS:
        assert np.array_equal(fast.values, naive.values), metric
    else:
        np.testing.assert_allclose(
            fast.values, naive.values, rtol=1e-9, atol=1e-12, err_msg=metric
        )


class TestSlidingFastPathEquivalence:
    @pytest.mark.parametrize("policy,registry", POLICIES)
    @pytest.mark.parametrize(
        "size,step",
        [
            (8, 4),  # aligned: the paper's M = N/2, fast path applies
            (6, 2),  # aligned: three segments per window
            (5, 5),  # aligned: fixed partition
            (7, 3),  # unaligned: must fall back, still equal
        ],
    )
    def test_all_metrics_all_policies(self, policy, registry, size, step):
        rng = np.random.default_rng(size * 100 + step)
        chain = make_tiny_chain(random_producers(rng, 60))
        engine = MeasurementEngine(attribute(chain, policy, registry=registry))
        windows = SlidingBlockWindows(size, step).generate(chain.n_blocks)
        for metric in available_metrics():
            naive = engine.measure(metric, windows, window_desc="ref")
            fast = engine.measure_sliding(metric, size, step)
            assert_series_equal(fast, naive, metric)

    @pytest.mark.parametrize("policy,registry", POLICIES)
    def test_measure_sliding_many_matches_loop(self, policy, registry):
        rng = np.random.default_rng(7)
        chain = make_tiny_chain(random_producers(rng, 48))
        engine = MeasurementEngine(attribute(chain, policy, registry=registry))
        metrics = available_metrics()
        sweep = engine.measure_sliding_many(metrics, 8, 4)
        windows = SlidingBlockWindows(8, 4).generate(chain.n_blocks)
        for metric in metrics:
            assert_series_equal(sweep[metric], engine.measure(metric, windows), metric)

    @given(st.integers(min_value=1, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_randomized_chains_match(self, seed):
        rng = np.random.default_rng(seed)
        n_blocks = int(rng.integers(10, 80))
        chain = make_tiny_chain(random_producers(rng, n_blocks))
        engine = MeasurementEngine(attribute(chain, "per-address"))
        size = int(rng.integers(2, max(n_blocks // 2, 3)))
        size -= size % 2  # keep M = N/2 aligned
        size = max(size, 2)
        step = size // 2
        windows = SlidingBlockWindows(size, step).generate(chain.n_blocks)
        for metric in ("gini", "entropy", "nakamoto", "theil", "top4-share"):
            naive = engine.measure(metric, windows, window_desc="ref")
            fast = engine.measure_sliding(metric, size, step)
            assert_series_equal(fast, naive, metric)

    def test_fast_path_actually_engaged(self):
        """Guard against silently falling back to the naive loop."""
        rng = np.random.default_rng(3)
        chain = make_tiny_chain(random_producers(rng, 40))
        engine = MeasurementEngine(attribute(chain, "per-address"))
        assert engine.credits.sliding_histograms(8, 4) is not None
        tracer = obs.enable_tracing()
        try:
            engine.measure_sliding("gini", 8, 4)
        finally:
            obs.disable_tracing()
        assert tracer.metrics.snapshot()["counters"] == {"engine.sliding.fast_path": 1.0}
        assert [span.name for span in tracer.spans] == [
            "attribution.segment_histograms",
            "engine.sliding_sweep",
        ]


class TestTimeSlidingEquivalence:
    @pytest.mark.parametrize("policy,registry", POLICIES)
    def test_batched_matches_per_window_loop(self, policy, registry):
        rng = np.random.default_rng(23)
        chain = make_tiny_chain(random_producers(rng, 64), spacing=6 * 3600)
        engine = MeasurementEngine(attribute(chain, policy, registry=registry))
        duration, step = 3 * 86_400, 86_400
        metrics = available_metrics()
        sweep = engine.measure_time_sliding_many(metrics, duration, step)
        for metric in metrics:
            naive = engine.measure_time_sliding(metric, duration, step)
            assert_series_equal(sweep[metric], naive, metric)

    def test_default_step_and_descriptor(self):
        rng = np.random.default_rng(29)
        chain = make_tiny_chain(random_producers(rng, 50), spacing=4 * 3600)
        engine = MeasurementEngine(attribute(chain, "per-address"))
        sweep = engine.measure_time_sliding_many(["gini"], 2 * 86_400)
        naive = engine.measure_time_sliding("gini", 2 * 86_400)
        assert sweep["gini"].window_desc == naive.window_desc
        assert_series_equal(sweep["gini"], naive, "gini")


class TestMeasureManyEquivalence:
    def test_time_windows_with_empty_windows_skip_counts(self):
        rng = np.random.default_rng(11)
        chain = make_tiny_chain(random_producers(rng, 30), start_ts=10_000, spacing=600)
        engine = MeasurementEngine(attribute(chain, "per-address"))
        # Two windows before the chain, several inside, one after the end.
        windows = [
            TimeWindow(i, f"t{i}", 1_000 + 3_000 * i, 1_000 + 3_000 * (i + 1))
            for i in range(12)
        ]
        metrics = ("gini", "entropy", "nakamoto", "hhi")
        sweep = engine.measure_many(metrics, windows)
        for metric in metrics:
            naive = engine.measure(metric, windows)
            assert naive.skipped > 0, "test needs at least one empty window"
            assert_series_equal(sweep[metric], naive, metric)

    def test_custom_metric_without_kernel_falls_back(self):
        from repro.metrics.base import FunctionMetric, has_batch_kernel

        top_share = FunctionMetric(
            "test-top-share", lambda v: float(v.max() / v.sum())
        )
        assert not has_batch_kernel(top_share.name)
        rng = np.random.default_rng(5)
        chain = make_tiny_chain(random_producers(rng, 40))
        engine = MeasurementEngine(attribute(chain, "per-address"))
        naive = engine.measure(
            top_share, SlidingBlockWindows(8, 4).generate(chain.n_blocks)
        )
        fast = engine.measure_sliding(top_share, 8, 4)
        assert_series_equal(fast, naive, top_share.name)

    def test_sparse_and_dense_distribution_paths_agree(self, monkeypatch):
        """The np.unique path must equal dense bincount bit-for-bit.

        Tiny test chains sit far below ``_SPARSE_MIN_ENTITIES``, so the
        sparse branch is forced by dropping the gate to zero.
        """
        from repro.chain import attribution

        rng = np.random.default_rng(17)
        chain = make_tiny_chain(random_producers(rng, 64))
        default_gate = attribution._SPARSE_MIN_ENTITIES
        for policy, registry in POLICIES:
            credits = attribute(chain, policy, registry=registry)
            for min_entities in (0, default_gate):
                monkeypatch.setattr(attribution, "_SPARSE_MIN_ENTITIES", min_entities)
                for lo, hi in [(0, 2), (3, 5), (0, credits.n_credits), (10, 11), (4, 4)]:
                    hi = min(hi, credits.n_credits)
                    dense = np.bincount(
                        credits.entity_ids[lo:hi],
                        weights=credits.weights[lo:hi],
                        minlength=credits.n_entities,
                    )
                    expected = dense[dense > 0]
                    assert np.array_equal(credits.distribution(lo, hi), expected)
