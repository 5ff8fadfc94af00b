"""Tests for multi-metric sweeps (measure_many and friends)."""

import logging

import numpy as np
import pytest

from repro import obs
from repro.chain import attribution
from repro.chain.attribution import attribute
from repro.core.engine import MeasurementEngine
from repro.errors import MetricError
from repro.windows.sliding import SlidingBlockWindows
from tests.conftest import make_tiny_chain


class TestMeasureManyOnCalibratedChain:
    def test_calendar_many_matches_single_metric_calls(self, btc_engine):
        metrics = ("gini", "entropy", "nakamoto")
        sweep = btc_engine.measure_calendar_many(metrics, "day")
        assert set(sweep) == set(metrics)
        for metric in metrics:
            single = btc_engine.measure_calendar(metric, "day")
            assert sweep[metric].labels == single.labels
            np.testing.assert_allclose(
                sweep[metric].values, single.values, rtol=1e-9, atol=1e-12
            )

    def test_sliding_many_matches_single_metric_calls(self, btc_engine):
        metrics = ("gini", "entropy", "nakamoto")
        sweep = btc_engine.measure_sliding_many(metrics, 144)
        for metric in metrics:
            single = btc_engine.measure_sliding(metric, 144)
            assert sweep[metric].window_desc == "sliding-144/72"
            np.testing.assert_allclose(
                sweep[metric].values, single.values, rtol=1e-12, atol=1e-12
            )

    def test_sliding_fast_path_matches_reference_loop(self, btc_engine):
        windows = SlidingBlockWindows(144, 72).generate(btc_engine.credits.n_blocks)
        for metric in ("gini", "entropy", "nakamoto"):
            reference = btc_engine.measure(metric, windows, window_desc="ref")
            fast = btc_engine.measure_sliding(metric, 144)
            assert fast.labels == reference.labels
            assert fast.skipped == reference.skipped
            np.testing.assert_allclose(
                fast.values, reference.values, rtol=1e-12, atol=1e-12
            )

    def test_metric_objects_accepted(self, btc_engine):
        from repro.metrics.base import get_metric

        sweep = btc_engine.measure_sliding_many((get_metric("gini"), "entropy"), 1008)
        assert set(sweep) == {"gini", "entropy"}

    def test_unknown_metric_raises(self, btc_engine):
        with pytest.raises(MetricError):
            btc_engine.measure_calendar_many(("gini", "no-such-metric"), "day")

    def test_sweep_builds_histograms_once(self, btc_engine, monkeypatch):
        credits = btc_engine.credits
        calls = []

        def spy(size, step):
            calls.append((size, step))
            return type(credits).sliding_histograms(credits, size, step)

        monkeypatch.setattr(credits, "sliding_histograms", spy)
        sweep = btc_engine.measure_sliding_many(("gini", "entropy", "nakamoto"), 1008)
        assert calls == [(1008, 504)]
        assert set(sweep) == {"gini", "entropy", "nakamoto"}


class TestMeasureManyEmptyFamily:
    def test_family_larger_than_chain_yields_empty_series(self, btc_engine):
        n = btc_engine.credits.n_blocks
        sweep = btc_engine.measure_sliding_many(("gini",), n + 10, n + 10)
        assert len(sweep["gini"]) == 0


def assert_same_bytes(a, b):
    __tracebackhide__ = True
    assert a.values.tobytes() == b.values.tobytes()
    assert a.indices.tobytes() == b.indices.tobytes()
    assert (a.labels, a.skipped, a.window_desc, a.metric_name) == (
        b.labels, b.skipped, b.window_desc, b.metric_name
    )


class TestMeasureSlidingIsOneMetricOfMany:
    @pytest.mark.parametrize(
        "size, step",
        [(144, 72), (144, 50), (10**7, 5 * 10**6)],
        ids=["aligned", "misaligned", "empty"],
    )
    @pytest.mark.parametrize("metric", ["gini", "entropy", "nakamoto"])
    def test_single_metric_equals_sweep(self, btc_engine, metric, size, step):
        single = btc_engine.measure_sliding(metric, size, step)
        sweep = btc_engine.measure_sliding_many([metric], size, step)
        assert_same_bytes(single, sweep[metric])


def traced_sweep(engine, size, step):
    """Run one sliding sweep under tracing; return its counters."""
    obs.enable_tracing()
    try:
        engine.measure_sliding_many(("gini", "nakamoto"), size, step)
        return obs.get_tracer().metrics.snapshot()["counters"]
    finally:
        obs.disable_tracing()


class TestSlidingFallbackCause:
    """The fallback warning names what ruled the fast path out."""

    @pytest.fixture
    def engine(self):
        rng = np.random.default_rng(41)
        names = [f"m{i}" for i in range(12)]
        chain = make_tiny_chain([[str(rng.choice(names))] for _ in range(40)])
        return MeasurementEngine(attribute(chain, "per-address"))

    def test_misaligned_family(self, engine, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.core.engine"):
            counters = traced_sweep(engine, 7, 3)
        assert counters == {"engine.sliding.fallback": 1.0}
        assert "size=7 step=3" in caplog.text
        assert "(size % step != 0)" in caplog.text
        assert "memory budget" not in caplog.text

    def test_family_over_the_dense_budget(self, engine, caplog, monkeypatch):
        monkeypatch.setattr(attribution, "_SEGMENT_BUDGET", 10)
        with caplog.at_level(logging.WARNING, logger="repro.core.engine"):
            counters = traced_sweep(engine, 8, 4)
        assert counters == {"engine.sliding.fallback": 1.0}
        assert "(dense histograms over the memory budget)" in caplog.text
        assert "size % step" not in caplog.text
        windows = SlidingBlockWindows(8, 4).generate(engine.credits.n_blocks)
        reference = engine.measure_many(["gini"], windows, "sliding-8/4")["gini"]
        assert_same_bytes(engine.measure_sliding("gini", 8, 4), reference)

    def test_family_longer_than_the_chain_is_empty_on_the_fast_path(
        self, btc_chain, caplog
    ):
        # 8000 % 4000 == 0, yet no window fits in 5,000 blocks.
        engine = MeasurementEngine.from_chain(btc_chain.slice_blocks(0, 5_000))
        with caplog.at_level(logging.WARNING, logger="repro.core.engine"):
            counters = traced_sweep(engine, 8_000, 4_000)
        assert counters == {"engine.sliding.fast_path": 1.0}
        assert caplog.text == ""
        sweep = engine.measure_sliding_many(("gini",), 8_000)
        assert len(sweep["gini"]) == 0 and sweep["gini"].skipped == 0
