"""Tests for the span/metrics tracer core."""

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry, TimingHistogram
from repro.obs.tracer import Tracer, _NULL_SPAN


@pytest.fixture
def tracer():
    """A private tracer, so tests don't disturb the process singleton."""
    return Tracer().enable()


class TestSpans:
    def test_nested_spans_record_parent_ids(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans  # children finish first
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_span_timing_is_ordered(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        b, a = tracer.spans
        assert a.start <= b.start
        assert b.duration <= a.duration
        assert b.end <= a.end + 1e-9

    def test_attrs_at_open_and_via_set(self, tracer):
        with tracer.span("s", chain="btc") as span:
            span.set(windows=12)
        (record,) = tracer.spans
        assert record.attrs == {"chain": "btc", "windows": 12}

    def test_span_recorded_even_when_body_raises(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in tracer.spans] == ["doomed"]
        assert tracer._stack == []

    def test_sibling_spans_share_parent(self, tracer):
        with tracer.span("parent"):
            with tracer.span("one"):
                pass
            with tracer.span("two"):
                pass
        one, two, parent = tracer.spans
        assert one.parent_id == parent.span_id
        assert two.parent_id == parent.span_id


class TestDisabledPath:
    def test_disabled_span_is_the_shared_null(self):
        tracer = Tracer()
        assert tracer.span("x") is _NULL_SPAN
        assert tracer.span("y", key=1) is _NULL_SPAN

    def test_disabled_records_nothing(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.counter("c")
        tracer.gauge("g", 1.0)
        tracer.timing("t", 0.5)
        assert tracer.spans == []
        assert tracer.metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "timings": {},
        }

    def test_null_span_set_is_chainable_noop(self):
        assert _NULL_SPAN.set(anything=1) is _NULL_SPAN


class TestLifecycle:
    def test_enable_clears_prior_data(self, tracer):
        with tracer.span("old"):
            pass
        tracer.counter("old")
        tracer.enable()
        assert tracer.spans == []
        assert tracer.metrics.snapshot()["counters"] == {}

    def test_disable_keeps_data(self, tracer):
        with tracer.span("kept"):
            pass
        tracer.disable()
        assert [s.name for s in tracer.spans] == ["kept"]
        assert not tracer.enabled


class TestDecorator:
    def test_traced_names_after_module_and_function(self, tracer):
        @tracer.traced()
        def work():
            return 42

        assert work() == 42
        (record,) = tracer.spans
        assert record.name.endswith(".work")

    def test_traced_explicit_name(self, tracer):
        @tracer.traced("custom.label")
        def work():
            return 1

        work()
        assert tracer.spans[0].name == "custom.label"

    def test_traced_checks_enabled_per_call(self):
        tracer = Tracer()

        @tracer.traced("late")
        def work():
            return 1

        work()
        assert tracer.spans == []
        tracer.enable()
        work()
        assert [s.name for s in tracer.spans] == ["late"]


class TestMetrics:
    def test_counter_gauge_timing(self, tracer):
        tracer.counter("hits")
        tracer.counter("hits", 2)
        tracer.gauge("depth", 7.0)
        tracer.timing("build", 0.25)
        tracer.timing("build", 0.75)
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["hits"] == 3.0
        assert snap["gauges"]["depth"] == 7.0
        assert snap["timings"]["build"]["count"] == 2
        assert snap["timings"]["build"]["mean"] == pytest.approx(0.5)

    def test_timing_histogram_percentiles(self):
        hist = TimingHistogram("t")
        for v in range(1, 101):
            hist.observe(v / 100)
        stats = hist.as_dict()
        assert stats["min"] == pytest.approx(0.01)
        assert stats["max"] == pytest.approx(1.0)
        assert 0.4 < stats["p50"] < 0.6
        assert 0.9 < stats["p95"] <= 1.0

    def test_timing_percentiles_describe_the_most_recent_observations(self):
        # An 80,000-push replay whose pushes slow from 1 ms to 10 ms after
        # the first 4,096: the percentiles follow the recent pushes.
        hist = TimingHistogram("t")
        for seconds in [0.001] * 4096 + [0.010] * 75_904:
            hist.observe(seconds)
        stats = hist.as_dict()
        assert stats["count"] == 80_000
        assert stats["mean"] == pytest.approx(0.0095392)
        assert stats["p50"] == stats["p99"] == 0.010

    def test_merged_samples_displace_the_oldest(self):
        hist = TimingHistogram("t")
        for _ in range(4096):
            hist.observe(0.001)
        worker = TimingHistogram("t")
        for _ in range(3000):
            worker.observe(0.010)
        hist.merge_state(worker.dump_state())
        hist.observe(0.010)
        assert hist.count == 7097
        samples = hist.dump_state()["samples"]
        assert (len(samples), samples.count(0.010)) == (4096, 3001)

    def test_registry_instruments_are_cached(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.timing("t") is registry.timing("t")


class TestModuleSingleton:
    def test_module_helpers_route_to_singleton(self):
        tracer = obs.enable_tracing()
        try:
            assert obs.tracing_enabled()
            assert obs.get_tracer() is tracer
            with obs.span("top", kind="test"):
                obs.counter("events")
            assert [s.name for s in tracer.spans] == ["top"]
            assert tracer.metrics.snapshot()["counters"]["events"] == 1.0
        finally:
            obs.disable_tracing()
        assert not obs.tracing_enabled()
