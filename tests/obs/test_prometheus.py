"""Tests for the Prometheus text exposition renderer.

Beyond the happy path, these pin the edge cases a scraper cares about:
name/label sanitization onto the exposition grammar, the empty registry,
cumulative bucket monotonicity past the percentile sample cap, and
scraping concurrently with a recording thread.
"""

import re
import threading

import pytest

from repro.obs.metrics import (
    _HISTOGRAM_SAMPLE_CAP,
    MetricsRegistry,
    TimingHistogram,
)
from repro.obs.prometheus import (
    escape_label_value,
    format_value,
    render_prometheus,
    sanitize_label_name,
    sanitize_metric_name,
)

#: The exposition format's metric-name grammar.
_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: One sample line: name, optional comma-separated labels, value.
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? "
    r"(NaN|[+-]Inf|-?[0-9].*)$"
)


def assert_valid_exposition(text: str) -> None:
    """Every line is a comment or a grammar-legal sample."""
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert _SAMPLE_LINE.match(line), f"bad exposition line: {line!r}"


class TestSanitization:
    def test_dotted_names_become_underscored(self):
        assert (
            sanitize_metric_name("engine.sliding_cache.hit")
            == "repro_engine_sliding_cache_hit"
        )

    @pytest.mark.parametrize(
        "raw",
        ["weird name!", "2phase", "a..b", "sql/queries", "héllo", "-leading"],
    )
    def test_any_input_maps_onto_the_grammar(self, raw):
        assert _METRIC_NAME.match(sanitize_metric_name(raw))

    def test_underscore_runs_are_squeezed(self):
        assert sanitize_metric_name("a..b", namespace="") == "a_b"

    def test_leading_digit_gets_a_guard(self):
        assert sanitize_metric_name("2fast", namespace="")[0] == "_"

    def test_label_names_reject_colons(self):
        assert sanitize_label_name("le:gacy") == "le_gacy"
        assert _METRIC_NAME.match(sanitize_label_name("9lives"))

    def test_label_value_escapes(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


class TestFormatValue:
    def test_integers_lose_the_decimal(self):
        assert format_value(3.0) == "3"
        assert format_value(0.0) == "0"

    def test_floats_round_trip(self):
        assert float(format_value(0.6180339887)) == pytest.approx(0.6180339887)

    def test_non_finite(self):
        assert format_value(float("nan")) == "NaN"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"


class TestRender:
    def test_empty_registry_renders_only_build_info(self):
        text = render_prometheus(MetricsRegistry())
        assert "repro_build_info{" in text
        assert_valid_exposition(text)
        # Nothing but the identity gauge: no counters/histograms leak in.
        samples = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert len(samples) == 1 and samples[0].startswith("repro_build_info")

    def test_build_info_carries_version_and_python_labels(self):
        import platform

        import repro

        text = render_prometheus(MetricsRegistry())
        assert f'version="{repro.__version__}"' in text
        assert f'python="{platform.python_version()}"' in text
        assert 'platform="' in text

    def test_counter_becomes_total_with_metadata(self):
        registry = MetricsRegistry()
        registry.counter("streaming.evaluations").inc(7)
        text = render_prometheus(registry)
        assert "# TYPE repro_streaming_evaluations_total counter" in text
        assert "repro_streaming_evaluations_total 7" in text
        assert_valid_exposition(text)

    def test_counter_named_total_is_not_doubled(self):
        registry = MetricsRegistry()
        registry.counter("alerts.fired_total").inc()
        text = render_prometheus(registry)
        assert "repro_alerts_fired_total 1" in text
        assert "total_total" not in text

    def test_gauge_keeps_its_name(self):
        registry = MetricsRegistry()
        registry.gauge("monitor.lag_blocks").set(42.0)
        text = render_prometheus(registry)
        assert "# TYPE repro_monitor_lag_blocks gauge" in text
        assert "repro_monitor_lag_blocks 42" in text

    def test_histogram_exposes_buckets_sum_count(self):
        registry = MetricsRegistry()
        timing = registry.timing("monitor.push_seconds")
        for value in (0.0001, 0.3, 100.0):
            timing.observe(value)
        text = render_prometheus(registry)
        assert "# TYPE repro_monitor_push_seconds histogram" in text
        assert 'repro_monitor_push_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_monitor_push_seconds_count 3" in text
        assert f"repro_monitor_push_seconds_sum {100.3001!r}" in text
        assert_valid_exposition(text)

    def test_histogram_name_gains_seconds_suffix_once(self):
        registry = MetricsRegistry()
        registry.timing("chain_cache.build_seconds").observe(0.1)
        registry.timing("sweep").observe(0.1)
        text = render_prometheus(registry)
        assert "repro_chain_cache_build_seconds_count 1" in text
        assert "seconds_seconds" not in text
        assert "repro_sweep_seconds_count 1" in text

    def test_output_is_name_sorted_and_newline_terminated(self):
        registry = MetricsRegistry()
        registry.counter("zeta")
        registry.counter("alpha")
        text = render_prometheus(registry)
        assert text.index("repro_alpha") < text.index("repro_zeta")
        assert text.endswith("\n")


class TestBucketCorrectness:
    def test_cumulative_buckets_are_monotone_and_end_at_count(self):
        hist = TimingHistogram("t")
        for i in range(1000):
            hist.observe((i % 97) * 0.013)
        buckets = hist.cumulative_buckets()
        cumulative = [count for _, count in buckets]
        assert cumulative == sorted(cumulative)
        assert buckets[-1] == (float("inf"), 1000)
        bounds = [bound for bound, _ in buckets]
        assert bounds == sorted(bounds)

    def test_bucket_counts_exact_past_the_sample_cap(self):
        # Percentiles come from a bounded sample; bucket counts must not.
        hist = TimingHistogram("t", bucket_bounds=(0.5,))
        n = _HISTOGRAM_SAMPLE_CAP + 500
        for i in range(n):
            hist.observe(0.1 if i % 2 == 0 else 0.9)
        (le_half, below), (_, total) = hist.cumulative_buckets()
        assert le_half == 0.5
        assert below == (n + 1) // 2
        assert total == n

    def test_boundary_observation_lands_in_its_bucket(self):
        # The exposition's `le` is inclusive: observe(bound) counts in it.
        hist = TimingHistogram("t", bucket_bounds=(0.5, 1.0))
        hist.observe(0.5)
        assert hist.cumulative_buckets()[0] == (0.5, 1)


class TestConcurrentScrape:
    def test_scrape_while_recording_new_instruments(self):
        """A scraping thread must never trip over a growing registry."""
        registry = MetricsRegistry()
        stop = threading.Event()
        errors: list[BaseException] = []

        def record():
            i = 0
            while not stop.is_set():
                registry.counter(f"churn.counter_{i % 64}").inc()
                registry.gauge(f"churn.gauge_{i % 64}").set(i)
                registry.timing(f"churn.timing_{i % 64}").observe(i * 1e-4)
                i += 1

        def scrape():
            try:
                while not stop.is_set():
                    assert_valid_exposition(render_prometheus(registry))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=record) for _ in range(2)]
        threads.append(threading.Thread(target=scrape))
        for thread in threads:
            thread.start()
        try:
            threads[-1].join(timeout=1.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
        assert not errors
        assert_valid_exposition(render_prometheus(registry))
