"""Tests for the load generator: config validation, classification,
percentiles, and a real closed/open-loop run against a live server."""

import numpy as np
import pytest

from repro.core.series import MeasurementSeries
from repro.errors import ValidationError
from repro.obs.metrics import MetricsRegistry, TimingHistogram
from repro.obs.timeseries import QuantileSketch
from repro.serve import (
    LoadgenConfig,
    LoadgenReport,
    OverloadConfig,
    TelemetryServer,
    format_report,
    run_loadgen,
)
from repro.serve.loadgen import _Collector


class TestOnePercentile:
    def test_every_percentile_is_numpys_linear_one(self):
        """Loadgen's report, the timing histogram, the history sketch and a
        measurement series give the same percentiles of one sample set."""
        samples = [0.001 * v for v in (7, 1, 30, 2, 2, 11, 5, 19, 3)]
        collector = _Collector()
        histogram = TimingHistogram("t")
        for seconds in samples:
            collector.record(200, seconds, stale=False, retry_after=False)
            histogram.observe(seconds)
        sketch = QuantileSketch()
        sketch.add_many(samples)
        series = MeasurementSeries(
            "c", "m", "w", np.arange(len(samples)),
            tuple(map(str, range(len(samples)))), np.asarray(samples),
        )
        report = collector.report(1.0)
        for pct, loadgen_ms in ((50, report.p50_ms), (95, report.p95_ms),
                                (99, report.p99_ms)):
            expected = float(np.percentile(samples, pct))
            assert histogram.percentile(pct) == expected
            assert sketch.quantile(pct / 100) == expected
            assert series.quantile(pct / 100) == expected
            assert loadgen_ms == expected * 1000
        # p95 falls between samples (19 and 30 ms): interpolated, not a rank.
        assert report.p95_ms == pytest.approx(25.6)


class TestLoadgenConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration": 0.0},
            {"duration": -1.0},
            {"clients": 0},
            {"rps": 0.0},
            {"mode": "bursty"},
            {"mode": "open"},  # open loop requires rps
            {"timeout": 0.0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            LoadgenConfig(url="http://127.0.0.1:1", **kwargs)

    def test_open_with_rps_is_valid(self):
        config = LoadgenConfig(url="http://x", mode="open", rps=10.0)
        assert config.mode == "open"


class TestReport:
    def test_ok_requires_no_errors_and_no_unhandled(self):
        assert LoadgenReport(requests=10, duration=1.0).ok()
        assert not LoadgenReport(requests=10, duration=1.0, errors=1).ok()
        assert not LoadgenReport(
            requests=10, duration=1.0, unhandled_5xx=2
        ).ok()

    def test_format_is_greppable(self):
        report = LoadgenReport(
            requests=100,
            duration=2.0,
            status_counts={200: 90, 429: 7, 503: 3},
            stale_responses=4,
            errors=0,
            unhandled_5xx=0,
            p50_ms=1.5,
            p95_ms=4.0,
            p99_ms=9.0,
        )
        text = format_report(report)
        assert "requests=100" in text
        assert "status,200 count=90" in text
        assert "status,429 count=7" in text
        assert "status,503 count=3" in text
        assert "unhandled_5xx=0" in text
        assert "p99=9.00" in text
        assert report.throughput == pytest.approx(50.0)


class TestLoadgenAgainstLiveServer:
    def test_closed_loop_collects_statuses_and_percentiles(self):
        with TelemetryServer(
            MetricsRegistry(), status_fn=lambda: {"ok": True}
        ) as server:
            report = run_loadgen(
                LoadgenConfig(
                    url=f"http://127.0.0.1:{server.port}",
                    path="/status",
                    duration=0.4,
                    clients=3,
                )
            )
        assert report.requests > 0
        assert report.errors == 0
        assert report.unhandled_5xx == 0
        assert set(report.status_counts) == {200}
        assert 0 < report.p50_ms <= report.p95_ms <= report.p99_ms

    def test_open_loop_honours_the_schedule(self):
        with TelemetryServer(
            MetricsRegistry(), status_fn=lambda: {"ok": True}
        ) as server:
            report = run_loadgen(
                LoadgenConfig(
                    url=f"http://127.0.0.1:{server.port}",
                    path="/healthz",
                    duration=0.5,
                    clients=2,
                    rps=40.0,
                    mode="open",
                )
            )
        # ~20 scheduled arrivals; allow generous slack for slow machines.
        assert 5 <= report.requests <= 40
        assert report.errors == 0

    def test_rate_limited_server_yields_429s_not_errors(self):
        registry = MetricsRegistry()
        with TelemetryServer(
            registry,
            status_fn=lambda: {"ok": True},
            overload=OverloadConfig(rate_limit=0.1, burst=1),
        ) as server:
            report = run_loadgen(
                LoadgenConfig(
                    url=f"http://127.0.0.1:{server.port}",
                    path="/metrics",
                    duration=0.3,
                    clients=2,
                )
            )
        assert report.errors == 0
        assert report.unhandled_5xx == 0
        assert report.status_counts.get(429, 0) > 0
        # Each client's single burst token got through.
        assert report.status_counts.get(200, 0) == 2

    def test_unreachable_server_counts_connection_errors(self):
        # Bind-then-close guarantees a dead port.
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            dead_port = sock.getsockname()[1]
        report = run_loadgen(
            LoadgenConfig(
                url=f"http://127.0.0.1:{dead_port}",
                duration=0.2,
                clients=2,
            )
        )
        assert report.requests == 0
        assert report.errors > 0
        assert not report.ok()
