"""Tests for the live telemetry server and the monitor runner.

The HTTP tests bind an ephemeral port on localhost and drive the real
:class:`~repro.serve.TelemetryServer` with ``urllib``; the monitor tests
feed synthetic blocks so they stay fast and deterministic.  One
subprocess test covers the acceptance path the in-process tests cannot:
SIGTERM mid-run must still flush ``--trace`` output.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import obs
from repro.errors import ResilienceError
from repro.obs.alerts import rules_from_thresholds
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    PROMETHEUS_CONTENT_TYPE,
    MonitorState,
    TelemetryServer,
    run_monitor,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def clean_global_registry():
    """run_monitor writes to the process-wide registry; keep tests isolated."""
    obs.get_tracer().metrics.reset()
    yield
    obs.get_tracer().metrics.reset()


def http_get(port: int, path: str, timeout: float = 5.0):
    """GET localhost:port/path -> (status, content_type, body_text)."""
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return (
                response.status,
                response.headers.get("Content-Type"),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type"), err.read().decode("utf-8")


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestMonitorState:
    def test_ready_flips_on_first_evaluation(self):
        state = MonitorState("bitcoin", 144, 72, total_blocks=1000)
        assert not state.is_ready()
        state.record_push(144)
        assert not state.is_ready()
        state.record_evaluation({"gini": 0.8})
        assert state.is_ready()

    def test_snapshot_reports_window_and_lag(self):
        state = MonitorState("bitcoin", 144, 72, total_blocks=1000)
        state.record_push(200)
        state.record_evaluation({"gini": 0.8, "nakamoto": 4.0})
        snap = state.snapshot()
        assert snap["window"] == {
            "size": 144, "stride": 72, "start_block": 56, "end_block": 200,
        }
        assert snap["lag_blocks"] == 800
        assert snap["latest"] == {"gini": 0.8, "nakamoto": 4.0}
        assert snap["evaluations"] == 1
        assert not snap["finished"]
        json.dumps(snap)  # the /status payload must be JSON-serializable

    def test_unknown_total_means_no_lag(self):
        snap = MonitorState("x", 10, 5).snapshot()
        assert snap["total_blocks"] is None
        assert snap["lag_blocks"] is None

    def test_crash_degrades_until_next_evaluation(self):
        state = MonitorState("bitcoin", 10, 5)
        state.record_push(10)
        state.record_evaluation({"gini": 0.5})
        assert state.is_ready()
        state.record_crash(RuntimeError("boom"))
        assert not state.is_ready()
        snap = state.snapshot()
        assert snap["ready"] is False
        assert snap["resilience"]["degraded"] is True
        assert snap["resilience"]["crashes"] == 1
        assert "boom" in snap["resilience"]["last_error"]
        state.record_restart()
        assert not state.is_ready()  # degraded until a window evaluates
        state.record_evaluation({"gini": 0.5})
        assert state.is_ready()
        assert state.snapshot()["resilience"]["restarts"] == 1

    def test_faults_ride_along_in_status(self):
        state = MonitorState("x", 10, 5)
        state.faults_fn = lambda: {"timeout": 2}
        snap = state.snapshot()
        assert snap["resilience"]["faults"] == {"timeout": 2}
        json.dumps(snap)  # the /status payload must stay serializable


class TestTelemetryServer:
    def test_endpoints(self):
        registry = MetricsRegistry()
        registry.counter("demo.hits").inc(3)
        ready = threading.Event()
        server = TelemetryServer(
            registry,
            status_fn=lambda: {"chain": "demo"},
            ready_fn=ready.is_set,
        )
        with server:
            port = server.port
            status, ctype, body = http_get(port, "/metrics")
            assert status == 200
            assert ctype == PROMETHEUS_CONTENT_TYPE
            assert "repro_demo_hits_total 3" in body

            status, _, body = http_get(port, "/healthz")
            assert (status, body) == (200, "ok\n")

            status, _, _ = http_get(port, "/readyz")
            assert status == 503
            ready.set()
            status, _, _ = http_get(port, "/readyz")
            assert status == 200

            status, ctype, body = http_get(port, "/status")
            assert status == 200
            assert ctype.startswith("application/json")
            assert json.loads(body) == {"chain": "demo"}

            status, _, _ = http_get(port, "/nope")
            assert status == 404

    def test_query_strings_are_ignored(self):
        with TelemetryServer(MetricsRegistry()) as server:
            status, _, _ = http_get(server.port, "/healthz?verbose=1")
            assert status == 200

    def test_stop_releases_the_port_and_is_idempotent(self):
        server = TelemetryServer(MetricsRegistry())
        port = server.start()
        assert http_get(port, "/healthz")[0] == 200
        server.stop()
        server.stop()
        with pytest.raises(OSError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=0.5
            )


@pytest.fixture
def stores(monkeypatch):
    """Every history store ``run_monitor`` creates, in creation order."""
    from repro.obs.timeseries import TimeSeriesStore

    created = []

    def capturing_store(*args, **kwargs):
        created.append(TimeSeriesStore(*args, **kwargs))
        return created[-1]

    monkeypatch.setattr("repro.serve.monitor.TimeSeriesStore", capturing_store)
    return created


def synthetic_feed(n_blocks: int, n_producers: int = 5):
    """Round-robin producers: perfectly even, low gini, high entropy."""
    for i in range(n_blocks):
        yield [f"pool-{i % n_producers}"]


class TestRunMonitor:
    def test_counts_and_latest_without_server(self):
        lines = []
        result = run_monitor(
            synthetic_feed(100),
            window_size=20,
            stride=10,
            chain="synthetic",
            alert_rules=rules_from_thresholds(above=[("entropy", 1.0)]),
            total_blocks=100,
            print_fn=lines.append,
        )
        assert result.blocks == 100
        assert result.evaluations == 9  # blocks 20, 30, ..., 100
        # Even split: entropy log2(5) > 1 on every evaluation, one firing.
        assert (result.alerts_fired, result.alerts_resolved) == (1, 0)
        assert set(result.latest) == {"gini", "entropy", "nakamoto"}
        assert result.port is None
        assert [line.split()[1:3] for line in lines] == [["FIRING", "entropy-above-1"]]

    def test_registry_gauges_track_progress(self):
        run_monitor(
            synthetic_feed(40), window_size=10, stride=5, total_blocks=40
        )
        registry = obs.get_tracer().metrics
        snap = registry.snapshot()
        assert snap["gauges"]["monitor.blocks_ingested"] == 40.0
        assert snap["gauges"]["monitor.lag_blocks"] == 0.0
        assert snap["gauges"]["monitor.latest.gini"] >= 0.0
        assert snap["timings"]["monitor.push_seconds"]["count"] == 40

    def test_progress_gauges_record_history_once_per_evaluation(self, stores):
        """The progress gauges' history holds one point per window
        evaluation plus one at feed end; the push timing keeps one per push."""
        run_monitor(synthetic_feed(40), window_size=10, stride=5, total_blocks=40)
        (store,) = stores

        def values(name):
            return [value for _, value in store.raw_points(name)]

        assert values("monitor.blocks_ingested") == [10, 15, 20, 25, 30, 35, 40, 40]
        assert values("monitor.lag_blocks") == [30, 25, 20, 15, 10, 5, 0, 0]
        assert len(values("monitor.push_seconds")) == 40

    def test_stop_event_aborts_ingestion(self):
        stop = threading.Event()
        stop.set()
        result = run_monitor(
            synthetic_feed(1000), window_size=10, stride=5, stop_event=stop
        )
        assert result.blocks == 0
        assert result.evaluations == 0


class TestPushTimingHistory:
    """``monitor.push_seconds`` history holds every push, whenever it is
    written: the same values as the timing histogram, in push order."""

    @staticmethod
    def assert_one_point_per_push(store, n_pushes):
        timing = obs.get_tracer().metrics.timing("monitor.push_seconds")
        points = store.raw_points("monitor.push_seconds")
        assert timing.count == n_pushes
        assert [value for _, value in points] == timing.dump_state()["samples"]
        stamps = [ts for ts, _ in points]
        assert stamps == sorted(stamps)

    def test_raw_points_equal_the_histogram_observations(self, stores):
        run_monitor(synthetic_feed(40), window_size=10, stride=5, total_blocks=40)
        (store,) = stores
        self.assert_one_point_per_push(store, 40)

    def test_latency_slo_fires_at_the_first_evaluation(self, stores):
        """Every push is slower than 0 s, so both burn-rate pairs of the
        objective breach as soon as the first window is evaluated."""
        from repro.obs.alerts import AlertSink
        from repro.obs.slo import SLO

        blocks_gauge = obs.get_tracer().metrics.gauge("monitor.blocks_ingested")
        events = []

        class Capture(AlertSink):
            def emit(self, event):
                events.append((blocks_gauge.value, event.rule, event.state,
                               event.message))

        result = run_monitor(
            synthetic_feed(40),
            window_size=10,
            stride=5,
            total_blocks=40,
            slos=[SLO("push", "latency", 0.99, series="monitor.push_seconds",
                      value=0.0)],
            alert_sinks=[Capture()],
            print_fn=lambda _line: None,
        )
        (store,) = stores
        self.assert_one_point_per_push(store, 40)
        assert (result.alerts_fired, result.alerts_resolved) == (2, 0)
        assert events == [
            (10.0, "slo:push:fast", "firing", "slo:push:fast: value=100"),
            (10.0, "slo:push:slow", "firing", "slo:push:slow: value=100"),
        ]

    def test_stop_mid_stride_keeps_every_pushed_block(self, stores):
        stop = threading.Event()

        def feed():
            for i, block in enumerate(synthetic_feed(40)):
                if i == 13:
                    stop.set()
                yield block

        result = run_monitor(feed(), window_size=10, stride=5, stop_event=stop)
        (store,) = stores
        assert (result.blocks, result.evaluations) == (13, 1)
        self.assert_one_point_per_push(store, 13)

    def test_throttled_queue_stores_each_push_before_the_next_block(self, stores):
        """With an ingest queue the feeder thread does the throttling and
        the ingest loop waits in the queue; the series, read mid-run before
        any window is evaluated, still holds every finished push."""
        stored = []

        def feed():
            for i, block in enumerate(synthetic_feed(6)):
                if i:
                    (store,) = stores
                    wait_until(
                        lambda: len(store.raw_points("monitor.push_seconds")) >= i,
                        timeout=5.0,
                    )
                    stored.append(len(store.raw_points("monitor.push_seconds")))
                yield block

        result = run_monitor(
            feed(), window_size=20, stride=5, throttle=0.01, ingest_queue=4
        )
        (store,) = stores
        assert (result.blocks, result.evaluations) == (6, 0)
        assert stored == [1, 2, 3, 4, 5]
        self.assert_one_point_per_push(store, 6)


class TestServedMonitor:
    def test_readyz_flips_after_first_window(self, tmp_path):
        """Acceptance: /readyz is 503 until the first window completes."""
        window = 10
        gate = threading.Event()
        stop = threading.Event()
        port_file = tmp_path / "port"
        results = []

        def gated_feed():
            for i in range(window - 1):
                yield ["pool-a"]
            assert gate.wait(timeout=30.0)
            yield ["pool-b"]  # completes the first window

        def run():
            results.append(
                run_monitor(
                    gated_feed(),
                    window_size=window,
                    stride=5,
                    chain="gated",
                    total_blocks=window,
                    serve_port=0,
                    linger=-1.0,
                    port_file=str(port_file),
                    stop_event=stop,
                    print_fn=lambda _line: None,
                )
            )

        thread = threading.Thread(target=run)
        thread.start()
        try:
            assert wait_until(port_file.exists), "port file never appeared"
            port = int(port_file.read_text().strip())
            assert wait_until(
                lambda: json.loads(http_get(port, "/status")[2])[
                    "blocks_ingested"
                ] == window - 1
            )
            # Mid-run scrapes work while the monitor is one block short...
            assert http_get(port, "/healthz")[0] == 200
            assert http_get(port, "/readyz")[0] == 503
            status, _, body = http_get(port, "/metrics")
            assert status == 200
            assert "repro_monitor_blocks_ingested 9" in body
            # ...and readiness flips once the window evaluates.
            gate.set()
            assert wait_until(lambda: http_get(port, "/readyz")[0] == 200)
            snapshot = json.loads(http_get(port, "/status")[2])
            assert snapshot["ready"] and snapshot["finished"]
            assert snapshot["evaluations"] == 1
        finally:
            gate.set()
            stop.set()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        (result,) = results
        assert result.blocks == window
        assert result.evaluations == 1


class TestPortFile:
    def test_port_file_appears_whole_and_leaves_no_staging_file(
        self, tmp_path, monkeypatch
    ):
        port_file = tmp_path / "port"
        renames = []
        real_replace = os.replace

        def checked_replace(src, dst):
            # Until the rename the port file does not exist; the rename
            # moves a complete file into place in one step.
            assert not os.path.exists(dst)
            renames.append((Path(src).parent, Path(src).read_text(encoding="utf-8")))
            real_replace(src, dst)

        monkeypatch.setattr("repro.serve.monitor.os.replace", checked_replace)
        result = run_monitor(
            synthetic_feed(20), window_size=10, stride=5, serve_port=0,
            port_file=str(port_file), print_fn=lambda _line: None,
        )
        assert renames == [(tmp_path, f"{result.port}\n")]
        assert port_file.read_text(encoding="utf-8") == f"{result.port}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["port"]

    def test_failed_port_file_write_cleans_up(self, tmp_path):
        target = tmp_path / "port"
        target.mkdir()  # a file cannot be renamed over a directory
        before = set(threading.enumerate())
        with pytest.raises(OSError):
            run_monitor(
                synthetic_feed(20), window_size=10, stride=5, serve_port=0,
                port_file=str(target), print_fn=lambda _line: None,
            )
        assert [path.name for path in tmp_path.iterdir()] == ["port"]
        assert not any(target.iterdir())
        started = set(threading.enumerate()) - before
        assert not [t for t in started if t.name == "repro-telemetry"]
        assert obs.get_tracer().metrics.history is None


class TestSupervisedMonitor:
    def test_readyz_degrades_on_crash_and_recovers_after_restart(self, tmp_path):
        """Acceptance: a mid-run crash flips /readyz to 503; the restarted
        loop (which does not replay the poison block) flips it back to 200
        once a window evaluates."""
        gate = threading.Event()
        stop = threading.Event()
        port_file = tmp_path / "port"
        results = []

        def poisoned_feed():
            for i in range(30):
                yield [f"pool-{i % 3}"]
            yield []  # poison: push() raises, the supervisor catches
            assert gate.wait(timeout=30.0)
            for i in range(40):
                yield [f"pool-{i % 3}"]

        def run():
            results.append(
                run_monitor(
                    poisoned_feed(),
                    window_size=10,
                    stride=5,
                    chain="poisoned",
                    serve_port=0,
                    linger=-1.0,
                    port_file=str(port_file),
                    stop_event=stop,
                    max_restarts=2,
                    restart_backoff=0.01,
                    print_fn=lambda _line: None,
                )
            )

        thread = threading.Thread(target=run)
        thread.start()
        try:
            assert wait_until(port_file.exists), "port file never appeared"
            port = int(port_file.read_text().strip())
            # The poison block degrades readiness; the restarted loop is
            # parked on the gate, so 503 holds until we open it.
            assert wait_until(lambda: http_get(port, "/readyz")[0] == 503)
            snapshot = json.loads(http_get(port, "/status")[2])
            assert snapshot["ready"] is False
            assert snapshot["resilience"]["crashes"] == 1
            assert "producer" in snapshot["resilience"]["last_error"]
            assert http_get(port, "/healthz")[0] == 200  # alive, not ready
            gate.set()
            assert wait_until(lambda: http_get(port, "/readyz")[0] == 200)
            # Let the feed drain fully before stopping, so the run's
            # block count is deterministic.
            assert wait_until(
                lambda: json.loads(http_get(port, "/status")[2])[
                    "blocks_ingested"
                ] == 70
            )
        finally:
            gate.set()
            stop.set()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        (result,) = results
        assert result.blocks == 70  # the poison block is consumed, not replayed
        assert result.restarts == 1

    def test_exhausted_restart_budget_raises_resilience_error(self):
        def poison_feed():
            yield ["pool-a"]
            while True:
                yield []

        with pytest.raises(ResilienceError, match="restart budget"):
            run_monitor(
                poison_feed(),
                window_size=10,
                stride=5,
                max_restarts=1,
                restart_backoff=0.0,
                print_fn=lambda _line: None,
            )

    def test_unsupervised_crash_propagates(self):
        from repro.errors import MeasurementError

        with pytest.raises(MeasurementError):
            run_monitor(
                iter([["pool-a"], []]),
                window_size=10,
                stride=5,
                print_fn=lambda _line: None,
            )


class TestSigtermFlushesTrace:
    def test_monitor_killed_mid_run_still_writes_trace(self, tmp_path):
        """Regression: --trace output must survive SIGTERM mid-monitor."""
        trace_path = tmp_path / "trace.jsonl"
        port_file = tmp_path / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli",
                "--trace", str(trace_path),
                "monitor", "--chain", "bitcoin", "--blocks", "2000",
                "--serve", "0", "--port-file", str(port_file),
                "--throttle", "0.005", "--linger=-1",
            ],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert wait_until(port_file.exists, timeout=60.0), (
                "monitor never served",
                proc.poll(),
            )
            port = int(port_file.read_text().strip())
            assert http_get(port, "/healthz")[0] == 200
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, (stdout, stderr)
        assert "wrote trace" in stdout
        from repro.obs.export import validate_trace_file

        summary = validate_trace_file(str(trace_path))
        assert summary["format"] == "jsonl"
        assert summary["n_spans"] >= 1


class TestSeriesAndAlertEndpoints:
    def _server(self):
        from repro.obs.alerts import AlertManager, AlertRule
        from repro.obs.timeseries import TimeSeriesStore

        store = TimeSeriesStore(clock=lambda: 1000.0)
        for i in range(10):
            store.record("gini", 0.5 + i * 0.01, ts=900.0 + i * 10)
        manager = AlertManager(clock=lambda: 1000.0, registry=MetricsRegistry())
        manager.add_rule(AlertRule("gini-high", metric="gini", above=0.5))
        manager.evaluate({"gini": 0.9})
        return TelemetryServer(
            MetricsRegistry(), store=store, alert_manager=manager
        )

    def test_series_index_lists_names(self):
        with self._server() as server:
            status, ctype, body = http_get(server.port, "/api/v1/series")
        assert status == 200
        assert ctype.startswith("application/json")
        assert json.loads(body)["series"] == ["gini"]

    def test_series_query_with_window_and_step(self):
        with self._server() as server:
            status, _, body = http_get(
                server.port, "/api/v1/series/gini?start=920&end=950&step=1"
            )
        assert status == 200
        payload = json.loads(body)
        assert payload["name"] == "gini"
        assert [p["ts"] for p in payload["points"]] == [920.0, 930.0, 940.0, 950.0]

    def test_series_rollup_step_selects_level(self):
        with self._server() as server:
            status, _, body = http_get(server.port, "/api/v1/series/gini?step=60")
        assert status == 200
        payload = json.loads(body)
        assert payload["step"] == 60.0
        assert sum(p["count"] for p in payload["points"]) == 10

    def test_unknown_series_is_404(self):
        with self._server() as server:
            status, _, body = http_get(server.port, "/api/v1/series/nope")
        assert status == 404
        assert "unknown series" in body

    def test_bad_query_param_is_400(self):
        with self._server() as server:
            status, _, body = http_get(
                server.port, "/api/v1/series/gini?start=banana"
            )
        assert status == 400
        assert "banana" in body

    def test_alerts_endpoint_reports_active_and_history(self):
        with self._server() as server:
            status, ctype, body = http_get(server.port, "/api/v1/alerts")
        assert status == 200
        assert ctype.startswith("application/json")
        payload = json.loads(body)
        assert payload["firing"] == 1
        assert payload["active"][0]["rule"] == "gini-high"
        assert [e["state"] for e in payload["history"]] == ["firing"]

    def test_endpoints_404_when_not_enabled(self):
        with TelemetryServer(MetricsRegistry()) as server:
            series_status, _, series_body = http_get(
                server.port, "/api/v1/series"
            )
            alerts_status, _, alerts_body = http_get(
                server.port, "/api/v1/alerts"
            )
        assert series_status == 404 and "not enabled" in series_body
        assert alerts_status == 404 and "not enabled" in alerts_body


class TestConcurrentScrapesDuringAlertTransition:
    def test_status_and_metrics_stay_consistent_while_alert_resolves(
        self, tmp_path
    ):
        """Satellite (d): hammer /status and /metrics from several threads
        while a lag alert goes firing -> resolved; every scrape must be a
        well-formed 200 and the final alert history must show exactly one
        firing and one resolved transition."""
        from repro.obs.alerts import AlertRule

        total = 60
        gate = threading.Event()
        stop = threading.Event()
        port_file = tmp_path / "port"
        results = []

        def gated_feed():
            for i in range(30):
                yield [f"pool-{i % 4}"]
            assert gate.wait(timeout=30.0)
            for i in range(30):
                yield [f"pool-{i % 4}"]

        def run():
            results.append(
                run_monitor(
                    gated_feed(),
                    window_size=10,
                    stride=5,
                    chain="transition",
                    total_blocks=total,
                    serve_port=0,
                    linger=-1.0,
                    port_file=str(port_file),
                    stop_event=stop,
                    alert_rules=[
                        AlertRule("lag-high", metric="lag_blocks", above=5.0)
                    ],
                    print_fn=lambda _line: None,
                )
            )

        thread = threading.Thread(target=run)
        thread.start()
        scrape_errors: list[str] = []
        scrapers_stop = threading.Event()

        def scraper(path):
            while not scrapers_stop.is_set():
                status, _, body = http_get(port, path, timeout=5.0)
                if status != 200:
                    scrape_errors.append(f"{path} -> {status}")
                elif path == "/status":
                    try:
                        json.loads(body)
                    except json.JSONDecodeError as exc:
                        scrape_errors.append(f"{path} bad json: {exc}")
                elif "repro_build_info" not in body:
                    scrape_errors.append(f"{path} truncated body")

        scrapers = []
        try:
            assert wait_until(port_file.exists), "port file never appeared"
            port = int(port_file.read_text().strip())
            # The first half of the feed leaves lag at 30 > 5: firing.
            assert wait_until(
                lambda: json.loads(http_get(port, "/api/v1/alerts")[2])[
                    "firing"
                ] == 1
            )
            for path in ("/status", "/metrics", "/status", "/metrics"):
                t = threading.Thread(target=scraper, args=(path,), daemon=True)
                t.start()
                scrapers.append(t)
            gate.set()  # drain the feed; the settled pass resolves the alert
            assert wait_until(
                lambda: json.loads(http_get(port, "/api/v1/alerts")[2])[
                    "resolved_total"
                ] == 1
            )
            payload = json.loads(http_get(port, "/api/v1/alerts")[2])
        finally:
            scrapers_stop.set()
            for t in scrapers:
                t.join(timeout=10.0)
            gate.set()
            stop.set()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert scrape_errors == []
        (result,) = results
        assert result.blocks == total
        assert result.alerts_fired == 1
        assert result.alerts_resolved == 1
        states = [e["state"] for e in payload["history"] if e["rule"] == "lag-high"]
        assert states == ["firing", "resolved"]
        assert payload["active"] == []

    def test_monitor_status_exposes_sparklines_and_slo(self):
        from repro.obs.slo import SLO

        result = run_monitor(
            synthetic_feed(60),
            window_size=10,
            stride=5,
            chain="synthetic",
            total_blocks=60,
            serve_port=0,
            linger=0.0,
            slos=[SLO("drift", "metric", 0.99, series="monitor.latest.nakamoto",
                      op=">=", value=1.0)],
            print_fn=lambda _line: None,
        )
        assert result.blocks == 60
