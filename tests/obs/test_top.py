"""Tests for the ``repro top`` live dashboard (:mod:`repro.obs.top`).

Rendering is a pure function of status snapshots, so most tests drive it
with dicts; one test hits a real :class:`~repro.serve.TelemetryServer`
over HTTP to prove :func:`fetch_status` speaks the actual protocol.
"""

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.top import fetch_status, render_dashboard, run_top
from repro.serve import TelemetryServer

FULL_STATUS = {
    "chain": "bitcoin",
    "uptime_seconds": 120.0,
    "ready": True,
    "finished": False,
    "blocks_ingested": 1_440,
    "total_blocks": 4_320,
    "lag_blocks": 2_880,
    "evaluations": 18,
    "build": {"version": "1.3.0", "python": "3.12.0"},
    "workers": {
        "cpu_count": 8,
        "active_pools": 1,
        "last_pool": {"workers": 4},
        "lifetime": {"tasks_submitted": 40, "tasks_completed": 30},
    },
    "timings": {
        "engine.window_seconds": {
            "count": 18, "mean": 0.004, "p50": 0.003, "p99": 0.009,
        }
    },
    "latest": {"gini": 0.8123, "nakamoto": 4.0},
}


class TestRenderDashboard:
    def test_header_carries_chain_version_and_state(self):
        frame = render_dashboard(FULL_STATUS)
        header = frame.splitlines()[0]
        assert "chain=bitcoin" in header
        assert "version=1.3.0" in header
        assert "[ready]" in header

    def test_state_precedence(self):
        assert "[warming up]" in render_dashboard({})
        assert "[finished]" in render_dashboard({"ready": True, "finished": True})
        degraded = dict(FULL_STATUS, resilience={"degraded": True})
        assert "[DEGRADED]" in render_dashboard(degraded)

    def test_ingest_line_shows_progress_and_lag(self):
        frame = render_dashboard(FULL_STATUS)
        assert "blocks=1440/4320" in frame
        assert "lag=2880" in frame
        assert "evaluations=18" in frame
        assert "alerts=" not in frame

    def test_first_frame_throughput_is_lifetime_average(self):
        frame = render_dashboard(FULL_STATUS, previous=None)
        assert "throughput=12.0 blocks/s" in frame  # 1440 blocks / 120 s

    def test_delta_throughput_between_polls(self):
        previous = dict(FULL_STATUS, blocks_ingested=1_400)
        frame = render_dashboard(FULL_STATUS, previous=previous, interval=2.0)
        assert "throughput=20.0 blocks/s" in frame  # 40 blocks / 2 s

    def test_pool_line_shows_utilization(self):
        frame = render_dashboard(FULL_STATUS)
        assert "cpus=8" in frame
        assert "tasks=30/40 (75% done)" in frame

    def test_latency_table_renders_percentiles(self):
        frame = render_dashboard(FULL_STATUS)
        assert "engine.window_seconds" in frame
        assert "3.00ms" in frame  # p50
        assert "9.00ms" in frame  # p99

    def test_metrics_line_sorted(self):
        frame = render_dashboard(FULL_STATUS)
        assert "gini=0.8123  nakamoto=4.0000" in frame

    def test_minimal_status_renders_without_crashing(self):
        frame = render_dashboard({})
        assert "repro top" in frame
        assert "latency" not in frame  # no timings section


class TestFetchStatus:
    def test_against_live_server(self):
        server = TelemetryServer(
            MetricsRegistry(), status_fn=lambda: dict(FULL_STATUS)
        )
        with server:
            status = fetch_status(f"http://127.0.0.1:{server.port}/status")
        assert status["chain"] == "bitcoin"

    def test_unreachable_server_raises(self):
        with pytest.raises(ObservabilityError, match="cannot reach"):
            fetch_status("http://127.0.0.1:1/status", timeout=0.2)

    def test_non_json_body_raises(self):
        server = TelemetryServer(MetricsRegistry())
        with server:
            with pytest.raises(ObservabilityError, match="did not return JSON"):
                fetch_status(f"http://127.0.0.1:{server.port}/healthz")


class TestRunTop:
    def _drive(self, statuses, **kwargs):
        """Run with canned fetch results; returns (exit_code, frames).

        Each item in ``statuses`` is either a status dict or an exception
        instance to raise from that poll.
        """
        frames: list[str] = []
        feed = iter(statuses)

        def fake_fetch(url, timeout=2.0):
            item = next(feed)
            if isinstance(item, Exception):
                raise item
            return item

        import repro.obs.top as top_mod

        original = top_mod.fetch_status
        top_mod.fetch_status = fake_fetch
        try:
            code = run_top(
                "http://x/status",
                interval=0.0,
                print_fn=frames.append,
                clear=False,
                sleep_fn=lambda _: None,
                **kwargs,
            )
        finally:
            top_mod.fetch_status = original
        return code, frames

    def test_bounded_iterations_render_that_many_frames(self):
        code, frames = self._drive([dict(FULL_STATUS)] * 5, iterations=2)
        assert code == 0
        assert len(frames) == 2

    def test_first_poll_failure_exits_1_and_names_url(self):
        code, frames = self._drive(
            [ObservabilityError("cannot reach it")], iterations=1
        )
        assert code == 1
        assert frames and frames[0].startswith("error:")
        assert "http://x/status" in frames[0]

    def test_bounded_run_fails_fast_on_any_poll_failure(self):
        # With --iterations set (scripted/CI usage) a dead server after
        # the first frame must exit 1 and name the target URL, not retry
        # forever past the iteration budget.
        code, frames = self._drive(
            [dict(FULL_STATUS), ObservabilityError("hiccup"), dict(FULL_STATUS)],
            iterations=2,
        )
        assert code == 1
        assert len(frames) == 2  # frame, then the fatal error line
        assert frames[1].startswith("error:")
        assert "http://x/status" in frames[1]

    def test_unbounded_run_retries_transient_failure_after_first_frame(self):
        # Interactive mode (no --iterations) keeps polling through
        # transient failures once a frame has rendered.
        frames: list[str] = []
        feed = iter(
            [dict(FULL_STATUS), ObservabilityError("hiccup"), dict(FULL_STATUS)]
        )

        def fake_fetch(url, timeout=2.0):
            item = next(feed)
            if isinstance(item, Exception):
                raise item
            return item

        stop_after = {"polls": 0}

        def sleepy(_):
            stop_after["polls"] += 1
            if stop_after["polls"] >= 3:
                raise KeyboardInterrupt

        import repro.obs.top as top_mod

        original = top_mod.fetch_status
        top_mod.fetch_status = fake_fetch
        try:
            code = run_top(
                "http://x/status",
                interval=0.1,
                print_fn=frames.append,
                clear=False,
                sleep_fn=sleepy,
            )
        finally:
            top_mod.fetch_status = original
        assert code == 0
        assert sum("retrying" in f for f in frames) == 1
        assert sum("repro top" in f for f in frames) == 2

    def test_keyboard_interrupt_during_sleep_exits_0(self):
        def sleepy(_):
            raise KeyboardInterrupt

        frames: list[str] = []
        import repro.obs.top as top_mod

        original = top_mod.fetch_status
        top_mod.fetch_status = lambda url, timeout=2.0: dict(FULL_STATUS)
        try:
            code = run_top(
                "http://x/status",
                interval=1.0,
                print_fn=frames.append,
                clear=False,
                sleep_fn=sleepy,
            )
        finally:
            top_mod.fetch_status = original
        assert code == 0
        assert len(frames) == 1


class TestOverloadPanels:
    OVERLOADED = {
        "chain": "bitcoin",
        "blocks_ingested": 100,
        "overload": {
            "admission": {"max_inflight": 4, "max_queue": 8, "inflight": 2,
                          "waiting": 1, "admitted_total": 90,
                          "queued_total": 12, "rejected_total": 7},
            "ratelimit": {"rate": 50.0, "burst": 100.0, "clients": 3,
                          "allowed_total": 80, "throttled_total": 20,
                          "evicted_total": 0},
            "cache": {"ttl": 1.0, "entries": 2, "hits": 40,
                      "stale_hits": 5, "misses": 10},
            "shedder": {"state": "open", "open_count": 1,
                        "shed_total": 6, "degraded": False},
        },
        "ingest": {"policy": "drop-oldest", "maxsize": 64, "depth": 12,
                   "peak_depth": 64, "enqueued_total": 500,
                   "consumed_total": 450, "dropped_total": 38,
                   "closed": False},
    }

    def test_overload_panel_shows_shed_admission_and_throttle(self):
        frame = render_dashboard(self.OVERLOADED)
        assert "overload  shed=open shed_total=6" in frame
        assert "cache_hits=40+5 stale" in frame
        assert "inflight=2/4 rejected=7" in frame
        assert "throttled=20 (3 clients)" in frame

    def test_ingest_queue_panel_shows_depth_and_drops(self):
        frame = render_dashboard(self.OVERLOADED)
        assert "queue     policy=drop-oldest depth=12/64 peak=64 dropped=38" in frame

    def test_panels_absent_when_guard_not_configured(self):
        frame = render_dashboard({"chain": "bitcoin"})
        assert "overload" not in frame
        assert "queue " not in frame
