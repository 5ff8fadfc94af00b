"""Tests for stateful alerting (:mod:`repro.obs.alerts`).

Lifecycle transitions run on a :class:`~repro.resilience.retry.ManualClock`
so pending dwell, hysteresis holds and resolve delays are exact; sink
tests use a real JSONL file and a throwaway webhook server.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.errors import ValidationError
from repro.obs.alerts import (
    AlertManager,
    AlertRule,
    AnomalyDetector,
    JSONLSink,
    WebhookSink,
    anomaly_rule,
    format_alert_event,
    rules_from_thresholds,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience.retry import ManualClock, RetryPolicy


def manager_on(clock, *rules, **kwargs):
    manager = AlertManager(clock=clock, registry=MetricsRegistry(), **kwargs)
    for rule in rules:
        manager.add_rule(rule)
    return manager


class TestAlertRule:
    def test_threshold_form_requires_a_bound(self):
        with pytest.raises(ValidationError):
            AlertRule("r", metric="gini")
        with pytest.raises(ValidationError):
            AlertRule("r")

    def test_check_form_excludes_thresholds(self):
        with pytest.raises(ValidationError):
            AlertRule("r", metric="gini", below=0.5, check=lambda v: (False, 0.0))

    def test_negative_durations_rejected(self):
        with pytest.raises(ValidationError):
            AlertRule("r", metric="gini", below=0.5, for_duration=-1.0)

    def test_evaluate_triggered_and_cleared(self):
        rule = AlertRule("r", metric="gini", below=0.5, hysteresis=0.1)
        assert rule.evaluate({"gini": 0.4}) == (True, False, 0.4)
        # In the hysteresis band: not triggered, but not cleared either.
        assert rule.evaluate({"gini": 0.55}) == (False, False, 0.55)
        assert rule.evaluate({"gini": 0.7}) == (False, True, 0.7)
        assert rule.evaluate({}) is None

    def test_describe_names_the_condition(self):
        rule = AlertRule("r", metric="gini", below=0.5)
        assert "gini=0.4000" in rule.describe(0.4)
        assert "below 0.5" in rule.describe(0.4)


class TestLifecycle:
    def test_immediate_fire_and_resolve(self):
        clock = ManualClock()
        manager = manager_on(clock, AlertRule("low", metric="m", below=1.0))
        events = manager.evaluate({"m": 0.5})
        assert [e.state for e in events] == ["firing"]
        assert manager.evaluate({"m": 0.5}) == []  # dedup while active
        events = manager.evaluate({"m": 2.0})
        assert [e.state for e in events] == ["resolved"]
        assert manager.active() == []
        assert manager.fired_total == 1
        assert manager.resolved_total == 1

    def test_for_duration_walks_through_pending(self):
        clock = ManualClock()
        manager = manager_on(
            clock, AlertRule("low", metric="m", below=1.0, for_duration=10.0)
        )
        assert [e.state for e in manager.evaluate({"m": 0.5})] == ["pending"]
        clock.advance(5.0)
        assert manager.evaluate({"m": 0.5}) == []
        clock.advance(5.0)
        assert [e.state for e in manager.evaluate({"m": 0.5})] == ["firing"]

    def test_pending_that_recovers_never_fires(self):
        clock = ManualClock()
        manager = manager_on(
            clock, AlertRule("low", metric="m", below=1.0, for_duration=10.0)
        )
        manager.evaluate({"m": 0.5})
        assert manager.evaluate({"m": 5.0}) == []  # silently dropped
        assert manager.active() == []
        assert manager.fired_total == 0

    def test_hysteresis_holds_alert_open_in_band(self):
        clock = ManualClock()
        manager = manager_on(
            clock, AlertRule("low", metric="m", below=1.0, hysteresis=0.5)
        )
        manager.evaluate({"m": 0.5})
        # Back above the threshold but inside the band: still firing.
        assert manager.evaluate({"m": 1.2}) == []
        assert manager.active()[0]["state"] == "firing"
        assert [e.state for e in manager.evaluate({"m": 2.0})] == ["resolved"]

    def test_keep_for_delays_resolution(self):
        clock = ManualClock()
        manager = manager_on(
            clock, AlertRule("low", metric="m", below=1.0, keep_for=30.0)
        )
        manager.evaluate({"m": 0.5})
        assert manager.evaluate({"m": 5.0}) == []  # resolve timer starts
        clock.advance(15.0)
        assert manager.evaluate({"m": 5.0}) == []
        # Re-trigger resets the timer.
        manager.evaluate({"m": 0.5})
        clock.advance(40.0)
        assert manager.evaluate({"m": 5.0}) == []  # timer restarted at 40
        clock.advance(30.0)
        assert [e.state for e in manager.evaluate({"m": 5.0})] == ["resolved"]
        assert manager.fired_total == 1  # re-trigger while firing is dedup'd

    def test_missing_data_holds_state(self):
        clock = ManualClock()
        manager = manager_on(clock, AlertRule("low", metric="m", below=1.0))
        manager.evaluate({"m": 0.5})
        assert manager.evaluate({}) == []  # no data: no transition
        assert manager.active()[0]["state"] == "firing"

    def test_duplicate_rule_names_rejected(self):
        manager = manager_on(ManualClock())
        manager.add_rule(AlertRule("r", metric="m", below=1.0))
        with pytest.raises(ValidationError):
            manager.add_rule(AlertRule("r", metric="m", above=2.0))

    def test_history_records_transitions_oldest_first(self):
        clock = ManualClock()
        manager = manager_on(clock, AlertRule("low", metric="m", below=1.0))
        manager.evaluate({"m": 0.5})
        clock.advance(1.0)
        manager.evaluate({"m": 2.0})
        states = [e["state"] for e in manager.history()]
        assert states == ["firing", "resolved"]
        assert manager.summary()["firing"] == 0

    def test_registry_counters_track_lifecycle(self):
        registry = MetricsRegistry()
        manager = AlertManager(clock=ManualClock(), registry=registry)
        manager.add_rule(AlertRule("low", metric="m", below=1.0))
        manager.evaluate({"m": 0.5})
        manager.evaluate({"m": 2.0})
        snap = registry.snapshot()
        assert snap["counters"]["alerts.fired_total"] == 1.0
        assert snap["counters"]["alerts.resolved_total"] == 1.0


class TestSinks:
    def test_jsonl_sink_appends_events(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        clock = ManualClock()
        manager = manager_on(
            clock, AlertRule("low", metric="m", below=1.0),
            sinks=[JSONLSink(str(path))],
        )
        manager.evaluate({"m": 0.5})
        manager.evaluate({"m": 2.0})
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [e["state"] for e in lines] == ["firing", "resolved"]
        assert lines[0]["rule"] == "low"
        assert format_alert_event(lines[0])  # renders without crashing

    def test_broken_sink_never_breaks_evaluation(self):
        class Broken:
            def emit(self, event):
                raise RuntimeError("boom")

        manager = manager_on(
            ManualClock(), AlertRule("low", metric="m", below=1.0),
            sinks=[Broken()],
        )
        events = manager.evaluate({"m": 0.5})
        assert [e.state for e in events] == ["firing"]

    def test_webhook_sink_posts_json(self):
        received = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                received.append(json.loads(self.rfile.read(length)))
                self.send_response(200)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/hook"
            sink = WebhookSink(url, retry_policy=RetryPolicy(max_attempts=2),
                               clock=ManualClock())
            manager = manager_on(
                ManualClock(), AlertRule("low", metric="m", below=1.0),
                sinks=[sink],
            )
            manager.evaluate({"m": 0.5})
        finally:
            server.shutdown()
            server.server_close()
        assert len(received) == 1
        assert received[0]["rule"] == "low"
        assert received[0]["state"] == "firing"

    @staticmethod
    def _post_to_server_answering(statuses):
        """Deliver one firing event through a default-policy WebhookSink to
        a server answering ``statuses`` in turn (the last one repeats).
        Returns the POSTs it received and the sink errors counted."""
        from repro import obs

        posts = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                posts.append(self.path)
                self.send_response(statuses[min(len(posts), len(statuses)) - 1])
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, *args):
                pass

        errors = obs.get_tracer().metrics.counter("alerts.sink_errors_total")
        before = errors.value
        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        clock = ManualClock()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/hook"
            manager = manager_on(
                ManualClock(), AlertRule("low", metric="m", below=1.0),
                sinks=[WebhookSink(url, clock=clock)],
            )
            manager.evaluate({"m": 0.5})
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)
        return len(posts), errors.value - before, clock.sleeps

    def test_webhook_retries_a_transient_failure_by_default(self):
        posts, errors, sleeps = self._post_to_server_answering([503, 200])
        assert (posts, errors, sleeps) == (2, 0, [0.05])

    def test_webhook_gives_up_after_three_attempts_by_default(self):
        posts, errors, sleeps = self._post_to_server_answering([503])
        assert (posts, errors, sleeps) == (3, 1, [0.05, 0.1])

    def test_webhook_failure_is_swallowed_and_counted(self):
        sink = WebhookSink(
            "http://127.0.0.1:1/nope",
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
            clock=ManualClock(),
        )
        manager = manager_on(
            ManualClock(), AlertRule("low", metric="m", below=1.0),
            sinks=[sink],
        )
        events = manager.evaluate({"m": 0.5})  # must not raise
        assert [e.state for e in events] == ["firing"]


class TestRulesFromThresholds:
    def test_compiles_both_directions(self):
        rules = rules_from_thresholds(below=[("gini", 0.5)], above=[("nakamoto", 10.0)])
        assert [r.name for r in rules] == ["gini-below-0.5", "nakamoto-above-10"]
        assert rules[0].below == 0.5
        assert rules[1].above == 10.0


class TestAnomalyDetector:
    def test_warmup_returns_none(self):
        detector = AnomalyDetector(warmup=3)
        assert [detector.update(v) for v in (1.0, 1.1, 0.9)] == [None] * 3
        assert detector.update(1.0) is not None

    def test_flags_regime_shift_not_noise(self):
        detector = AnomalyDetector(threshold=4.0, warmup=5)
        values = [10.0, 10.2, 9.9, 10.1, 10.0, 10.05, 9.95, 10.1, 9.9, 10.0]
        flags = [detector.is_anomaly(v) for v in values]
        assert not any(flags)
        assert detector.is_anomaly(4.0)

    def test_anomalies_not_absorbed_by_default(self):
        detector = AnomalyDetector(threshold=4.0, warmup=3)
        for v in (10.0, 10.1, 9.9, 10.0):
            detector.update(v)
        baseline = detector.mean
        assert abs(detector.update(0.0)) > 4.0
        assert detector.mean == baseline  # spike did not drag the mean

    def test_validation(self):
        with pytest.raises(ValidationError):
            AnomalyDetector(alpha=0.0)
        with pytest.raises(ValidationError):
            AnomalyDetector(threshold=0.0)
        with pytest.raises(ValidationError):
            AnomalyDetector(warmup=1)

    def test_anomaly_rule_fires_through_manager(self):
        clock = ManualClock()
        manager = manager_on(
            clock,
            anomaly_rule("anomaly:m", "m", AnomalyDetector(threshold=4.0, warmup=3)),
        )
        for v in (10.0, 10.1, 9.9, 10.0, 10.05):
            assert manager.evaluate({"m": v}) == []
        events = manager.evaluate({"m": 2.0})
        assert [e.state for e in events] == ["firing"]
        assert manager.active()[0]["labels"]["kind"] == "anomaly"
