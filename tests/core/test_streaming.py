"""Tests for the streaming monitor."""

import numpy as np
import pytest

from repro.core.streaming import StreamingMonitor
from repro.errors import MeasurementError
from repro.obs.alerts import AlertManager, AlertRule, format_alert_event
from repro.obs.metrics import MetricsRegistry


def feed(monitor, producers_sequence, manager=None):
    """Push every block; returns the events ``manager`` emits per evaluation."""
    events = []
    for producers in producers_sequence:
        if monitor.push(producers) and manager is not None:
            events.extend(manager.evaluate(monitor.latest()))
    return events


def manager_with(*rules):
    manager = AlertManager(registry=MetricsRegistry())
    for rule in rules:
        manager.add_rule(rule)
    return manager


class TestWindowMaintenance:
    def test_eviction_keeps_exactly_window_size(self):
        monitor = StreamingMonitor(window_size=4, stride=1, metrics=("gini",))
        feed(monitor, [["a"], ["b"], ["a"], ["c"], ["d"], ["d"]])
        # Window holds the last 4 blocks: a, c, d, d.
        assert monitor.producers_in_window() == 3
        assert monitor.current("nakamoto") == 2  # d=2 of 4 -> need d+1 more

    def test_counts_match_reference_implementation(self):
        rng = np.random.default_rng(0)
        names = ["p0", "p1", "p2", "p3", "p4"]
        blocks = [[names[rng.integers(0, 5)]] for _ in range(200)]
        monitor = StreamingMonitor(window_size=32, stride=1, metrics=("entropy",))
        feed(monitor, blocks)
        # Reference: recompute from the raw last 32 blocks.
        from collections import Counter

        reference = Counter(p for block in blocks[-32:] for p in block)
        assert monitor.producers_in_window() == len(reference)
        from repro.metrics import shannon_entropy

        expected = shannon_entropy(np.asarray(list(reference.values()), dtype=float))
        assert monitor.current("entropy") == pytest.approx(expected)

    def test_multi_producer_block_counts_each(self):
        monitor = StreamingMonitor(window_size=4, stride=1, metrics=("gini",))
        monitor.push(["a", "x", "y"])
        assert monitor.producers_in_window() == 3

    def test_fractional_weights(self):
        monitor = StreamingMonitor(window_size=4, stride=1, metrics=("gini",))
        monitor.push(["a", "x"], fractional=True)
        monitor.push(["a"])
        assert monitor.current("nakamoto") == 1  # a holds 1.5 of 2.0

    def test_empty_block_rejected(self):
        monitor = StreamingMonitor(window_size=4)
        with pytest.raises(MeasurementError):
            monitor.push([])


class TestEvaluationSchedule:
    def test_no_evaluation_before_window_full(self):
        monitor = StreamingMonitor(window_size=10, stride=2, metrics=("gini",))
        feed(monitor, [["a"]] * 9)
        assert monitor.history("gini") == []

    def test_evaluates_at_window_then_every_stride(self):
        monitor = StreamingMonitor(window_size=10, stride=3, metrics=("gini",))
        evaluated = [monitor.push(block) for block in [["a"], ["b"]] * 10]
        counts = [n for n, _ in monitor.history("gini")]
        assert counts == [10, 13, 16, 19]
        assert [i + 1 for i, flag in enumerate(evaluated) if flag] == counts

    def test_default_stride_is_half_window(self):
        monitor = StreamingMonitor(window_size=100)
        assert monitor.stride == 50

    def test_history_per_metric(self):
        monitor = StreamingMonitor(window_size=4, stride=2)
        feed(monitor, [["a"], ["b"]] * 4)
        for metric in ("gini", "entropy", "nakamoto"):
            assert len(monitor.history(metric)) == 3

    def test_unknown_history_metric_rejected(self):
        with pytest.raises(MeasurementError):
            StreamingMonitor(window_size=4).history("hhi")


class TestAlerts:
    def test_threshold_below_fires(self):
        monitor = StreamingMonitor(window_size=4, stride=1, metrics=("nakamoto",))
        manager = manager_with(AlertRule("nakamoto-below-2", metric="nakamoto", below=2))
        # One producer dominates the window -> nakamoto = 1 < 2.
        events = feed(monitor, [["a"]] * 4, manager)
        assert [(e.rule, e.state, e.value) for e in events] == [
            ("nakamoto-below-2", "firing", 1.0)
        ]

    def test_threshold_above_fires(self):
        monitor = StreamingMonitor(window_size=4, stride=1, metrics=("entropy",))
        manager = manager_with(AlertRule("entropy-above-1.9", metric="entropy", above=1.9))
        events = feed(monitor, [["a"], ["b"], ["c"], ["d"]], manager)  # entropy = 2.0
        assert len(events) == 1
        assert events[0].value == pytest.approx(2.0)

    def test_quiet_stream_no_alerts(self):
        monitor = StreamingMonitor(window_size=6, stride=2, metrics=("nakamoto",))
        manager = manager_with(AlertRule("nakamoto-below-2", metric="nakamoto", below=2))
        assert feed(monitor, [["a"], ["b"], ["c"]] * 6, manager) == []

    def test_alert_str(self):
        monitor = StreamingMonitor(window_size=4, stride=1, metrics=("gini",))
        manager = manager_with(AlertRule("gini-above-0.2", metric="gini", above=0.2))
        (event,) = feed(monitor, [["a"], ["a"], ["a"], ["b"]], manager)
        line = format_alert_event(event.as_dict())
        assert "FIRING   gini-above-0.2 [warning] gini=0.2500 (above 0.2)" in line


class TestOnSimulatedChain:
    def test_day14_triggers_streaming_alerts(self, btc_chain):
        """Streaming through January catches the day-14 anomaly."""
        monitor = StreamingMonitor(window_size=144, stride=72, metrics=("entropy",))
        manager = manager_with(AlertRule("entropy-above-5", metric="entropy", above=5.0))
        january = btc_chain.slice_by_time(
            int(btc_chain.timestamps[0]), int(btc_chain.timestamps[0]) + 31 * 86_400
        )
        fired_at = []
        for i in range(january.n_blocks):
            start, stop = january.offsets[i], january.offsets[i + 1]
            producers = [
                january.producer_names[pid]
                for pid in january.producer_ids[start:stop]
            ]
            if monitor.push(producers):
                for event in manager.evaluate(monitor.latest()):
                    if event.state == "firing":
                        fired_at.append(monitor.blocks_seen)
        assert fired_at, "the day-14 multi-coinbase blocks must trip the rule"
        # Alerts cluster around day 14: blocks ~13*150 to ~15*150.
        assert any(1_700 <= block <= 2_400 for block in fired_at)

    def test_current_matches_engine_distribution(self, btc_chain):
        from repro.chain.attribution import attribute
        from repro.metrics import gini_coefficient

        monitor = StreamingMonitor(window_size=144, stride=72, metrics=("gini",))
        sub = btc_chain.slice_blocks(0, 200)
        for i in range(sub.n_blocks):
            start, stop = sub.offsets[i], sub.offsets[i + 1]
            monitor.push([sub.producer_names[p] for p in sub.producer_ids[start:stop]])
        credits = attribute(btc_chain, "per-address")
        lo, hi = credits.credit_range_for_blocks(200 - 144, 200)
        expected = gini_coefficient(credits.distribution(lo, hi))
        assert monitor.current("gini") == pytest.approx(expected)
