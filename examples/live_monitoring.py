"""Streaming monitoring: catching the day-14 anomaly "in a timely manner".

The paper's closing argument for sliding windows is timeliness.  This
example replays the first quarter of simulated Bitcoin 2019 block by
block through a :class:`~repro.core.streaming.StreamingMonitor`
(window = 144 blocks, stride = 72, the paper's N and M).  Each push that
completes a window evaluation hands the latest values to an
:class:`~repro.obs.alerts.AlertManager` with rules on all three metrics,
and the example prints the alert log an operator would have seen — the
Jan 14 multi-coinbase anomaly fires within half a day of blocks instead
of waiting for a week- or month-end batch measurement.

While the replay runs, a :class:`~repro.serve.TelemetryServer` exposes
the live state the way a deployment would — ``/status`` for humans and
dashboards, ``/metrics`` for a Prometheus scraper — and the example
scrapes its own endpoints mid-replay to show what an operator sees.

Run with::

    python examples/live_monitoring.py
"""

import json
import urllib.request

from repro import obs, simulate_bitcoin_2019
from repro.core import StreamingMonitor
from repro.obs.alerts import AlertManager, AlertRule
from repro.serve import MonitorState, TelemetryServer
from repro.util.timeutils import day_index
from repro.viz import sparkline


def scrape(port: int, path: str) -> str:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=5) as r:
        return r.read().decode("utf-8")


def main() -> None:
    chain = simulate_bitcoin_2019(seed=2019)
    quarter = chain.slice_by_time(
        int(chain.timestamps[0]), int(chain.timestamps[0]) + 90 * 86_400
    )
    monitor = StreamingMonitor(window_size=144, stride=72)
    manager = AlertManager()
    manager.add_rule(AlertRule("entropy-above-5", metric="entropy", above=5.0))
    manager.add_rule(AlertRule("gini-below-0.4", metric="gini", below=0.40))
    manager.add_rule(
        AlertRule("nakamoto-outside-3-20", metric="nakamoto", below=3, above=20)
    )

    registry = obs.get_tracer().metrics
    state = MonitorState("bitcoin", 144, 72, total_blocks=quarter.n_blocks)
    server = TelemetryServer(
        registry, status_fn=state.snapshot, ready_fn=state.is_ready
    )
    port = server.start()
    print(f"replaying {quarter.n_blocks} blocks (Q1 2019), "
          f"telemetry on http://127.0.0.1:{port} ...")

    alert_log = []
    try:
        for i in range(quarter.n_blocks):
            start, stop = quarter.offsets[i], quarter.offsets[i + 1]
            producers = [
                quarter.producer_names[pid]
                for pid in quarter.producer_ids[start:stop]
            ]
            evaluated = monitor.push(producers)
            state.record_push(monitor.blocks_seen)
            registry.gauge("monitor.blocks_ingested").set(monitor.blocks_seen)
            if evaluated:
                latest = monitor.latest()
                for name, value in latest.items():
                    registry.gauge(f"monitor.latest.{name}").set(value)
                state.record_evaluation(latest)
                day = day_index(int(quarter.timestamps[i]))
                for event in manager.evaluate(latest):
                    alert_log.append((day, monitor.blocks_seen, event))
            if i == quarter.n_blocks // 2:
                status = json.loads(scrape(port, "/status"))
                print(f"\nmid-replay GET /status: "
                      f"{status['blocks_ingested']}/{status['total_blocks']} "
                      f"blocks, {status['evaluations']} evaluations, "
                      f"ready={status['ready']}, latest={status['latest']}")

        print("\nfinal GET /metrics (monitor gauges):")
        for line in scrape(port, "/metrics").splitlines():
            if line.startswith("repro_monitor_"):
                print(f"  {line}")
    finally:
        server.stop()

    print(f"\n{manager.fired_total} alerts fired, {manager.resolved_total} resolved:")
    last_day = None
    for day, block, event in alert_log:
        marker = f"day {day + 1:>3d}" if day != last_day else "       "
        print(f"  {marker}  block {block}: {event.state:<8s} {event.rule:<21s} "
              f"{event.message}")
        last_day = day

    entropy_history = [v for _, v in monitor.history("entropy")]
    print(f"\nentropy over Q1 (one point per 72 blocks): "
          f"{sparkline(entropy_history, width=60)}")
    day14_alerts = [e for d, _, e in alert_log if d == 13 and e.state == "firing"]
    print(
        f"\nthe paper's day-14 anomaly fired {len(day14_alerts)} alert(s) "
        "while the day was still in progress — that is the timeliness the "
        "sliding-window methodology buys."
    )


if __name__ == "__main__":
    main()
