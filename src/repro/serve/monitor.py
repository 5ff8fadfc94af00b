"""Drive a streaming monitor over a block feed while serving telemetry.

:func:`run_monitor` is the operational entry point behind
``repro monitor``: it replays a feed through a
:class:`~repro.core.streaming.StreamingMonitor`, optionally behind a
bounded :class:`~repro.serve.ingest.IngestQueue` (backpressure between
the feed and the monitor), while a :class:`~repro.serve.http.TelemetryServer`
— optionally wrapped in an :class:`~repro.serve.overload.OverloadGuard`
— answers scrapes concurrently.
"""

from __future__ import annotations

import logging
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro import obs
from repro.core.streaming import StreamingMonitor
from repro.errors import ResilienceError
from repro.obs.alerts import (
    AlertManager,
    AlertRule,
    AlertSink,
    LogSink,
    format_alert_event,
)
from repro.obs.slo import SLO, SLOEngine
from repro.obs.timeseries import DEFAULT_RAW_CAPACITY, TimeSeriesStore
from repro.resilience.faults import FaultInjector
from repro.resilience.supervisor import MonitorSupervisor
from repro.serve.http import TelemetryServer
from repro.serve.ingest import IngestQueue
from repro.serve.overload import OverloadConfig, OverloadGuard
from repro.serve.state import MonitorState

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MonitorRun:
    """What :func:`run_monitor` did, for the CLI summary."""

    blocks: int
    evaluations: int
    latest: dict[str, float] = field(default_factory=dict)
    port: int | None = None
    restarts: int = 0
    alerts_fired: int = 0
    alerts_resolved: int = 0
    ingest_dropped: int = 0


def _write_port_file(path: str, port: int) -> None:
    """Write ``port`` to ``path`` so a poller never reads it half-written.

    The number goes to a temporary file in the same directory, which
    ``os.replace`` then renames onto ``path`` in one step: ``path`` either
    does not exist yet or holds the whole line.
    """
    fd, staging = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), prefix=".port-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(f"{port}\n")
        os.replace(staging, path)
    except BaseException:
        os.unlink(staging)
        raise


def run_monitor(
    feed: Iterable[Sequence[str]],
    window_size: int,
    stride: int | None = None,
    *,
    chain: str = "unknown",
    alert_rules: Sequence[AlertRule] = (),
    total_blocks: int | None = None,
    serve_port: int | None = None,
    throttle: float = 0.0,
    linger: float = 0.0,
    port_file: str | None = None,
    stop_event: threading.Event | None = None,
    print_fn: Callable[[str], None] = print,
    max_restarts: int | None = None,
    restart_backoff: float = 0.05,
    injector: FaultInjector | None = None,
    slos: Sequence[SLO] = (),
    alert_sinks: Sequence[AlertSink] = (),
    overload: OverloadGuard | OverloadConfig | None = None,
    ingest_queue: int | None = None,
    ingest_policy: str = "block",
) -> MonitorRun:
    """Replay ``feed`` through a streaming monitor, optionally serving scrapes.

    ``feed`` yields one block's producer names at a time.  With
    ``serve_port`` (0 = ephemeral) a :class:`TelemetryServer` answers
    ``/metrics``, ``/healthz``, ``/readyz`` and ``/status`` concurrently;
    ``port_file`` gets the bound port written to it (atomically) for
    scripted scrapers.
    ``throttle`` sleeps that many seconds between blocks, ``linger`` keeps
    the server up that long after the feed ends (interrupted by
    ``stop_event``), and ``stop_event`` aborts ingestion between blocks —
    the CLI sets it from SIGINT/SIGTERM.

    With ``max_restarts`` the ingest loop runs under a
    :class:`~repro.resilience.supervisor.MonitorSupervisor`: a crash
    (e.g. a malformed block with no producers) flips ``/readyz`` to 503,
    the loop restarts after ``restart_backoff`` seconds on the *shared*
    feed iterator (the poison block is not replayed), and the next
    completed evaluation flips readiness back to 200.  Exhausting the
    restart budget raises :class:`~repro.errors.ResilienceError` after
    the server is torn down.  ``injector`` mangles the feed
    (:meth:`~repro.resilience.faults.FaultInjector.mangle_feed`) and
    surfaces its fired-fault counts in ``/status``.

    Alerting is one :class:`~repro.obs.alerts.AlertManager` over
    ``alert_rules`` (the CLI compiles its ``--alert-*`` thresholds with
    :func:`~repro.obs.alerts.rules_from_thresholds` and its ``--anomaly``
    metrics with :func:`~repro.obs.alerts.anomaly_rule`).  It evaluates
    once per window evaluation, plus once at feed end with lag settled,
    over the latest metric values extended with ``lag_blocks`` and
    ``blocks_ingested``, prints every pending/firing/resolved transition
    through ``print_fn`` and hands it to ``alert_sinks`` (a structured-log
    sink is always present).

    A :class:`~repro.obs.timeseries.TimeSeriesStore` is attached to the
    registry for the duration of the run — every instrument plus each
    streaming metric (as ``monitor.metric.<chain>.<name>``) records
    history — and ``slos`` add burn-rate rules
    (:meth:`~repro.obs.slo.SLOEngine.rules`) to the manager.  The two
    progress gauges, ``monitor.blocks_ingested`` and
    ``monitor.lag_blocks``, move every block but record one history
    point per window evaluation (before the alert rules run) and one at
    feed end.  ``monitor.push_seconds`` is
    observed every push and keeps one history point per push, stamped
    when the push ends, but the points reach the store in bulk
    (:meth:`~repro.obs.timeseries.TimeSeriesStore.record_many`): at each
    window evaluation before the alert rules run, once 4,096 are pending,
    after every push when ``throttle`` is set (with or without an ingest
    queue), and when an ingest loop ends.  A ``latency`` SLO therefore
    still judges every push at each evaluation.  A mid-run read of the
    series, or of ``/status``'s ``slo`` section (which evaluates the SLOs
    when asked), lags by fewer than 4,096 pushes, and by less than one
    stride once the first window is evaluated (by at most the push in
    flight when throttled).

    ``overload`` attaches the admission/rate-limit/shedding layer to the
    telemetry server (an :class:`~repro.serve.overload.OverloadConfig` is
    wired to the monitor's degraded state automatically).  With
    ``ingest_queue`` the feed is decoupled from the monitor by a bounded
    :class:`~repro.serve.ingest.IngestQueue` of that depth: a feeder
    thread pumps blocks in under ``ingest_policy`` (``block`` |
    ``drop-oldest`` | ``shed``) while the ingest loop consumes — queue
    depth and drop counts surface in ``/metrics`` and ``/status``.
    """
    monitor = StreamingMonitor(window_size, stride)
    state = MonitorState(chain, monitor.window_size, monitor.stride, total_blocks)
    state.max_restarts = max_restarts
    if injector is not None:
        feed = injector.mangle_feed(feed)
        state.faults_fn = lambda: dict(injector.fired)
    feed_iter = iter(feed)
    stop_event = stop_event or threading.Event()
    registry = obs.get_tracer().metrics
    supervisor: MonitorSupervisor | None = None
    server: TelemetryServer | None = None
    previous_history = registry.history
    manager = AlertManager(sinks=[LogSink(), *alert_sinks], registry=registry)
    for alert_rule in alert_rules:
        manager.add_rule(alert_rule)
    state.alerts_fn = manager.summary
    store = TimeSeriesStore()
    registry.set_history(store)
    state.timeseries_fn = store.stats
    state.sparklines_fn = lambda: {
        name: store.tail_values(f"monitor.latest.{name}", 40)
        for name in monitor.metric_names
    }
    if slos:
        engine = SLOEngine(slos, store)
        for alert_rule in engine.rules():
            manager.add_rule(alert_rule)
        state.slo_fn = engine.summary

    if isinstance(overload, OverloadConfig):
        overload = OverloadGuard(
            overload, registry=registry, degraded_fn=state.is_degraded
        )
    if overload is not None:
        state.overload_fn = overload.snapshot

    queue: IngestQueue | None = None
    feeder: threading.Thread | None = None
    if ingest_queue is not None:
        queue = IngestQueue(
            ingest_queue,
            policy=ingest_policy,
            registry=registry,
            should_abort=stop_event.is_set,
        )
        state.ingest_fn = queue.stats

    def run_alert_engine() -> None:
        """Evaluate the rules over the latest metrics plus ingest progress."""
        values = dict(monitor.latest())
        values["blocks_ingested"] = float(monitor.blocks_seen)
        if total_blocks is not None:
            values["lag_blocks"] = float(total_blocks - monitor.blocks_seen)
        for event in manager.evaluate(values):
            print_fn(format_alert_event(event.as_dict()))

    blocks_gauge = registry.gauge("monitor.blocks_ingested")
    lag_gauge = registry.gauge("monitor.lag_blocks")
    push_timing = registry.timing("monitor.push_seconds")
    #: Push timings observed but not yet in the store, as parallel lists.
    pending_ts: list[float] = []
    pending_seconds: list[float] = []
    # The instruments still move every block, but their history is written
    # by record_progress() and flush_push_timings(); the finally's
    # set_history re-wires them.
    blocks_gauge.history = lag_gauge.history = push_timing.history = None

    def flush_push_timings() -> None:
        """Write the pending push timings to the store in one call."""
        if pending_ts:
            store.record_many(
                "monitor.push_seconds", pending_ts, pending_seconds, kind="timing"
            )
            pending_ts.clear()
            pending_seconds.clear()

    def record_progress() -> None:
        """One history point per progress gauge, at each evaluation and at
        feed end (before ``/status`` counts the evaluation or the finish)."""
        store.record("monitor.blocks_ingested", monitor.blocks_seen, kind="gauge")
        if total_blocks is not None:
            store.record(
                "monitor.lag_blocks", total_blocks - monitor.blocks_seen, kind="gauge"
            )

    #: The ingest loop's source: the queue when backpressure is on (the
    #: feeder thread pumps into it), else the shared feed iterator.  Both
    #: survive supervisor restarts — iteration resumes, never replays.
    source: Iterable = queue if queue is not None else feed_iter

    def feed_pump() -> None:
        """Producer side of the backpressure queue (its own thread).

        ``throttle`` simulates a live feed, so with a queue it paces the
        *producer* — the consumer drains at full speed and the queue
        absorbs (or sheds) the mismatch.
        """
        assert queue is not None
        try:
            for item in feed_iter:
                if stop_event.is_set():
                    break
                queue.put(item)
                if throttle > 0.0:
                    stop_event.wait(throttle)
        finally:
            queue.close()

    def ingest() -> None:
        """One incarnation of the ingest loop over the shared source.

        Each push's ``(store.now(), seconds)`` waits in the pending lists
        until the next window evaluation or full raw ring (written at once
        when ``throttle`` is set), and the ``finally`` writes what is left
        when the loop ends (feed end, stop or crash).
        """
        now = store.now
        try:
            for producers in source:
                if stop_event.is_set():
                    logger.info("monitor stopping early at block %d", monitor.blocks_seen)
                    return
                start = time.perf_counter()
                evaluated = monitor.push(producers)
                seconds = time.perf_counter() - start
                push_timing.observe(seconds)
                blocks = monitor.blocks_seen
                blocks_gauge.set(blocks)
                state.record_push(blocks)
                if total_blocks is not None:
                    lag_gauge.set(total_blocks - blocks)
                pending_ts.append(now())
                pending_seconds.append(seconds)
                # Throttled (here or in the feeder), each push is written
                # as soon as it ends.
                if evaluated or throttle > 0.0 or len(pending_ts) >= DEFAULT_RAW_CAPACITY:
                    flush_push_timings()
                if evaluated:
                    record_progress()
                    latest = monitor.latest()
                    for name, value in latest.items():
                        registry.gauge(f"monitor.latest.{name}").set(value)
                        store.record(
                            f"monitor.metric.{chain}.{name}", value, kind="metric"
                        )
                    state.record_evaluation(latest)
                    run_alert_engine()
                if throttle > 0.0 and queue is None:
                    stop_event.wait(throttle)
        finally:
            flush_push_timings()

    try:
        if serve_port is not None:
            server = TelemetryServer(
                registry, status_fn=state.snapshot, ready_fn=state.is_ready,
                port=serve_port, store=store, alert_manager=manager,
                overload=overload,
            )
            port = server.start()
            print_fn(f"serving telemetry on http://127.0.0.1:{port}")
            if port_file:
                _write_port_file(port_file, port)
        if queue is not None:
            feeder = threading.Thread(
                target=feed_pump, name="repro-ingest-feeder", daemon=True
            )
            feeder.start()
        if max_restarts is None:
            ingest()
        else:
            supervisor = MonitorSupervisor(
                ingest,
                max_restarts=max_restarts,
                restart_backoff=restart_backoff,
                on_crash=state.record_crash,
                on_recover=state.record_restart,
                name=f"monitor:{chain}",
            )
            supervisor.run()
        record_progress()
        state.mark_finished()
        # One settled pass so progress-based rules (e.g. lag_blocks) can
        # resolve before the server lingers for its final scrapes.
        run_alert_engine()
        if server is not None and linger != 0.0 and not stop_event.is_set():
            stop_event.wait(None if linger < 0 else linger)
    finally:
        if queue is not None:
            queue.close()
        if feeder is not None:
            feeder.join(timeout=5.0)
        if server is not None:
            server.stop()
        registry.set_history(previous_history)
    if supervisor is not None and supervisor.exhausted:
        raise ResilienceError(
            f"monitor ingest crashed {supervisor.crashes} time(s); "
            f"restart budget ({supervisor.max_restarts}) exhausted"
        ) from supervisor.last_error
    return MonitorRun(
        blocks=monitor.blocks_seen,
        evaluations=monitor.evaluations,
        latest=monitor.latest(),
        port=server.port if server is not None else None,
        restarts=supervisor.restarts if supervisor is not None else 0,
        alerts_fired=manager.fired_total,
        alerts_resolved=manager.resolved_total,
        ingest_dropped=queue.dropped_total if queue is not None else 0,
    )
