"""``repro top``: a live terminal dashboard over the telemetry endpoints.

Polls a running telemetry server's ``/status`` endpoint (the JSON twin of
``/metrics`` — see :mod:`repro.serve`) and redraws a compact dashboard:
ingest progress and per-stage throughput (blocks/s), worker-pool
utilization, p50/p99 span latencies from the timing histograms, and the
latest decentralization metric values.  Dependency-free — plain
``urllib`` and ANSI clear codes, matching the stdlib-only server it
watches.

The rendering is a pure function of two status snapshots
(:func:`render_dashboard`), so tests drive it with dicts; only
:func:`run_top` does I/O.  Throughput is the block-count delta between
polls over the poll interval; the first frame falls back to the lifetime
average (blocks over uptime).

Usage::

    repro monitor --chain btc --serve 9641 &
    repro top --port 9641            # or --url http://host:9641
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Callable

from repro.errors import ObservabilityError
from repro.obs.report import format_duration

#: ANSI: clear screen + home — how the dashboard redraws in place.
_CLEAR = "\x1b[2J\x1b[H"


def fetch_status(url: str, timeout: float = 2.0) -> dict:
    """GET and decode a ``/status`` JSON document.

    Raises :class:`~repro.errors.ObservabilityError` on connection
    failures or a non-JSON body, so the CLI can map both onto exit 1.
    """
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            body = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise ObservabilityError(f"cannot reach {url}: {exc}") from exc
    try:
        status = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"{url} did not return JSON: {exc}") from exc
    if not isinstance(status, dict):
        raise ObservabilityError(f"{url} returned {type(status).__name__}, not an object")
    return status


#: Eight-level block ramp for terminal sparklines.
_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: list, width: int = 40) -> str:
    """Render recent values as a block-character sparkline (pure).

    >>> sparkline([0.0, 0.5, 1.0])
    '▁▄█'
    """
    tail = [float(v) for v in values[-width:]]
    if not tail:
        return ""
    low, high = min(tail), max(tail)
    if high - low < 1e-12:
        return _SPARK_CHARS[0] * len(tail)
    scale = (len(_SPARK_CHARS) - 1) / (high - low)
    return "".join(_SPARK_CHARS[int((v - low) * scale)] for v in tail)


def _throughput(status: dict, previous: dict | None, interval: float) -> float | None:
    """Blocks/s between two polls; lifetime average on the first frame."""
    blocks = status.get("blocks_ingested")
    if blocks is None:
        return None
    if previous is not None and interval > 0:
        prev_blocks = previous.get("blocks_ingested", 0)
        return max(blocks - prev_blocks, 0) / interval
    uptime = status.get("uptime_seconds") or 0.0
    return blocks / uptime if uptime > 0 else None


def render_dashboard(
    status: dict, previous: dict | None = None, interval: float = 2.0
) -> str:
    """One dashboard frame from a ``/status`` snapshot (pure, testable).

    ``previous`` is the prior poll's snapshot, used for the blocks/s
    delta; pass ``None`` on the first frame.
    """
    build = status.get("build") or {}
    lines: list[str] = []
    state = (
        "DEGRADED" if (status.get("resilience") or {}).get("degraded")
        else "finished" if status.get("finished")
        else "ready" if status.get("ready")
        else "warming up"
    )
    lines.append(
        f"repro top — chain={status.get('chain', '?')} "
        f"version={build.get('version', '?')} "
        f"uptime={status.get('uptime_seconds', 0.0):.0f}s [{state}]"
    )
    lines.append("")

    blocks = status.get("blocks_ingested", 0)
    total = status.get("total_blocks")
    lag = status.get("lag_blocks")
    rate = _throughput(status, previous, interval)
    ingest = f"ingest    blocks={blocks}"
    if total is not None:
        ingest += f"/{total}"
    if lag is not None:
        ingest += f" lag={lag}"
    ingest += f" evaluations={status.get('evaluations', 0)}"
    if rate is not None:
        ingest += f" throughput={rate:.1f} blocks/s"
    lines.append(ingest)

    workers = status.get("workers") or {}
    last_pool = workers.get("last_pool") or {}
    lifetime = workers.get("lifetime") or {}
    submitted = lifetime.get("tasks_submitted", 0)
    completed = lifetime.get("tasks_completed", 0)
    utilization = (
        f"{100.0 * completed / submitted:.0f}%" if submitted else "n/a"
    )
    lines.append(
        f"pool      cpus={workers.get('cpu_count', '?')}"
        f" active={workers.get('active_pools', 0)}"
        f" last={last_pool.get('workers', 0)}w"
        f" tasks={completed}/{submitted} ({utilization} done)"
    )
    lines.append("")

    timings = status.get("timings") or {}
    if timings:
        lines.append(f"{'latency':<36s} {'count':>8s} {'p50':>10s} {'p99':>10s}")
        for name in sorted(timings):
            stats = timings[name]
            lines.append(
                f"{name:<36s} {stats.get('count', 0):>8d} "
                f"{format_duration(stats.get('p50', 0.0)):>10s} "
                f"{format_duration(stats.get('p99', 0.0)):>10s}"
            )
        lines.append("")

    latest = status.get("latest") or {}
    if latest:
        lines.append(
            "metrics   "
            + "  ".join(f"{name}={value:.4f}" for name, value in sorted(latest.items()))
        )

    sparklines = status.get("sparklines") or {}
    drawn = [
        (name, sparkline(values))
        for name, values in sorted(sparklines.items())
        if values
    ]
    if drawn:
        lines.append("")
        for name, art in drawn:
            lines.append(f"history   {name:<10s} {art}")

    alerting = status.get("alerting") or {}
    if alerting.get("rules"):
        lines.append("")
        lines.append(
            f"alerts    rules={alerting.get('rules', 0)}"
            f" firing={alerting.get('firing', 0)}"
            f" fired={alerting.get('fired_total', 0)}"
            f" resolved={alerting.get('resolved_total', 0)}"
        )
        for instance in alerting.get("active") or []:
            lines.append(
                f"  {instance.get('state', '?').upper():<8s}"
                f" {instance.get('rule', '?')}"
                f" [{instance.get('severity', '?')}]"
                f" value={instance.get('value', 0.0):.4g}"
            )

    slo = status.get("slo") or {}
    breached = slo.get("breached")
    if slo.get("objectives"):
        lines.append(
            f"slo       objectives={slo.get('objectives', 0)}"
            f" breached={','.join(breached) if breached else 'none'}"
        )

    overload = status.get("overload") or {}
    if overload:
        shedder = overload.get("shedder") or {}
        cache = overload.get("cache") or {}
        line = (
            f"overload  shed={shedder.get('state', '?')}"
            f" shed_total={shedder.get('shed_total', 0)}"
            f" cache_hits={cache.get('hits', 0)}"
            f"+{cache.get('stale_hits', 0)} stale"
        )
        admission = overload.get("admission")
        if admission:
            line += (
                f" inflight={admission.get('inflight', 0)}"
                f"/{admission.get('max_inflight', '?')}"
                f" rejected={admission.get('rejected_total', 0)}"
            )
        ratelimit = overload.get("ratelimit")
        if ratelimit:
            line += (
                f" throttled={ratelimit.get('throttled_total', 0)}"
                f" ({ratelimit.get('clients', 0)} clients)"
            )
        lines.append(line)

    ingest_queue = status.get("ingest") or {}
    if ingest_queue:
        lines.append(
            f"queue     policy={ingest_queue.get('policy', '?')}"
            f" depth={ingest_queue.get('depth', 0)}"
            f"/{ingest_queue.get('maxsize', '?')}"
            f" peak={ingest_queue.get('peak_depth', 0)}"
            f" dropped={ingest_queue.get('dropped_total', 0)}"
        )
    return "\n".join(lines)


def run_top(
    url: str,
    interval: float = 2.0,
    iterations: int | None = None,
    print_fn: Callable[[str], None] = print,
    clear: bool = True,
    sleep_fn: Callable[[float], None] = time.sleep,
) -> int:
    """Poll ``url`` and redraw the dashboard until interrupted.

    ``iterations`` bounds the number of frames (``None`` = until
    Ctrl-C/KeyboardInterrupt, which exits 0 — an interactive quit is not
    an error).  With ``iterations`` set (scripted/CI usage) *any* failed
    poll prints the target URL and exits 1 — a bounded run must not
    silently swallow a dead server.  Interactively (``iterations=None``)
    only the first poll is fatal; once a frame has rendered, transient
    fetch errors print a note and keep polling (the monitor may be
    restarting).
    """
    previous: dict | None = None
    frames = 0
    while iterations is None or frames < iterations:
        try:
            status = fetch_status(url)
        except ObservabilityError as exc:
            if previous is None or iterations is not None:
                print_fn(f"error: polling {url} failed: {exc}")
                return 1
            print_fn(f"(poll failed, retrying: {exc})")
            try:
                sleep_fn(interval)
            except KeyboardInterrupt:
                return 0
            continue
        frame = render_dashboard(status, previous, interval)
        print_fn((_CLEAR + frame) if clear else frame)
        previous = status
        frames += 1
        if iterations is not None and frames >= iterations:
            break
        try:
            sleep_fn(interval)
        except KeyboardInterrupt:
            return 0
    return 0
