"""A small closed/open-loop HTTP load generator for the telemetry server.

``repro loadgen`` drives the overload layer the way a fleet of scrapers
would and reports what actually happened: per-status-code counts, how
many answers were degraded-stale, latency percentiles, and — the number
the CI smoke test greps for — how many responses were *unhandled*
failures (a 500, or any 5xx without a ``Retry-After`` hint).  A healthy
overload-protected server under 4x its capacity should show zero.

Two driving modes:

``closed``
    Each of ``clients`` workers fires its next request only after the
    previous one completes (optionally paced to ``rps`` total) — the
    classic closed loop, where server slowdown throttles the offered
    load.
``open``
    Requests are fired on a fixed schedule of ``rps`` total regardless
    of completions — the arrival process does not care that the server
    is slow, which is exactly what makes open loops reveal overload
    behaviour closed loops hide.

Each worker carries its own ``X-Client-Id`` so the server's per-client
rate limiter sees ``clients`` distinct clients.
"""

from __future__ import annotations

import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError

#: Recognized driving modes, in CLI spelling.
LOADGEN_MODES = ("closed", "open")


@dataclass(frozen=True)
class LoadgenConfig:
    """Knobs for one load-generation run."""

    url: str
    path: str = "/status"
    duration: float = 5.0
    clients: int = 4
    rps: float | None = None
    mode: str = "closed"
    timeout: float = 2.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValidationError(f"duration must be positive, got {self.duration}")
        if self.clients < 1:
            raise ValidationError(f"clients must be >= 1, got {self.clients}")
        if self.rps is not None and self.rps <= 0:
            raise ValidationError(f"rps must be positive, got {self.rps}")
        if self.mode not in LOADGEN_MODES:
            raise ValidationError(
                f"unknown mode {self.mode!r} "
                f"(expected one of {', '.join(LOADGEN_MODES)})"
            )
        if self.mode == "open" and self.rps is None:
            raise ValidationError("open-loop mode requires --rps")
        if self.timeout <= 0:
            raise ValidationError(f"timeout must be positive, got {self.timeout}")


@dataclass(frozen=True)
class LoadgenReport:
    """What one load-generation run observed."""

    requests: int
    duration: float
    status_counts: dict[int, int] = field(default_factory=dict)
    stale_responses: int = 0
    errors: int = 0
    unhandled_5xx: int = 0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0

    @property
    def throughput(self) -> float:
        """Completed requests per second over the run."""
        return self.requests / self.duration if self.duration > 0 else 0.0

    def ok(self) -> bool:
        """No connection-level errors and no unhandled 5xx responses."""
        return self.errors == 0 and self.unhandled_5xx == 0


class _Collector:
    """Thread-safe accumulation of per-request observations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latencies: list[float] = []
        self.status_counts: dict[int, int] = {}
        self.stale = 0
        self.errors = 0
        self.unhandled = 0

    def record(self, status: int, latency: float, stale: bool,
               retry_after: bool) -> None:
        with self._lock:
            self.latencies.append(latency)
            self.status_counts[status] = self.status_counts.get(status, 0) + 1
            if stale:
                self.stale += 1
            # A shed must carry a hint; a bare 5xx is an unhandled failure.
            if status >= 500 and not retry_after:
                self.unhandled += 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def report(self, duration: float) -> LoadgenReport:
        """Everything recorded, with numpy's linear-interpolated latency
        percentiles (0.0 when no request completed).

        >>> collector = _Collector()
        >>> for seconds in (0.001, 0.002, 0.003, 0.004):
        ...     collector.record(200, seconds, stale=False, retry_after=False)
        >>> report = collector.report(1.0)
        >>> round(report.p50_ms, 9), round(report.p99_ms, 9)
        (2.5, 3.97)
        """
        p50, p95, p99 = (
            np.percentile(self.latencies, (50, 95, 99)) * 1000
            if self.latencies else (0.0, 0.0, 0.0)
        )
        return LoadgenReport(
            requests=len(self.latencies),
            duration=duration,
            status_counts=dict(sorted(self.status_counts.items())),
            stale_responses=self.stale,
            errors=self.errors,
            unhandled_5xx=self.unhandled,
            p50_ms=float(p50),
            p95_ms=float(p95),
            p99_ms=float(p99),
        )


def _fire(url: str, client_id: str, timeout: float,
          collector: _Collector) -> None:
    """One request; every outcome lands in the collector."""
    request = urllib.request.Request(url, headers={"X-Client-Id": client_id})
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            response.read()
            headers = response.headers
            status = response.status
    except urllib.error.HTTPError as exc:
        exc.read()
        headers = exc.headers
        status = exc.code
    except (urllib.error.URLError, OSError, TimeoutError):
        collector.record_error()
        return
    collector.record(
        status,
        time.perf_counter() - start,
        stale=headers.get("X-Repro-Degraded") == "stale",
        retry_after=headers.get("Retry-After") is not None,
    )


def run_loadgen(config: LoadgenConfig) -> LoadgenReport:
    """Drive the server per ``config`` and report what came back."""
    url = config.url.rstrip("/") + config.path
    collector = _Collector()
    deadline = time.monotonic() + config.duration
    threads: list[threading.Thread] = []

    if config.mode == "closed":
        # Pacing: with a target rate, each client owes one request every
        # clients/rps seconds; without one, clients fire back-to-back.
        interval = config.clients / config.rps if config.rps else 0.0

        def closed_worker(index: int) -> None:
            client_id = f"loadgen-{index}"
            next_at = time.monotonic()
            while True:
                now = time.monotonic()
                if now >= deadline:
                    return
                if interval:
                    if now < next_at:
                        time.sleep(min(next_at - now, deadline - now))
                        if time.monotonic() >= deadline:
                            return
                    next_at += interval
                _fire(url, client_id, config.timeout, collector)

        for i in range(config.clients):
            thread = threading.Thread(
                target=closed_worker, args=(i,),
                name=f"repro-loadgen-{i}", daemon=True,
            )
            threads.append(thread)
    else:
        # Open loop: a global schedule at rps, sliced round-robin across
        # workers so each fires on time even if its last call is slow.
        assert config.rps is not None
        interval = config.clients / config.rps
        start_at = time.monotonic()

        def open_worker(index: int) -> None:
            client_id = f"loadgen-{index}"
            fire_at = start_at + (index / config.rps)
            while fire_at < deadline:
                now = time.monotonic()
                if now < fire_at:
                    time.sleep(fire_at - now)
                _fire(url, client_id, config.timeout, collector)
                fire_at += interval

        for i in range(config.clients):
            thread = threading.Thread(
                target=open_worker, args=(i,),
                name=f"repro-loadgen-{i}", daemon=True,
            )
            threads.append(thread)

    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=config.duration + 10 * config.timeout)
    return collector.report(time.monotonic() - started)


def format_report(report: LoadgenReport) -> str:
    """Render the greppable multi-line summary the CLI prints.

    One fact per line, ``key=value`` tokens — the CI smoke test greps
    these (e.g. ``unhandled_5xx=0``, a nonzero ``status,429``).
    """
    lines = [
        f"loadgen requests={report.requests} "
        f"duration_s={report.duration:.2f} "
        f"throughput_rps={report.throughput:.1f}",
    ]
    for status, count in report.status_counts.items():
        lines.append(f"loadgen status,{status} count={count}")
    lines.append(
        f"loadgen stale={report.stale_responses} "
        f"errors={report.errors} unhandled_5xx={report.unhandled_5xx}"
    )
    lines.append(
        f"loadgen latency_ms p50={report.p50_ms:.2f} "
        f"p95={report.p95_ms:.2f} p99={report.p99_ms:.2f}"
    )
    return "\n".join(lines)


def print_report(report: LoadgenReport) -> None:
    """Print the formatted report."""
    print(format_report(report))
