"""Shared monitor state between the ingest loop and HTTP handlers.

:class:`MonitorState` is the single thread-safe snapshot both sides
touch: the ingest loop records pushes, evaluations, crashes and
restarts; the HTTP handlers read readiness for ``/readyz`` and render
the full snapshot for ``/status``.  Optional section providers
(``alerts_fn``, ``slo_fn``, ``overload_fn``, ``ingest_fn``, ...) are
wired by :func:`repro.serve.monitor.run_monitor` when the matching
subsystem is enabled; each feeds one ``/status`` key.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import build_info
from repro.parallel import pool_status


class MonitorState:
    """Thread-safe status snapshot shared by ingest loop and HTTP handlers."""

    def __init__(
        self,
        chain: str,
        window_size: int,
        stride: int,
        total_blocks: int | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self.chain = chain
        self.window_size = window_size
        self.stride = stride
        self.total_blocks = total_blocks
        self.blocks_ingested = 0
        self.evaluations = 0
        self.latest: dict[str, float] = {}
        self.ready = False
        self.finished = False
        self.degraded = False
        self.restarts = 0
        self.crashes = 0
        self.max_restarts: int | None = None
        self.last_error: str | None = None
        self.faults_fn: Callable[[], dict] | None = None
        #: Optional section providers (wired by :func:`run_monitor`: alerting
        #: always, the rest with history); each feeds one ``/status`` key.
        self.alerts_fn: Callable[[], dict] | None = None
        self.slo_fn: Callable[[], dict] | None = None
        self.timeseries_fn: Callable[[], dict] | None = None
        self.sparklines_fn: Callable[[], dict] | None = None
        #: Overload-layer and ingest-queue snapshots (wired when the
        #: monitor runs with an :class:`~repro.serve.overload.OverloadGuard`
        #: or an :class:`~repro.serve.ingest.IngestQueue`).
        self.overload_fn: Callable[[], dict] | None = None
        self.ingest_fn: Callable[[], dict] | None = None

    def record_push(self, blocks_ingested: int) -> None:
        """Note one ingested block."""
        with self._lock:
            self.blocks_ingested = blocks_ingested

    def record_evaluation(self, latest: dict[str, float]) -> None:
        """Note one completed window evaluation; flips readiness.

        A completed evaluation after a crash also proves the restarted
        ingest loop is healthy again, so degradation clears here.
        """
        with self._lock:
            self.evaluations += 1
            self.latest = dict(latest)
            self.ready = True
            self.degraded = False

    def record_crash(self, error: BaseException) -> None:
        """The ingest loop died; readiness drops until it proves recovery."""
        with self._lock:
            self.crashes += 1
            self.degraded = True
            self.last_error = repr(error)

    def record_restart(self) -> None:
        """The supervisor brought the ingest loop back up."""
        with self._lock:
            self.restarts += 1

    def mark_finished(self) -> None:
        """The feed is exhausted (the server may linger for scrapes)."""
        with self._lock:
            self.finished = True

    def is_ready(self) -> bool:
        """Readiness: a full window evaluated, and not currently degraded."""
        with self._lock:
            return self.ready and not self.degraded

    def is_degraded(self) -> bool:
        """Whether the ingest loop crashed and has not yet proven recovery.

        The overload layer's :class:`~repro.serve.overload.LoadShedder`
        uses this as its degrade trigger: a crashed monitor serves stale
        snapshots rather than half-updated fresh ones.
        """
        with self._lock:
            return self.degraded

    def snapshot(self) -> dict:
        """A JSON-ready view for the ``/status`` endpoint."""
        with self._lock:
            lag = (
                self.total_blocks - self.blocks_ingested
                if self.total_blocks is not None
                else None
            )
            data = {
                "chain": self.chain,
                "window": {
                    "size": self.window_size,
                    "stride": self.stride,
                    "start_block": max(self.blocks_ingested - self.window_size, 0),
                    "end_block": self.blocks_ingested,
                },
                "blocks_ingested": self.blocks_ingested,
                "total_blocks": self.total_blocks,
                "lag_blocks": lag,
                "evaluations": self.evaluations,
                "latest": dict(self.latest),
                "ready": self.ready and not self.degraded,
                "finished": self.finished,
                "uptime_seconds": round(time.monotonic() - self._started, 3),
                "resilience": {
                    "degraded": self.degraded,
                    "crashes": self.crashes,
                    "restarts": self.restarts,
                    "max_restarts": self.max_restarts,
                    "last_error": self.last_error,
                    "faults": None,
                },
            }
        # Section providers run outside the lock: the overload section's
        # shedder re-enters is_degraded(), which needs the lock back.
        data["resilience"]["faults"] = self.faults_fn() if self.faults_fn else None
        data.update({
            "workers": pool_status(),
            "build": build_info(),
            "timings": _timing_summaries(obs.get_tracer().metrics),
            "alerting": self.alerts_fn() if self.alerts_fn else None,
            "slo": self.slo_fn() if self.slo_fn else None,
            "timeseries": self.timeseries_fn() if self.timeseries_fn else None,
            "sparklines": self.sparklines_fn() if self.sparklines_fn else None,
            "overload": self.overload_fn() if self.overload_fn else None,
            "ingest": self.ingest_fn() if self.ingest_fn else None,
        })
        return data


def _timing_summaries(registry: MetricsRegistry) -> dict:
    """Per-histogram latency summaries for ``/status`` (count/mean/p50/p99)."""
    _, _, timings = registry.instruments()
    return {
        t.name: {
            "count": t.count,
            "mean": round(t.mean, 9),
            "p50": round(t.percentile(50), 9),
            "p99": round(t.percentile(99), 9),
        }
        for t in timings
    }
