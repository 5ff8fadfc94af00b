"""Opt-in resource profiling attached to spans.

While profiling is enabled, **every** span recorded by the process-wide
tracer gains resource attributes next to its wall time:

``cpu``
    CPU seconds (user + system, via :func:`time.process_time`) spent
    inside the span.
``rss_kb``
    Resident set size at span exit, in KiB (current RSS from
    ``/proc/self/statm`` where available, else the peak from
    ``resource.getrusage``; 0.0 when neither source exists).
``alloc_kb`` / ``alloc_peak_kb``
    Net Python allocation delta and in-span peak, in KiB, when
    :mod:`tracemalloc` sampling was requested (it costs real time, so it
    is a second opt-in: ``enable_profiling(trace_malloc=True)``).

Profiling is **off by default** and deliberately cheap to leave off: the
tracer checks one attribute per span, and the :func:`profiled` decorator
is a plain function call while both tracing and profiling are disabled
(budgeted at <3% of the BTC sliding sweep by
``benchmarks/bench_perf_profile.py``).

Usage::

    from repro.obs import profile

    profile.enable_profiling()          # every span now carries cpu/rss
    with obs.span("engine.sweep"):      # ... including this one
        ...

    @profile.profiled("stage.rebuild")  # or wrap a function in a
    def rebuild():                      # profiled span of its own
        ...

Per-stage rollups over a finished trace come from
:func:`repro.obs.report.profile_rollup` / ``format_profile_rollup`` and
are printed by ``repro --profile <command>``.  The worker pool forwards
the profiling flag to its children, so worker shard spans carry the
worker's own cpu/rss/alloc numbers.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Any, Callable

from repro.obs.tracer import get_tracer

#: Module-level switch; read via :func:`profiling_enabled`.
_ENABLED = False
_TRACEMALLOC = False
#: Whether :func:`enable_profiling` itself started tracemalloc — if so,
#: :func:`disable_profiling` stops it again (tracemalloc slows *every*
#: allocation in the process, so it must not outlive the profiling run).
_TRACEMALLOC_STARTED_HERE = False

_PAGE_SIZE = 4096
try:  # pragma: no branch - resolved once at import
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover - non-POSIX
    pass


def rss_kb() -> float:
    """Current resident set size in KiB (best effort, 0.0 if unknown).

    Prefers ``/proc/self/statm`` (current RSS, Linux); falls back to
    ``resource.getrusage`` (peak RSS — documented as such) elsewhere.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; normalize heuristically.
        return usage / 1024.0 if usage > 1 << 30 else float(usage)
    except Exception:  # pragma: no cover - exotic platforms
        return 0.0


def profiling_enabled() -> bool:
    """Whether per-span resource sampling is currently on."""
    return _ENABLED


def enable_profiling(trace_malloc: bool = False) -> None:
    """Start attaching resource attributes to every recorded span.

    ``trace_malloc=True`` additionally starts :mod:`tracemalloc` (if it
    is not already running) and records per-span allocation deltas; this
    slows allocation-heavy code noticeably, which is why it is a second
    opt-in.
    """
    global _ENABLED, _TRACEMALLOC, _TRACEMALLOC_STARTED_HERE
    _ENABLED = True
    _TRACEMALLOC = False
    if trace_malloc:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
            _TRACEMALLOC_STARTED_HERE = True
        _TRACEMALLOC = True
    get_tracer().set_profiler(_begin_sample, _end_sample)


def disable_profiling() -> None:
    """Stop resource sampling (tracemalloc is left as it was found).

    If :func:`enable_profiling` started tracemalloc, it is stopped here;
    a tracemalloc session that was already running stays running.
    """
    global _ENABLED, _TRACEMALLOC, _TRACEMALLOC_STARTED_HERE
    _ENABLED = False
    _TRACEMALLOC = False
    if _TRACEMALLOC_STARTED_HERE:
        import tracemalloc

        tracemalloc.stop()
        _TRACEMALLOC_STARTED_HERE = False
    get_tracer().set_profiler(None, None)


def _begin_sample() -> tuple:
    """Per-span entry sample: (cpu_seconds, alloc_bytes | None)."""
    alloc = None
    if _TRACEMALLOC:
        import tracemalloc

        alloc = tracemalloc.get_traced_memory()[0]
    return (time.process_time(), alloc)


def _end_sample(sample: tuple, attrs: dict) -> None:
    """Per-span exit: write resource deltas into the span's attrs."""
    cpu_start, alloc_start = sample
    attrs["cpu"] = round(time.process_time() - cpu_start, 9)
    attrs["rss_kb"] = round(rss_kb(), 1)
    if alloc_start is not None:
        import tracemalloc

        current, peak = tracemalloc.get_traced_memory()
        attrs["alloc_kb"] = round((current - alloc_start) / 1024.0, 3)
        attrs["alloc_peak_kb"] = round((peak - alloc_start) / 1024.0, 3)


def profiled(name: str | None = None) -> Callable:
    """Decorator: run the function inside a profiled span.

    While both tracing and profiling are off this is one ``if`` per call
    (the function runs undecorated); with tracing on it behaves exactly
    like :func:`repro.obs.traced`; with profiling on too, the span
    carries the resource attributes described in the module docstring.
    """

    def decorate(fn: Callable) -> Callable:
        label = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer = get_tracer()
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
