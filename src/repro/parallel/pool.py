"""Process-pool plumbing for the parallel execution layer.

Three building blocks, shared by the study fan-out and the SQL layer:

* :func:`resolve_workers` — turn a ``workers`` argument (``"auto"``, an
  int, or ``None``) into a concrete worker count.  ``"auto"`` resolves to
  the number of CPUs this process may run on (its scheduler affinity, so
  ``taskset -c 0`` means 1), and a single usable CPU takes the serial
  path; an explicit ``N`` is honored even on one core (the pool simply
  oversubscribes — how the CI parallel-smoke job exercises the parallel
  paths).
* :func:`shard_ranges` — deterministic contiguous ``[lo, hi)`` partitions
  of ``n`` items into at most ``k`` shards.  Merging worker results in
  shard order therefore reproduces the serial iteration order exactly,
  which is what keeps the partitioned SQL group-by numbering identical to
  serial.
* :class:`WorkerPool` — a context-managed ``ProcessPoolExecutor`` whose
  workers (a) reset the process-wide tracer so a forked child never
  inherits a live recording session or its HTTP-server callbacks, and
  (b) can share one large read-only *payload* (the study's chains, the
  SQL key/argument columns) without pickling it per task.  The payload
  rides in the executor's initializer arguments, so each pool's workers
  see that pool's payload: with the ``fork`` start method it is inherited
  copy-on-write (never pickled), otherwise it is shipped once per worker.

Distributed tracing: while the coordinator's tracer is recording,
``map_shards`` propagates its trace context (:meth:`Tracer.context`) with
every shard task.  The worker runs the task under a fresh per-task child
tracer inside a ``worker.shard`` span (resource-profiled too when the
coordinator has profiling on), exports the child's spans and metrics as a
picklable envelope riding back with the result, and the coordinator
adopts them (:meth:`Tracer.adopt`) — renumbered, time-rebased, stamped
with the worker pid, and parented under the coordinator-side
``parallel.shard`` span — so one trace file shows the whole fan-out.  While tracing is off
no context is shipped and tasks run exactly as before (zero envelope
overhead on the hot path).

Pool lifecycle and task counts are visible two ways: obs gauges/counters
(``parallel.pool.workers``, ``parallel.tasks_submitted``, per-shard
``parallel.shard`` spans at the call sites) and :func:`pool_status`, the
JSON-ready snapshot ``repro.serve`` exposes under ``/status``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from repro import obs
from repro.errors import ParallelError

#: The value meaning "one worker per usable CPU".
AUTO = "auto"

#: Inside a worker: the read-only payload of the pool that started it,
#: installed by the initializer.  Read it through :func:`worker_payload`.
_PAYLOAD: Any = None

#: True inside a pool worker process (set by the initializer).
_IN_WORKER = False

# -- lifetime statistics (coordinator side) -----------------------------------

_STATS_LOCK = threading.Lock()
_STATS = {
    "pools_created": 0,
    "tasks_submitted": 0,
    "tasks_completed": 0,
}
_ACTIVE_POOLS = 0
_LAST_POOL: dict | None = None


def _cpu_ids() -> list[int]:
    """The CPUs this process may run on, ascending; empty where the
    platform has no scheduler affinity."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return []  # pragma: no cover - non-Linux


def usable_cpus() -> int:
    """CPUs this process may run on: its scheduler affinity where the
    platform has one (``taskset -c 0`` gives 1), else ``os.cpu_count()``."""
    return max(1, len(_cpu_ids()) or os.cpu_count() or 1)


def resolve_workers(workers: int | str | None) -> int:
    """Resolve a ``workers`` argument to a concrete positive worker count.

    ``None`` and ``"auto"`` mean one worker per usable CPU
    (:func:`usable_cpus`), so a single usable CPU resolves to 1 — the
    serial path.  An explicit integer is taken literally (2 workers on a
    1-core host oversubscribe, which is still deterministic, just not
    faster).

    >>> resolve_workers(3)
    3
    >>> resolve_workers("auto") >= 1
    True
    """
    if workers is None or workers == AUTO:
        return usable_cpus()
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ParallelError(
            f"workers must be a positive int or 'auto', got {workers!r}"
        )
    if workers < 1:
        raise ParallelError(f"workers must be >= 1, got {workers}")
    return workers


def shard_ranges(n: int, shards: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into at most ``shards`` contiguous ``(lo, hi)`` ranges.

    The first ``n % shards`` shards carry one extra item, all shards are
    non-empty, and concatenating the ranges in order reproduces ``[0, n)``
    exactly — the deterministic merge order every parallel path relies on.

    >>> shard_ranges(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    >>> shard_ranges(2, 8)
    [(0, 1), (1, 2)]
    """
    if shards < 1:
        raise ParallelError(f"shards must be >= 1, got {shards}")
    shards = min(shards, n)
    if shards <= 0:
        return []
    base, extra = divmod(n, shards)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def in_worker() -> bool:
    """True when called from inside a :class:`WorkerPool` worker process."""
    return _IN_WORKER


def worker_payload() -> Any:
    """The shared read-only payload, from inside a worker task."""
    if not _IN_WORKER:
        raise ParallelError("worker_payload() is only available inside a worker")
    return _PAYLOAD


def _worker_init(payload: Any) -> None:
    """Per-worker initializer: scrub inherited state, install the payload.

    Under ``fork`` the child starts as a memory copy of the coordinator:
    a live tracer (spans, metrics, an enabled flag) and the telemetry
    server's callback plumbing would silently come along.  Only the
    forking thread survives into the child, so server *threads* are gone,
    but the recording state is reset here explicitly so worker-side
    instrumentation can never interleave with the coordinator's trace.
    Worker-side tracing happens only deliberately, per task, under a
    propagated context (see :func:`_traced_task`).
    """
    global _IN_WORKER, _PAYLOAD
    _IN_WORKER = True
    _PAYLOAD = payload
    tracer = obs.get_tracer()
    tracer.disable()
    tracer.reset()


def _run_shard(
    cpu: int | None, ctx: dict | None, fn: Callable[..., Any], args: tuple, index: int
) -> Any:
    """One shard task, worker side: pin to ``cpu``, then run ``fn(*args)``.

    ``map_shards`` deals its shards over the coordinator's CPUs in turn.
    A kernel that does not balance freshly forked workers can otherwise
    leave every worker on the coordinator's CPU while another CPU idles,
    and the pool then only adds its own cost.  With a trace context the
    task runs under :func:`_traced_task` and returns ``(result, envelope)``.
    """
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    if ctx is None:
        return fn(*args)
    return _traced_task(ctx, fn, args, index)


def _traced_task(
    ctx: dict, fn: Callable[..., Any], args: tuple, index: int
) -> tuple[Any, dict]:
    """Run one shard task under a per-task child tracer (worker side).

    The child tracer records a ``worker.shard`` root span around ``fn``
    (plus whatever spans/metrics ``fn`` itself emits — worker code uses
    the same ``obs`` helpers as the coordinator) and is torn back down
    after every task, so a worker that later runs an untraced task leaks
    nothing.  Returns ``(result, envelope)`` where ``envelope`` is the
    child tracer's :meth:`~repro.obs.tracer.Tracer.export_state`.
    """
    tracer = obs.get_tracer()
    tracer.enable()
    tracer.trace_id = ctx.get("trace_id")
    profiling = bool(ctx.get("profile"))
    if profiling:
        from repro.obs import profile as _profile

        _profile.enable_profiling()
    try:
        with tracer.span(
            "worker.shard", fn=getattr(fn, "__name__", str(fn)), index=index
        ):
            result = fn(*args)
        envelope = tracer.export_state()
    finally:
        if profiling:
            from repro.obs import profile as _profile

            _profile.disable_profiling()
        tracer.disable()
        tracer.reset()
    return result, envelope


class WorkerPool:
    """A deterministic-merge process pool over an optional shared payload.

    Use as a context manager around one parallel operation::

        with WorkerPool(2, payload=chains) as pool:
            btc, eth = pool.map_shards(_chain_task, [("btc",), ("eth",)])

    ``map_shards`` submits one task per shard and gathers results **in
    shard order** regardless of completion order, so merges are
    reproducible.  A worker exception is re-raised on the coordinator
    wrapped in :class:`~repro.errors.ParallelError`.
    """

    def __init__(self, workers: int, payload: Any = None) -> None:
        global _ACTIVE_POOLS, _LAST_POOL
        self.workers = resolve_workers(workers)
        if self.workers < 2:
            raise ParallelError(
                "WorkerPool requires >= 2 workers; serial callers must use "
                "their non-pooled fast path"
            )
        start_methods = multiprocessing.get_all_start_methods()
        self._fork = "fork" in start_methods
        context = multiprocessing.get_context("fork" if self._fork else None)
        # Fork children inherit the initializer arguments from memory (no
        # pickling); spawn children receive them pickled, once each.
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(payload,),
        )
        self._created = time.time()
        self._submitted = 0
        self._completed = 0
        with _STATS_LOCK:
            _STATS["pools_created"] += 1
            _ACTIVE_POOLS += 1
            _LAST_POOL = self._snapshot_locked()
        obs.gauge("parallel.pool.workers", float(self.workers))
        obs.counter("parallel.pools_created")

    # -- execution -----------------------------------------------------------

    def map_shards(
        self, fn: Callable[..., Any], shard_args: Sequence[tuple]
    ) -> list[Any]:
        """Run ``fn(*args)`` for each shard; results in shard order.

        ``fn`` must be a module-level (picklable) function.  Shard ``i``
        runs pinned to the coordinator's ``i``-th usable CPU, cycling (see
        :func:`_run_shard`).  Each shard's wait is recorded as a
        ``parallel.shard`` span so traces show the coordinator-side
        critical path per shard.  While the coordinator tracer is
        recording, each task additionally runs under a worker child tracer
        whose spans/metrics come back with the result and are adopted into
        the coordinator trace (see :func:`_traced_task`).
        """
        tracer = obs.get_tracer()
        ctx = tracer.context()
        cpus = _cpu_ids()
        futures = [
            self._executor.submit(
                _run_shard,
                cpus[i % len(cpus)] if cpus else None,
                ctx,
                fn,
                tuple(args),
                i,
            )
            for i, args in enumerate(shard_args)
        ]
        n = len(futures)
        self._submitted += n
        with _STATS_LOCK:
            _STATS["tasks_submitted"] += n
        obs.counter("parallel.tasks_submitted", n)
        results: list[Any] = []
        try:
            for i, future in enumerate(futures):
                with obs.span("parallel.shard", index=i, shards=n) as shard_span:
                    if ctx is None:
                        results.append(future.result())
                    else:
                        result, envelope = future.result()
                        adopted = tracer.adopt(
                            envelope, parent_span=shard_span.span_id
                        )
                        shard_span.set(
                            worker_pid=envelope.get("pid"), worker_spans=adopted
                        )
                        results.append(result)
                self._completed += 1
                with _STATS_LOCK:
                    _STATS["tasks_completed"] += 1
                obs.counter("parallel.tasks_completed")
        except ParallelError:
            raise
        except Exception as exc:
            for future in futures:
                future.cancel()
            raise ParallelError(f"worker shard failed: {exc}") from exc
        finally:
            with _STATS_LOCK:
                globals()["_LAST_POOL"] = self._snapshot_locked()
        return results

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the executor and its workers down."""
        global _ACTIVE_POOLS
        if self._executor is None:
            return
        self._executor.shutdown(wait=True)
        self._executor = None
        with _STATS_LOCK:
            _ACTIVE_POOLS -= 1
            globals()["_LAST_POOL"] = self._snapshot_locked()
        obs.gauge("parallel.pool.workers", 0.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _snapshot_locked(self) -> dict:
        return {
            "workers": self.workers,
            "start_method": "fork" if self._fork else "spawn",
            "tasks_submitted": self._submitted,
            "tasks_completed": self._completed,
            "open": self._executor is not None,
        }


def pool_status() -> dict:
    """JSON-ready snapshot of the worker-pool layer for ``/status``.

    Reports the host parallelism (``cpu_count`` CPUs on the host, of which
    ``usable_cpus`` are in this process's affinity mask and size
    ``auto_workers``), how many pools are currently open, the lifetime
    pool/task counters, and the most recent pool's shape — enough for an
    operator to see whether parallel execution is active and sized as
    expected.
    """
    with _STATS_LOCK:
        return {
            "cpu_count": os.cpu_count() or 1,
            "usable_cpus": usable_cpus(),
            "auto_workers": resolve_workers(AUTO),
            "active_pools": _ACTIVE_POOLS,
            "lifetime": dict(_STATS),
            "last_pool": dict(_LAST_POOL) if _LAST_POOL else None,
        }
