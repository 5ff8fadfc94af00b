"""Module-level worker functions executed inside :class:`WorkerPool` workers.

Every function here runs in a worker process: it must be picklable (hence
module-level), read its large inputs from :func:`repro.parallel.pool.
worker_payload`, and return plain numpy arrays / dicts that the
coordinator merges **in shard order**.  None of them may mutate the
payload — under the ``fork`` start method it is shared copy-on-write with
the coordinator and the other workers.

The study's per-chain task lives next to the study
(:func:`repro.analysis.study.study_chain`); this module holds the SQL
partial aggregate and the fork-safety probe.
"""

from __future__ import annotations

import time

import numpy as np

from repro.parallel import pool as _pool

# -- sql: partial aggregates over row partitions -------------------------------


def sql_partial_aggregate(lo: int, hi: int, funcs: tuple) -> dict:
    """Partition-local group-by partials over rows ``[lo, hi)``.

    Payload: ``(key_arrays, agg_arrays)`` — the already-evaluated GROUP BY
    key columns (dictionary codes for encoded columns) and aggregate
    argument columns (``None`` for ``COUNT(*)``), full-length; the worker
    scans only its slice (the partitioned columnar scan).  ``funcs`` holds
    one aggregate function name per entry of ``agg_arrays`` (``COUNT``,
    ``SUM``, ``AVG``, ``MIN`` or ``MAX``).

    Returns the partition's groups (``groups``), one array per key column
    holding each group's key in local first-appearance order (``keys``),
    and mergeable partial states per aggregate; the coordinator's in-order
    merge reconstructs the serial group numbering (see
    ``_parallel_aggregation`` in :mod:`repro.sql.executor`).
    """
    from repro.table.aggregates import factorize, grouped_aggregate

    key_arrays, agg_arrays = _pool.worker_payload()
    scan_start = time.perf_counter()
    local_keys = [a[lo:hi] for a in key_arrays]
    local_args = [None if a is None else a[lo:hi] for a in agg_arrays]
    scan_seconds = time.perf_counter() - scan_start
    agg_start = time.perf_counter()
    group_ids, n_groups, first_rows = factorize(local_keys)
    partials: list = []
    for func, values in zip(funcs, local_args):
        if values is None:  # COUNT(*)
            partials.append(np.bincount(group_ids, minlength=n_groups).astype(np.int64))
        elif func == "COUNT":
            rows = np.flatnonzero(~_null_mask(values))
            partials.append(
                np.bincount(group_ids[rows], minlength=n_groups).astype(np.int64)
            )
        elif func == "SUM":
            partials.append(
                np.bincount(
                    group_ids,
                    weights=values.astype(np.float64),
                    minlength=n_groups,
                )
            )
        elif func == "AVG":
            sums = np.bincount(
                group_ids, weights=values.astype(np.float64), minlength=n_groups
            )
            counts = np.bincount(group_ids, minlength=n_groups).astype(np.int64)
            partials.append((sums, counts))
        elif func in ("MIN", "MAX"):
            partials.append(
                grouped_aggregate(values, group_ids, n_groups, func.lower())
            )
        else:  # pragma: no cover - guarded by the coordinator's eligibility check
            raise ValueError(f"aggregate {func!r} has no mergeable partial")
    return {
        "keys": [a[first_rows] for a in local_keys],
        "groups": n_groups,
        "partials": partials,
        "rows": hi - lo,
        "scan_seconds": scan_seconds,
        "agg_seconds": time.perf_counter() - agg_start,
    }


def _null_mask(values: np.ndarray) -> np.ndarray:
    """SQL-NULL mask matching the executor's ``_is_null`` for arrays."""
    if values.dtype == object:
        return np.asarray([v is None for v in values], dtype=bool)
    if np.issubdtype(values.dtype, np.floating):
        return np.isnan(values)
    return np.zeros(values.shape[0], dtype=bool)


# -- fork-safety probe ---------------------------------------------------------


def worker_probe() -> dict:
    """Report the worker's inherited-state surface (used by fork-safety tests).

    ``tracing_enabled`` is True only while the task runs under a per-task
    child tracer (coordinator tracing on → context propagated); the
    ``tracer_spans`` count covers *recorded* spans, which must be zero
    either way — a worker never inherits the coordinator's history, and a
    child tracer starts fresh for every task.
    """
    import os
    import threading

    from repro import obs

    tracer = obs.get_tracer()
    return {
        "in_worker": _pool.in_worker(),
        "tracing_enabled": obs.tracing_enabled(),
        "tracer_spans": len(tracer.spans),
        "trace_id": tracer.trace_id if obs.tracing_enabled() else None,
        "thread_count": threading.active_count(),
        "pid": os.getpid(),
    }
