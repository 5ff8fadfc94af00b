"""Multi-core execution: process pools with deterministic merges.

Two stages of the pipeline run on a :class:`WorkerPool`, and only these
two, because only they win measurably (see ``docs/PARALLELISM.md``):

* the study fan-out — each chain's half of the paper study is one task,
  two tasks on one pool per study
  (:meth:`repro.analysis.study.DecentralizationStudy.chain_results`);
* the SQL group-by over 50k rows or more — partial aggregates over
  contiguous row partitions, merged on the coordinator **in shard order**.

``workers="auto"`` resolves to one worker per usable CPU, which with a
single usable CPU is the serial path: no pool is created.
"""

from repro.parallel.pool import (
    AUTO,
    WorkerPool,
    in_worker,
    pool_status,
    resolve_workers,
    shard_ranges,
    usable_cpus,
    worker_payload,
)

__all__ = [
    "AUTO",
    "WorkerPool",
    "in_worker",
    "pool_status",
    "resolve_workers",
    "shard_ranges",
    "usable_cpus",
    "worker_payload",
]
