"""Unit tests for the worker-pool plumbing (``repro.parallel.pool``)."""

import multiprocessing
import os

import pytest

from repro.errors import ParallelError
from repro.parallel import (
    AUTO,
    WorkerPool,
    in_worker,
    pool_status,
    resolve_workers,
    shard_ranges,
    worker_payload,
)


# -- module-level worker functions (must be picklable) -------------------------


def _echo(value):
    return value


def _payload_plus(offset):
    return worker_payload() + offset


def _payload():
    return worker_payload()


def _call_payload():
    return worker_payload()()


def _affinity():
    return sorted(os.sched_getaffinity(0))


def _boom(lo, hi):
    raise ValueError(f"shard [{lo}, {hi}) exploded")


class TestResolveWorkers:
    def test_auto_and_none_track_cpu_count(self):
        # The CPUs this process may run on, not the host's total.
        expected = len(os.sched_getaffinity(0))
        assert resolve_workers(AUTO) == expected
        assert resolve_workers("auto") == expected
        assert resolve_workers(None) == expected

    def test_auto_respects_cpu_affinity(self, monkeypatch):
        # Pinned to one CPU (`taskset -c 0`) on a multi-core host: auto
        # must not oversubscribe it with a pool.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_workers(AUTO) == 1
        assert resolve_workers(None) == 1
        status = pool_status()
        assert status["usable_cpus"] == 1
        assert status["auto_workers"] == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_explicit_int_is_literal(self, n):
        assert resolve_workers(n) == n

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ParallelError, match=">= 1"):
            resolve_workers(bad)

    @pytest.mark.parametrize("bad", [True, False, 2.0, "three", "Auto", [2]])
    def test_non_int_rejected(self, bad):
        with pytest.raises(ParallelError, match="positive int or 'auto'"):
            resolve_workers(bad)


class TestShardRanges:
    def test_examples(self):
        assert shard_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert shard_ranges(6, 2) == [(0, 3), (3, 6)]

    def test_more_shards_than_items_collapses(self):
        assert shard_ranges(2, 8) == [(0, 1), (1, 2)]

    def test_zero_items_is_empty(self):
        assert shard_ranges(0, 4) == []

    def test_invalid_shard_count(self):
        with pytest.raises(ParallelError, match="shards must be >= 1"):
            shard_ranges(10, 0)

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 101])
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_partition_properties(self, n, k):
        ranges = shard_ranges(n, k)
        # Contiguous, non-empty, covering [0, n) exactly, at most k shards.
        assert len(ranges) == min(n, k)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (lo, hi), (next_lo, _) in zip(ranges, ranges[1:]):
            assert hi == next_lo
        assert all(hi > lo for lo, hi in ranges)
        # Sizes differ by at most one, biggest first.
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)


class TestWorkerPool:
    def test_requires_at_least_two_workers(self):
        with pytest.raises(ParallelError, match=">= 2 workers"):
            WorkerPool(1)

    def test_map_shards_preserves_shard_order(self):
        with WorkerPool(2) as pool:
            results = pool.map_shards(_echo, [(i,) for i in range(8)])
        assert results == list(range(8))

    def test_payload_shared_with_workers(self):
        with WorkerPool(2, payload=40) as pool:
            results = pool.map_shards(_payload_plus, [(1,), (2,)])
        assert results == [41, 42]

    def test_each_pool_sees_its_own_payload(self):
        # Workers fork at a pool's first submit, so a later pool's payload
        # must not leak into an earlier pool's workers.
        first = WorkerPool(2, payload="A")
        second = WorkerPool(2, payload="B")
        try:
            assert first.map_shards(_payload, [(), ()]) == ["A", "A"]
            assert second.map_shards(_payload, [(), ()]) == ["B", "B"]
        finally:
            first.close()
            second.close()

    def test_payload_survives_a_payloadless_pool_built_before_first_submit(self):
        pool = WorkerPool(2, payload="E")
        bare = WorkerPool(2)
        bare.close()
        try:
            assert pool.map_shards(_payload, [(), ()]) == ["E", "E"]
        finally:
            pool.close()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="only fork hands the payload over without pickling",
    )
    def test_fork_payload_is_never_pickled(self):
        with WorkerPool(2, payload=lambda: 7) as pool:
            assert pool.map_shards(_call_payload, [(), ()]) == [7, 7]

    def test_shards_are_dealt_over_the_usable_cpus(self):
        # Shard i runs pinned to the coordinator's i-th CPU, cycling, so a
        # kernel that leaves forked workers on one CPU cannot serialize them.
        cpus = sorted(os.sched_getaffinity(0))
        with WorkerPool(2) as pool:
            seen = pool.map_shards(_affinity, [() for _ in range(4)])
        assert seen == [[cpus[i % len(cpus)]] for i in range(4)]

    def test_worker_exception_wrapped_in_parallel_error(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ParallelError, match=r"shard \[0, 5\) exploded"):
                pool.map_shards(_boom, [(0, 5), (5, 10)])

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.close()
        pool.close()

    def test_payload_outside_worker_raises(self):
        assert not in_worker()
        with pytest.raises(ParallelError, match="inside a worker"):
            worker_payload()


class TestPoolStatus:
    def test_reports_host_and_lifetime_counters(self):
        before = pool_status()
        with WorkerPool(2, payload=None) as pool:
            pool.map_shards(_echo, [(1,), (2,), (3,)])
            during = pool_status()
        after = pool_status()

        assert after["cpu_count"] >= 1
        assert after["auto_workers"] == resolve_workers(AUTO)
        assert during["active_pools"] == before["active_pools"] + 1
        assert after["active_pools"] == before["active_pools"]
        lifetime = after["lifetime"]
        assert lifetime["pools_created"] == before["lifetime"]["pools_created"] + 1
        assert lifetime["tasks_submitted"] >= before["lifetime"]["tasks_submitted"] + 3
        assert lifetime["tasks_completed"] >= before["lifetime"]["tasks_completed"] + 3

    def test_last_pool_snapshot_shape(self):
        with WorkerPool(3) as pool:
            pool.map_shards(_echo, [(0,), (1,)])
        last = pool_status()["last_pool"]
        assert last["workers"] == 3
        assert last["start_method"] in ("fork", "spawn")
        assert last["tasks_submitted"] == 2
        assert last["tasks_completed"] == 2
        assert last["open"] is False
