"""Differential oracle: the monitor path equals the offline sliding sweep.

``repro monitor`` replays ``repro.cli._block_feed(chain)`` through a
:class:`~repro.core.streaming.StreamingMonitor`.  Evaluation ``k`` covers
blocks ``[k*M, k*M + N)``, which is window ``k`` of the offline
``measure_sliding_many(metrics, N, M)`` sweep, so every streamed value
must equal the offline one at the same index:

* Gini and Nakamoto byte for byte (``tobytes()``);
* entropy to ``rel=1e-12``: the batched kernel sums in another order
  (the largest difference seen on these chains is ~4e-15).

The evaluation count is the paper's window algebra, ``(B - N) // M + 1``.
The feed itself must decode each block whole, as one ``list[str]``.  A
case with a block limit feeds the chain's prefix of that many blocks, as
``repro monitor --blocks`` does.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pytest

from repro.cli import _block_feed
from repro.core.engine import MeasurementEngine
from repro.core.streaming import StreamingMonitor

METRICS = ("gini", "entropy", "nakamoto")

#: (chain fixture, window size N, blocks fed or None for the whole year).
CASES = [
    ("btc_chain", 144, None),
    ("btc_chain", 1_008, None),
    ("btc_chain", 4_320, None),
    ("eth_chain", 6_000, 80_000),
]


@pytest.fixture(scope="module")
def engines(request) -> Callable[[str], MeasurementEngine]:
    """One offline engine per chain fixture, built on first use."""
    cache: dict[str, MeasurementEngine] = {}

    def engine_for(name: str) -> MeasurementEngine:
        if name not in cache:
            chain = request.getfixturevalue(name)
            cache[name] = MeasurementEngine.from_chain(chain, workers=1)
        return cache[name]

    return engine_for


def prefix(chain, limit: int | None):
    """The chain's first ``limit`` blocks, or the whole chain."""
    return chain if limit is None else chain.slice_blocks(0, limit)


def reference_feed(chain) -> list[list[str]]:
    """Each block's producer names, decoded one id at a time."""
    offsets, ids = chain.offsets, chain.producer_ids
    return [
        [chain.producer_names[int(pid)] for pid in ids[offsets[i]:offsets[i + 1]]]
        for i in range(chain.n_blocks)
    ]


@pytest.mark.parametrize(
    "fixture, window, limit", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES]
)
def test_monitor_history_equals_offline_sweep(request, engines, fixture, window, limit):
    chain = request.getfixturevalue(fixture)
    stride = window // 2
    monitor = StreamingMonitor(window, stride)
    for producers in _block_feed(prefix(chain, limit)):
        monitor.push(producers)

    blocks = chain.n_blocks if limit is None else limit
    evaluations = (blocks - window) // stride + 1
    assert monitor.blocks_seen == blocks
    assert monitor.evaluations == evaluations

    sweep = engines(fixture).measure_sliding_many(METRICS, window, stride)
    for name in METRICS:
        history = monitor.history(name)
        assert [count for count, _ in history] == [
            window + k * stride for k in range(evaluations)
        ]
        series = sweep[name]
        assert series.indices[:evaluations].tolist() == list(range(evaluations))
        streamed = np.array([value for _, value in history], dtype=np.float64)
        offline = series.values[:evaluations]
        if name == "entropy":
            np.testing.assert_allclose(streamed, offline, rtol=1e-12, atol=0.0)
        else:
            assert streamed.tobytes() == offline.tobytes(), name


@pytest.mark.parametrize("fixture, limit", [("btc_chain", None), ("eth_chain", 80_000)])
def test_feed_decodes_each_block_whole(request, fixture, limit):
    chain = prefix(request.getfixturevalue(fixture), limit)
    feed = list(_block_feed(chain))
    assert feed == reference_feed(chain)
    assert all(type(block) is list for block in feed)
    assert all(type(name) is str for block in feed for name in block)
    if fixture == "btc_chain":
        assert max(len(block) for block in feed) > 1  # multi-producer blocks

