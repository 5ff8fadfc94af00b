"""Block-producer attribution policies.

Attribution turns a :class:`~repro.chain.chain.Chain` into *credits*: rows
of (block, entity, weight) from which per-window mining-power distributions
are computed.  Four policies are provided:

``per-address`` (the paper's policy)
    Every coinbase output address of a block counts as a producer of that
    block and receives weight 1.  A block with 90 addresses therefore
    contributes 90 credits — this is what makes the paper's day-14 Bitcoin
    anomaly (Gini 0.34, entropy 6.2) possible.

``first-address``
    Only the first (payout) address is credited, weight 1 per block.

``fractional``
    Every address is credited ``1/k`` for a block with ``k`` addresses, so
    each block contributes total weight 1.

``pool``
    Like ``first-address``, but addresses are canonicalized through a
    :class:`~repro.chain.pools.PoolRegistry`, collapsing pool payout
    addresses to pool identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final, Sequence

import numpy as np

from repro import obs
from repro.chain.chain import Chain
from repro.chain.pools import PoolRegistry
from repro.errors import AttributionError

#: The policies accepted by :func:`attribute`.
ATTRIBUTION_POLICIES: Final[tuple[str, ...]] = (
    "per-address",
    "first-address",
    "fractional",
    "pool",
)

#: Use the sparse ``np.unique`` distribution path when the window holds
#: fewer than ``n_entities / _SPARSE_CROSSOVER`` credit rows AND the
#: entity space is at least ``_SPARSE_MIN_ENTITIES`` wide.  The sparse
#: path pays an O(m log m) sort with a ~10 µs floor but skips the dense
#: O(n_entities) alloc+scan, which only starts to matter past roughly
#: 16k entities; see ``benchmarks/bench_perf_distribution.py`` for the
#: measured crossover.
_SPARSE_CROSSOVER: Final[int] = 4
_SPARSE_MIN_ENTITIES: Final[int] = 16_384

#: Upper bound on dense segment histogram cells (segments x entities,
#: ~64 MB of float64) before the incremental sliding path falls back to
#: per-window slices.  A sliding family never has more windows than
#: segments, so its window matrix stays within the same bound.
_SEGMENT_BUDGET: Final[int] = 8_000_000


@dataclass
class Credits:
    """Per-(block, entity) block credits in block order.

    Arrays are aligned: credit ``i`` belongs to the block at position
    ``block_positions[i]`` in the source chain and assigns ``weights[i]``
    to entity ``entity_ids[i]``.  ``block_offsets`` is CSR: the credits of
    block position ``b`` are rows ``block_offsets[b]:block_offsets[b + 1]``.
    """

    chain_name: str
    policy: str
    entity_ids: np.ndarray
    weights: np.ndarray
    block_positions: np.ndarray
    timestamps: np.ndarray
    block_offsets: np.ndarray
    entity_names: Sequence[str]

    @property
    def n_blocks(self) -> int:
        """Number of blocks covered."""
        return int(self.block_offsets.shape[0] - 1)

    @property
    def n_credits(self) -> int:
        """Total credit rows."""
        return int(self.entity_ids.shape[0])

    @property
    def n_entities(self) -> int:
        """Size of the entity id space (some may hold zero weight)."""
        return len(self.entity_names)

    @property
    def total_weight(self) -> float:
        """Sum of all weights."""
        return float(self.weights.sum())

    def credit_range_for_blocks(self, start_block: int, stop_block: int) -> tuple[int, int]:
        """Credit-row range covering block positions ``[start_block, stop_block)``."""
        if start_block < 0 or stop_block > self.n_blocks or start_block > stop_block:
            raise AttributionError(
                f"invalid block range [{start_block}, {stop_block}) "
                f"for {self.n_blocks} blocks"
            )
        return int(self.block_offsets[start_block]), int(self.block_offsets[stop_block])

    def credit_range_for_time(self, start_ts: int, end_ts: int) -> tuple[int, int]:
        """Credit-row range with timestamps in ``[start_ts, end_ts)``."""
        lo = int(np.searchsorted(self.timestamps, start_ts, side="left"))
        hi = int(np.searchsorted(self.timestamps, end_ts, side="left"))
        return lo, hi

    def distribution(self, lo: int, hi: int) -> np.ndarray:
        """Per-entity weight totals over credit rows ``[lo, hi)``.

        Returns only the non-zero totals (the distribution the metrics
        consume); entity identity is dropped.  Narrow windows (far fewer
        credit rows than entities) take a sparse ``np.unique`` path that
        avoids allocating a dense ``n_entities`` array per call.
        """
        return self.distribution_with_entities(lo, hi)[1]

    def distribution_with_entities(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`distribution` but also returns the entity ids."""
        if (
            self.n_entities >= _SPARSE_MIN_ENTITIES
            and (hi - lo) * _SPARSE_CROSSOVER < self.n_entities
        ):
            ids, inverse = np.unique(self.entity_ids[lo:hi], return_inverse=True)
            totals = np.bincount(inverse, weights=self.weights[lo:hi])
            keep = totals > 0
            return ids[keep], totals[keep]
        totals = np.bincount(
            self.entity_ids[lo:hi],
            weights=self.weights[lo:hi],
            minlength=self.n_entities,
        )
        ids = np.flatnonzero(totals > 0)
        return ids, totals[ids]

    def top_entities(self, lo: int, hi: int, k: int = 10) -> list[tuple[str, float]]:
        """The ``k`` heaviest entities over ``[lo, hi)`` as (name, weight)."""
        ids, totals = self.distribution_with_entities(lo, hi)
        order = np.argsort(-totals, kind="stable")[:k]
        return [(self.entity_names[int(ids[i])], float(totals[i])) for i in order]

    # -- incremental sliding-window histograms -------------------------------

    def segment_histograms(self, step: int) -> np.ndarray | None:
        """Dense per-segment entity histograms for segments of ``step`` blocks.

        Row ``j`` holds the per-entity weight totals of block positions
        ``[j*step, (j+1)*step)``; only full segments are materialized.  A
        pure function of the credits: each call makes one pass over them
        and nothing is kept between calls.

        Returns ``None`` when no segment is full or the dense matrix would
        exceed the memory budget (tiny steps over huge entity spaces);
        callers must then fall back to the per-window slice path.
        """
        if step <= 0:
            raise AttributionError(f"step must be positive, got {step}")
        n_segments = self.n_blocks // step
        n_entities = self.n_entities
        if n_segments == 0 or n_segments * n_entities > _SEGMENT_BUDGET:
            return None
        with obs.span(
            "attribution.segment_histograms", step=step, segments=n_segments
        ):
            rows_end = int(self.block_offsets[n_segments * step])
            segment_of = self.block_positions[:rows_end] // step
            keys = segment_of * n_entities + self.entity_ids[:rows_end]
            return np.bincount(
                keys,
                weights=self.weights[:rows_end],
                minlength=n_segments * n_entities,
            ).reshape(n_segments, n_entities)

    def sliding_histograms(self, size: int, step: int) -> np.ndarray | None:
        """Dense per-window histograms for the standard sliding family.

        Window ``i`` covers block positions ``[i*step, i*step + size)`` —
        exactly the family :class:`~repro.windows.sliding.SlidingBlockWindows`
        generates.  Each window's histogram is derived from the per-segment
        partial histograms (each credit row is touched once for the whole
        sweep, instead of once per overlapping window), which is what makes
        the sliding path O(credits) rather than O(L x N).

        A family with no window (``size`` past the last block) is a
        ``(0, n_entities)`` matrix.  Returns ``None`` when the family
        doesn't decompose into aligned segments (``size % step != 0``) or
        its segment matrix would exceed the memory budget; callers fall
        back to the per-window slice path.
        """
        if size <= 0 or step <= 0:
            raise AttributionError("size and step must be positive")
        if size > self.n_blocks:
            return np.zeros((0, self.n_entities), dtype=np.float64)
        if size % step != 0:
            return None
        segments = self.segment_histograms(step)
        if segments is None:
            return None
        n_windows = (self.n_blocks - size) // step + 1
        windows = np.zeros((n_windows, self.n_entities), dtype=np.float64)
        for j in range(size // step):
            windows += segments[j : j + n_windows]
        return windows


def attribute(
    chain: Chain,
    policy: str = "per-address",
    registry: PoolRegistry | None = None,
) -> Credits:
    """Apply an attribution ``policy`` to ``chain`` and return its credits."""
    if policy not in ATTRIBUTION_POLICIES:
        raise AttributionError(
            f"unknown policy {policy!r}; expected one of {ATTRIBUTION_POLICIES}"
        )
    if policy == "pool" and registry is None:
        raise AttributionError("the 'pool' policy requires a PoolRegistry")
    with obs.span("attribution.attribute", chain=chain.spec.name, policy=policy):
        return _attribute(chain, policy, registry)


def _pool_remap(
    chain: Chain, registry: PoolRegistry
) -> tuple[np.ndarray, list[str]]:
    """Producer-id -> pool-entity-id table plus the pool entity names.

    Entity ids are assigned in first appearance order over the producer
    name list.
    """
    remap = np.empty(len(chain.producer_names), dtype=np.int64)
    entity_names: list[str] = []
    seen: dict[str, int] = {}
    for pid, name in enumerate(chain.producer_names):
        entity = registry.pool_of(name)
        eid = seen.get(entity)
        if eid is None:
            eid = len(seen)
            seen[entity] = eid
            entity_names.append(entity)
        remap[pid] = eid
    return remap, entity_names


def _attribute(
    chain: Chain, policy: str, registry: PoolRegistry | None
) -> Credits:
    counts = chain.producer_counts()
    n = chain.n_blocks
    if policy == "per-address":
        return Credits(
            chain_name=chain.spec.name,
            policy=policy,
            entity_ids=chain.producer_ids.copy(),
            weights=np.ones(chain.n_credits, dtype=np.float64),
            block_positions=np.repeat(np.arange(n, dtype=np.int64), counts),
            timestamps=np.repeat(chain.timestamps, counts),
            block_offsets=chain.offsets.copy(),
            entity_names=list(chain.producer_names),
        )
    if policy == "fractional":
        weights = np.repeat(1.0 / counts.astype(np.float64), counts)
        return Credits(
            chain_name=chain.spec.name,
            policy=policy,
            entity_ids=chain.producer_ids.copy(),
            weights=weights,
            block_positions=np.repeat(np.arange(n, dtype=np.int64), counts),
            timestamps=np.repeat(chain.timestamps, counts),
            block_offsets=chain.offsets.copy(),
            entity_names=list(chain.producer_names),
        )
    first_ids = chain.producer_ids[chain.offsets[:-1]]
    if policy == "first-address":
        entity_ids = first_ids.copy()
        entity_names = list(chain.producer_names)
    else:  # pool
        remap, entity_names = _pool_remap(chain, registry)
        entity_ids = remap[first_ids]
    return Credits(
        chain_name=chain.spec.name,
        policy=policy,
        entity_ids=entity_ids,
        weights=np.ones(n, dtype=np.float64),
        block_positions=np.arange(n, dtype=np.int64),
        timestamps=chain.timestamps.copy(),
        block_offsets=np.arange(n + 1, dtype=np.int64),
        entity_names=entity_names,
    )
