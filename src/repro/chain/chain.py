"""Columnar chain storage.

A :class:`Chain` holds ``n`` blocks in three numpy arrays plus a CSR-style
producer layout::

    heights      int64[n]          strictly increasing, consecutive
    timestamps   int64[n]          non-decreasing
    offsets      int64[n + 1]      block i's producers are producer_ids[offsets[i]:offsets[i+1]]
    producer_ids int64[credits]    index into producer_names

This scales to Ethereum's 2.2 M blocks (a handful of flat arrays) while
still exposing object-level access (:meth:`block`) and conversion to a
:class:`repro.table.Table` for SQL queries.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.chain.block import Block
from repro.chain.specs import ChainSpec
from repro.errors import ChainError
from repro.table import Column, Table


class Chain:
    """An immutable sequence of blocks with columnar storage."""

    __slots__ = ("spec", "heights", "timestamps", "offsets", "producer_ids", "producer_names", "_tags")

    def __init__(
        self,
        spec: ChainSpec,
        heights: np.ndarray,
        timestamps: np.ndarray,
        offsets: np.ndarray,
        producer_ids: np.ndarray,
        producer_names: Sequence[str],
        tags: Sequence[str | None] | None = None,
        validate: bool = True,
    ) -> None:
        self.spec = spec
        self.heights = np.asarray(heights, dtype=np.int64)
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.producer_ids = np.asarray(producer_ids, dtype=np.int64)
        self.producer_names = list(producer_names)
        self._tags = list(tags) if tags is not None else None
        if validate:
            self._validate()

    def _validate(self) -> None:
        n = self.heights.shape[0]
        if self.timestamps.shape[0] != n:
            raise ChainError("heights and timestamps must have equal length")
        if self.offsets.shape[0] != n + 1:
            raise ChainError(f"offsets must have length n+1 = {n + 1}")
        if n == 0:
            return
        if self.offsets[0] != 0 or self.offsets[-1] != self.producer_ids.shape[0]:
            raise ChainError("offsets must start at 0 and end at len(producer_ids)")
        if np.any(np.diff(self.offsets) < 1):
            raise ChainError("every block must have at least one producer")
        if np.any(np.diff(self.heights) != 1):
            raise ChainError("heights must be consecutive and increasing")
        if np.any(np.diff(self.timestamps) < 0):
            raise ChainError("timestamps must be non-decreasing")
        if self.producer_ids.size and (
            self.producer_ids.min() < 0
            or self.producer_ids.max() >= len(self.producer_names)
        ):
            raise ChainError("producer_ids reference unknown producer names")
        if self._tags is not None and len(self._tags) != n:
            raise ChainError("tags must have one entry per block")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_blocks(cls, spec: ChainSpec, blocks: Iterable[Block]) -> "Chain":
        """Build a chain from :class:`Block` objects (small datasets)."""
        blocks = list(blocks)
        heights = np.asarray([b.height for b in blocks], dtype=np.int64)
        timestamps = np.asarray([b.timestamp for b in blocks], dtype=np.int64)
        name_to_id: dict[str, int] = {}
        producer_ids: list[int] = []
        offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
        for i, block in enumerate(blocks):
            for producer in block.producers:
                pid = name_to_id.get(producer)
                if pid is None:
                    pid = len(name_to_id)
                    name_to_id[producer] = pid
                producer_ids.append(pid)
            offsets[i + 1] = len(producer_ids)
        tags = [b.tag for b in blocks]
        names = [""] * len(name_to_id)
        for name, pid in name_to_id.items():
            names[pid] = name
        return cls(
            spec,
            heights,
            timestamps,
            offsets,
            np.asarray(producer_ids, dtype=np.int64),
            names,
            tags=tags if any(t is not None for t in tags) else None,
        )

    @classmethod
    def single_producer(
        cls,
        spec: ChainSpec,
        heights: np.ndarray,
        timestamps: np.ndarray,
        producer_ids: np.ndarray,
        producer_names: Sequence[str],
        validate: bool = True,
    ) -> "Chain":
        """Build a chain where every block has exactly one producer.

        This is the fast path the Ethereum simulator uses: ``producer_ids``
        has one entry per block and the CSR offsets are implicit.
        """
        n = np.asarray(heights).shape[0]
        offsets = np.arange(n + 1, dtype=np.int64)
        return cls(
            spec, heights, timestamps, offsets, producer_ids, producer_names,
            validate=validate,
        )

    # -- accessors ----------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        """Number of blocks."""
        return int(self.heights.shape[0])

    @property
    def n_credits(self) -> int:
        """Total number of (block, producer) credit pairs."""
        return int(self.producer_ids.shape[0])

    @property
    def n_producers(self) -> int:
        """Number of distinct producers credited in these blocks.

        Counts the ids that occur, not the name table: a slice keeps its
        parent's whole table, so a prefix reports the same count however
        it was made.
        """
        return int(np.count_nonzero(np.bincount(self.producer_ids)))

    @property
    def start_height(self) -> int:
        """Height of the first block."""
        if self.n_blocks == 0:
            raise ChainError("empty chain has no start height")
        return int(self.heights[0])

    @property
    def end_height(self) -> int:
        """Height of the last block."""
        if self.n_blocks == 0:
            raise ChainError("empty chain has no end height")
        return int(self.heights[-1])

    def __len__(self) -> int:
        return self.n_blocks

    def __repr__(self) -> str:
        if self.n_blocks == 0:
            return f"Chain(spec={self.spec.name}, empty)"
        return (
            f"Chain(spec={self.spec.name}, blocks={self.n_blocks}, "
            f"heights=[{self.start_height}..{self.end_height}], "
            f"producers={self.n_producers})"
        )

    def block(self, index: int) -> Block:
        """Materialize block ``index`` (0-based position) as a :class:`Block`."""
        if not -self.n_blocks <= index < self.n_blocks:
            raise ChainError(f"block index {index} out of range")
        if index < 0:
            index += self.n_blocks
        start, stop = int(self.offsets[index]), int(self.offsets[index + 1])
        producers = tuple(
            self.producer_names[pid] for pid in self.producer_ids[start:stop]
        )
        tag = self._tags[index] if self._tags is not None else None
        return Block(
            height=int(self.heights[index]),
            timestamp=int(self.timestamps[index]),
            producers=producers,
            tag=tag,
        )

    def blocks(self) -> Iterator[Block]:
        """Iterate over all blocks as :class:`Block` objects (slow path)."""
        for i in range(self.n_blocks):
            yield self.block(i)

    def producer_counts(self) -> np.ndarray:
        """Per-block producer counts (1 for normal blocks)."""
        return np.diff(self.offsets)

    def anomalous_blocks(self, threshold: int = 10) -> list[Block]:
        """Blocks crediting at least ``threshold`` producers (paper §II-C1d)."""
        indices = np.flatnonzero(self.producer_counts() >= threshold)
        return [self.block(int(i)) for i in indices]

    # -- slicing --------------------------------------------------------------

    def slice_blocks(self, start: int, stop: int) -> "Chain":
        """Return the sub-chain of block positions ``[start, stop)``."""
        start = max(0, start)
        stop = min(self.n_blocks, stop)
        if stop < start:
            raise ChainError(f"invalid block slice [{start}, {stop})")
        lo, hi = int(self.offsets[start]), int(self.offsets[stop])
        offsets = self.offsets[start : stop + 1] - self.offsets[start]
        tags = self._tags[start:stop] if self._tags is not None else None
        return Chain(
            self.spec,
            self.heights[start:stop],
            self.timestamps[start:stop],
            offsets,
            self.producer_ids[lo:hi],
            self.producer_names,
            tags=tags,
            validate=False,
        )

    def slice_by_height(self, first_height: int, last_height: int) -> "Chain":
        """Return the sub-chain with heights in ``[first_height, last_height]``."""
        start = int(np.searchsorted(self.heights, first_height, side="left"))
        stop = int(np.searchsorted(self.heights, last_height, side="right"))
        return self.slice_blocks(start, stop)

    def slice_by_time(self, start_ts: int, end_ts: int) -> "Chain":
        """Return the sub-chain with timestamps in ``[start_ts, end_ts)``."""
        start = int(np.searchsorted(self.timestamps, start_ts, side="left"))
        stop = int(np.searchsorted(self.timestamps, end_ts, side="left"))
        return self.slice_blocks(start, stop)

    # -- export ---------------------------------------------------------------

    def to_table(self) -> Table:
        """One row per (block, producer) credit, ready for SQL queries.

        Columns: ``height`` (int), ``timestamp`` (int), ``producer`` (str,
        dictionary-encoded: its codes are ``producer_ids`` itself, not a
        copy), ``n_producers`` (int, the block's total producer count).
        When every block has exactly one producer, ``height`` and
        ``timestamp`` are the chain's own arrays, not copies.
        """
        counts = self.producer_counts()
        if self.n_credits == self.n_blocks:  # each block has >= 1 producer
            heights, timestamps, n_producers = self.heights, self.timestamps, counts
        else:
            heights = np.repeat(self.heights, counts)
            timestamps = np.repeat(self.timestamps, counts)
            n_producers = np.repeat(counts, counts)
        return Table(
            {
                "height": heights,
                "timestamp": timestamps,
                "producer": self._producer_column(self.producer_ids),
                "n_producers": n_producers,
            }
        )

    def block_table(self) -> Table:
        """One row per block: ``height``, ``timestamp``, ``primary_producer``.

        ``primary_producer`` is dictionary-encoded.  When every block has
        exactly one producer its codes are ``producer_ids`` itself.
        """
        if self.n_credits == self.n_blocks:  # each block has >= 1 producer
            codes = self.producer_ids
        else:
            codes = self.producer_ids[self.offsets[:-1]]
        return Table(
            {
                "height": self.heights,
                "timestamp": self.timestamps,
                "primary_producer": self._producer_column(codes),
                "n_producers": self.producer_counts(),
            }
        )

    def _producer_column(self, codes: np.ndarray) -> Column:
        """``producer_names[codes]`` as a dictionary-encoded column.

        Every chain the package builds has unique producer names; a chain
        built by hand with a repeated name gets a plain column.
        """
        names = self.producer_names
        if len(set(names)) < len(names):
            return Column(np.asarray(names, dtype=object)[codes], "str")
        return Column.from_codes(codes, names)
