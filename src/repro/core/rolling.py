"""Incremental trailing-window credit histogram.

The streaming monitor and any other online consumer of block feeds need
the same thing the sliding measurement needs offline: the per-entity
credit distribution of the trailing N blocks, maintained incrementally.
:class:`RollingHistogram` interns producer names into dense slots, keeps
per-entity weight totals *and* integer credit counts, and evicts the
oldest block in O(producers-per-block).  The counts make removal exact:
an entity leaves the window when its credit count reaches zero, not when
a float subtraction happens to land within an epsilon of zero — which
matters for fractional (1/k) weights.

The per-slot totals live in :mod:`array` buffers (``int64`` counts,
``float64`` weights): a push updates them as plain Python scalars, one
pass over the block's producers with no numpy scalar indexing, and a
read wraps them with ``np.frombuffer`` for one vectorized copy.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Sequence

import numpy as np

from repro.errors import MeasurementError


class RollingHistogram:
    """Fixed-capacity trailing-block entity histogram with O(k) pushes."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise MeasurementError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._slot_of: dict[str, int] = {}
        self._names: list[str] = []
        #: Per-slot credit weight and credit count, one entry per name ever seen.
        self._weights = array("d")
        self._counts = array("q")
        self._ring: deque[tuple[list[int], float]] = deque()
        self._active = 0

    def push(self, producers: Sequence[str], weight_each: float = 1.0) -> None:
        """Add one block's producers; evicts the oldest block when full."""
        if not producers:
            raise MeasurementError("a block needs at least one producer")
        slot_of, counts, weights = self._slot_of, self._counts, self._weights
        slots = []
        for name in producers:
            slot = slot_of.get(name)
            if slot is None:
                slot = slot_of[name] = len(self._names)
                self._names.append(name)
                counts.append(0)
                weights.append(0.0)
            count = counts[slot]
            if count == 0:
                self._active += 1
            counts[slot] = count + 1
            weights[slot] += weight_each
            slots.append(slot)
        ring = self._ring
        ring.append((slots, weight_each))
        if len(ring) > self.capacity:
            old_slots, old_weight = ring.popleft()
            for slot in old_slots:
                count = counts[slot] - 1
                counts[slot] = count
                if count == 0:
                    weights[slot] = 0.0
                    self._active -= 1
                else:
                    weights[slot] -= old_weight

    @property
    def n_blocks(self) -> int:
        """Blocks currently inside the window."""
        return len(self._ring)

    @property
    def n_active(self) -> int:
        """Entities holding non-zero credit in the window."""
        return self._active

    def _present(self) -> np.ndarray:
        """Mask of the slots holding credit, in slot (first-seen) order."""
        return np.frombuffer(self._counts, dtype=np.int64) > 0

    def distribution(self) -> np.ndarray:
        """The window's per-entity credit totals (non-zero entries only)."""
        return np.frombuffer(self._weights, dtype=np.float64)[self._present()]

    def distribution_with_entities(self) -> tuple[list[str], np.ndarray]:
        """Like :meth:`distribution`, with the matching entity names."""
        present = np.flatnonzero(self._present())
        names = [self._names[i] for i in present.tolist()]
        return names, np.frombuffer(self._weights, dtype=np.float64)[present]
