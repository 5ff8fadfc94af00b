"""Nearest-rank percentiles: the point-lookup p90 and the ``setup_s`` median."""

from __future__ import annotations

import math
from typing import Sequence


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile: the ceil(pct/100 * n)-th smallest.

    >>> nearest_rank([4.0, 1.0, 3.0, 2.0], 50)
    2.0
    >>> nearest_rank(list(range(1, 101)), 90)
    90
    """
    if not samples:
        raise ValueError("no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(samples)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[rank - 1]


def percentile_with_count(samples: Sequence[float], pct: float) -> tuple[float, int]:
    """``(nearest_rank(samples, pct), len(samples))``.

    A percentile above the median needs at least ten samples beyond it,
    so a p90 needs 100 samples; fewer raise.
    """
    beyond = len(samples) - math.ceil(pct / 100 * len(samples))
    if pct > 50 and beyond < 10:
        raise ValueError(
            f"p{pct:g} over {len(samples)} samples has only {beyond} beyond it"
        )
    return nearest_rank(samples, pct), len(samples)


def median(samples: Sequence[float]) -> float:
    """The nearest-rank median (an observed value, never an average)."""
    return nearest_rank(samples, 50)
