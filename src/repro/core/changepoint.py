"""Change-point detection on measurement series (extension).

The paper motivates sliding windows with "continuous trends and abnormal
situations"; a CUSUM detector makes the *trend-shift* side operational:
it flags windows where the series' level shifts persistently (e.g. a pool
gaining share over weeks), complementing the point-outlier detectors in
:mod:`repro.core.anomaly`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.series import MeasurementSeries
from repro.errors import MeasurementError

#: Points at the start of each segment whose mean is that segment's baseline.
_BASELINE_POINTS = 20


@dataclass(frozen=True)
class ChangePoint:
    """A detected persistent level shift."""

    #: Position within the series at which the shift is flagged.
    position: int
    label: str
    #: +1 for an upward shift, -1 for a downward shift.
    direction: int
    #: Peak CUSUM statistic (in sigma units) at the flag point.
    magnitude: float


@dataclass(frozen=True)
class ChangePointReport:
    """All change points found in one series."""

    threshold: float
    drift: float
    points: tuple[ChangePoint, ...]

    @property
    def count(self) -> int:
        """Number of change points found."""
        return len(self.points)

    def __bool__(self) -> bool:
        return self.count > 0

    def positions(self) -> tuple[int, ...]:
        """Series positions of all change points."""
        return tuple(p.position for p in self.points)


def cusum_changepoints(
    series: MeasurementSeries,
    threshold: float = 5.0,
    drift: float = 0.5,
) -> ChangePointReport:
    """Two-sided, self-re-baselining CUSUM.

    Deviations are measured in global-sigma units against the *current
    segment's* baseline (the mean of its first 20 points).  When
    the upper/lower cumulative sum exceeds ``threshold`` a change point is
    flagged and a new segment — with a fresh baseline — starts there, so a
    persistent level shift is reported once rather than repeatedly.
    """
    if threshold <= 0:
        raise MeasurementError(f"threshold must be positive, got {threshold}")
    if drift < 0:
        raise MeasurementError(f"drift must be >= 0, got {drift}")
    values = series.values
    n = values.shape[0]
    if n < 3:
        return ChangePointReport(threshold=threshold, drift=drift, points=())
    sigma = float(values.std(ddof=0))
    if sigma == 0:
        return ChangePointReport(threshold=threshold, drift=drift, points=())
    points: list[ChangePoint] = []
    segment_start = 0
    while segment_start < n - 1:
        base_stop = min(segment_start + _BASELINE_POINTS, n)
        mean = float(values[segment_start:base_stop].mean())
        upper = 0.0
        lower = 0.0
        flagged = None
        for i in range(segment_start, n):
            deviation = (float(values[i]) - mean) / sigma
            upper = max(0.0, upper + deviation - drift)
            lower = min(0.0, lower + deviation + drift)
            if upper > threshold:
                flagged = ChangePoint(
                    position=i,
                    label=series.labels[i],
                    direction=1,
                    magnitude=float(upper),
                )
                break
            if lower < -threshold:
                flagged = ChangePoint(
                    position=i,
                    label=series.labels[i],
                    direction=-1,
                    magnitude=float(-lower),
                )
                break
        if flagged is None:
            break
        points.append(flagged)
        segment_start = flagged.position + 1
    return ChangePointReport(threshold=threshold, drift=drift, points=tuple(points))
