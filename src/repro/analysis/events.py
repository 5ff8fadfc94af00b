"""Event timeline: anomalies and trend shifts, merged across metrics.

The paper's operational goal for sliding windows is to "discover special
or abnormal changes of the degree of decentralization in a more timely
manner".  An event timeline is what a monitoring deployment of this
library would emit: per chain, every point outlier (IQR rule) and every
persistent shift (CUSUM), across all three paper metrics, in time order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.anomaly import iqr_anomalies
from repro.core.changepoint import cusum_changepoints
from repro.core.engine import MeasurementEngine
from repro.core.series import MeasurementSeries

#: CUSUM threshold and drift (in sigma units) of every event sweep.
_CUSUM_THRESHOLD = 4.0
_CUSUM_DRIFT = 0.4


@dataclass(frozen=True)
class Event:
    """One detected event on one metric's series."""

    chain: str
    metric: str
    #: ``outlier`` (point anomaly), ``shift-up`` or ``shift-down``.
    kind: str
    #: Position within the measured series.
    position: int
    label: str
    #: Outliers: the anomalous value; shifts: the CUSUM magnitude.
    value: float

    def __str__(self) -> str:
        return (
            f"[{self.label}] {self.chain}/{self.metric}: {self.kind} "
            f"(value={self.value:.4f})"
        )


def event_timeline(
    engine: MeasurementEngine,
    metrics: tuple[str, ...] = ("gini", "entropy", "nakamoto"),
) -> list[Event]:
    """Detect and merge daily events across ``metrics``; sorted by position."""
    return sweep_events(engine.measure_calendar_many(metrics, "day"))


def sweep_events(sweep: Mapping[str, MeasurementSeries]) -> list[Event]:
    """:func:`event_timeline` over an already measured sweep (metric -> series)."""
    events: list[Event] = []
    for metric, series in sweep.items():
        outliers = iqr_anomalies(series)
        for position, label, value in zip(
            outliers.positions, outliers.labels, outliers.values
        ):
            events.append(
                Event(
                    chain=series.chain_name,
                    metric=metric,
                    kind="outlier",
                    position=position,
                    label=label,
                    value=value,
                )
            )
        shifts = cusum_changepoints(
            series, threshold=_CUSUM_THRESHOLD, drift=_CUSUM_DRIFT
        )
        for point in shifts.points:
            events.append(
                Event(
                    chain=series.chain_name,
                    metric=metric,
                    kind="shift-up" if point.direction > 0 else "shift-down",
                    position=point.position,
                    label=point.label,
                    value=point.magnitude,
                )
            )
    return sorted(events, key=lambda e: (e.position, e.metric, e.kind))


def coincident_events(events: Iterable[Event], min_metrics: int = 2) -> list[list[Event]]:
    """Group same-position events; keep groups spanning >= ``min_metrics``.

    A date flagged by several metrics at once (like the paper's day 14,
    extreme under Gini, entropy *and* Nakamoto) is far stronger evidence
    than a single-metric blip.
    """
    by_position: dict[int, list[Event]] = {}
    for event in events:
        by_position.setdefault(event.position, []).append(event)
    groups = []
    for position in sorted(by_position):
        group = by_position[position]
        if len({event.metric for event in group}) >= min_metrics:
            groups.append(group)
    return groups
