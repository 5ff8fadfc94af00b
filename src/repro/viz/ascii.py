"""Terminal line charts.

Minimal-but-useful ASCII rendering of measurement series: one character
column per horizontal bucket, value range mapped to a fixed number of
rows, multiple series overlaid with distinct glyphs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.series import MeasurementSeries
from repro.errors import ValidationError

_GLYPHS = ("*", "+", "o", "x", "#", "@")


def ascii_chart(
    series: MeasurementSeries | Sequence[float],
    width: int = 78,
    height: int = 16,
    title: str | None = None,
) -> str:
    """Render one series as an ASCII line chart.

    >>> print(ascii_chart([1, 2, 3, 2, 1], width=10, height=3))  # doctest: +SKIP
    """
    values = _values_of(series)
    label = title
    if label is None and isinstance(series, MeasurementSeries):
        label = f"{series.chain_name}/{series.metric_name}/{series.window_desc}"
    return multi_series_chart({label or "series": values}, width=width, height=height)


def multi_series_chart(
    series_map: Mapping[str, MeasurementSeries | Sequence[float]],
    width: int = 78,
    height: int = 16,
) -> str:
    """Overlay several series in one chart, one glyph per series."""
    if not series_map:
        raise ValidationError("series_map must not be empty")
    if width < 8 or height < 3:
        raise ValidationError("chart must be at least 8x3 characters")
    arrays = {name: _values_of(s) for name, s in series_map.items()}
    finite = np.concatenate([a for a in arrays.values() if a.size])
    if finite.size == 0:
        raise ValidationError("all series are empty")
    low, high = float(finite.min()), float(finite.max())
    if high == low:
        high = low + 1.0
    grid = [[" "] * width for _ in range(height)]
    for glyph, (name, values) in zip(_cycle_glyphs(), arrays.items()):
        if values.size == 0:
            continue
        buckets = _bucketize(values, width)
        for column, value in enumerate(buckets):
            if np.isnan(value):
                continue
            row = int(round((value - low) / (high - low) * (height - 1)))
            grid[height - 1 - row][column] = glyph
    axis_width = 10
    lines = []
    for i, row in enumerate(grid):
        if i == 0:
            axis_label = f"{high:>9.3g} "
        elif i == height - 1:
            axis_label = f"{low:>9.3g} "
        else:
            axis_label = " " * axis_width
        lines.append(axis_label + "|" + "".join(row))
    lines.append(" " * axis_width + "+" + "-" * width)
    legend = "  ".join(
        f"{glyph}={name}" for glyph, name in zip(_cycle_glyphs(), arrays)
    )
    lines.append(" " * (axis_width + 1) + legend)
    return "\n".join(lines)


def ascii_histogram(
    values: Sequence[float] | np.ndarray,
    bins: int = 10,
) -> str:
    """Render a horizontal-bar histogram of ``values`` (bars up to 50 wide)."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        raise ValidationError("values must not be empty")
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    counts, edges = np.histogram(array, bins=bins)
    peak = max(int(counts.max()), 1)
    lines = []
    for i, count in enumerate(counts):
        bar = "#" * int(round(count / peak * 50))
        lines.append(f"[{edges[i]:>9.3g}, {edges[i + 1]:>9.3g}) {bar} {count}")
    return "\n".join(lines)


def _values_of(series: MeasurementSeries | Sequence[float]) -> np.ndarray:
    if isinstance(series, MeasurementSeries):
        return series.values
    return np.asarray(list(series), dtype=np.float64)


def _bucketize(values: np.ndarray, width: int) -> np.ndarray:
    """Average ``values`` into ``width`` buckets (NaN for empty buckets)."""
    n = values.shape[0]
    if n <= width:
        out = np.full(width, np.nan)
        positions = np.linspace(0, width - 1, n).round().astype(int)
        for position, value in zip(positions, values):
            out[position] = value
        return out
    edges = np.linspace(0, n, width + 1).round().astype(int)
    return np.asarray(
        [
            values[edges[i] : edges[i + 1]].mean() if edges[i + 1] > edges[i] else np.nan
            for i in range(width)
        ]
    )


def _cycle_glyphs():
    while True:
        yield from _GLYPHS
