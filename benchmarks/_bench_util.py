"""Reporting helpers shared by the figure benchmarks.

The row formatting lives in :mod:`repro.viz.tables` (shared with the CLI
``measure`` summary); these wrappers only print.  Per-stage timings of
the whole pipeline come from perfbench (``perfbench/run.py --trace 1``),
not from these benchmarks.
"""

from __future__ import annotations

from repro.core.series import MeasurementSeries
from repro.viz.tables import format_notes, format_series_rows


def report_series(title: str, series_map: dict[str, MeasurementSeries]) -> None:
    """Print the per-series rows the paper quotes for a figure."""
    print(f"\n{format_series_rows(series_map, title=title)}")


def report_notes(notes: dict[str, float]) -> None:
    """Print a figure's named scalar statistics."""
    if notes:
        print(format_notes(notes))

