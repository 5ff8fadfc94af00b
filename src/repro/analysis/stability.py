"""Stability analysis — the paper's "Ethereum is more stable" claim.

For each metric we compare the coefficient of variation of the Bitcoin and
Ethereum daily series; the chain with the lower CV is the more stable one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.comparison import StabilityComparison, compare_stability
from repro.core.engine import MeasurementEngine
from repro.core.series import MeasurementSeries


@dataclass(frozen=True)
class StabilityReport:
    """Per-metric stability comparisons plus the overall verdict."""

    comparisons: tuple[StabilityComparison, ...]

    @property
    def overall_winner(self) -> str:
        """The chain winning the majority of per-metric comparisons."""
        wins: dict[str, int] = {}
        for comparison in self.comparisons:
            wins[comparison.winner] = wins.get(comparison.winner, 0) + 1
        return max(wins, key=lambda chain: wins[chain])

    def winner_for(self, metric_name: str) -> str:
        """The more-stable chain under ``metric_name``."""
        for comparison in self.comparisons:
            if comparison.metric_name == metric_name:
                return comparison.winner
        raise KeyError(f"no stability comparison for metric {metric_name!r}")


def stability_report(
    btc: MeasurementEngine,
    eth: MeasurementEngine,
    metrics: tuple[str, ...] = ("gini", "entropy", "nakamoto"),
) -> StabilityReport:
    """Compare per-metric stability of the two chains' daily series."""
    return stability_of_sweeps(
        btc.measure_calendar_many(metrics, "day"),
        eth.measure_calendar_many(metrics, "day"),
    )


def stability_of_sweeps(
    sweep_btc: Mapping[str, MeasurementSeries],
    sweep_eth: Mapping[str, MeasurementSeries],
) -> StabilityReport:
    """:func:`stability_report` over two measured sweeps (metric -> series)."""
    comparisons = [
        compare_stability(series, sweep_eth[metric])
        for metric, series in sweep_btc.items()
    ]
    return StabilityReport(comparisons=tuple(comparisons))
