"""Multi-chain comparison (extension).

Generalizes the paper's two-chain §II-C3 comparison to any set of chains
measurable by the engine — e.g. Bitcoin vs Ethereum vs the DPoS extension
chain — producing one table of levels (means) and stability (CV) per
metric, plus per-metric rankings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.study import HIGHER_IS_MORE_DECENTRALIZED
from repro.core.engine import MeasurementEngine
from repro.errors import MeasurementError
from repro.table import Table, concat


@dataclass(frozen=True)
class MetricRanking:
    """Chains ordered from most to least decentralized under one metric."""

    metric: str
    #: Chain names, most decentralized first.
    by_level: tuple[str, ...]
    #: Chain names, most stable (lowest CV) first.
    by_stability: tuple[str, ...]


class MultiChainComparison:
    """Measures a set of chains uniformly and ranks them."""

    def __init__(
        self,
        engines: dict[str, MeasurementEngine],
        metrics: tuple[str, ...] = ("gini", "entropy", "nakamoto"),
    ) -> None:
        if len(engines) < 2:
            raise MeasurementError("comparison requires at least two chains")
        unknown = [m for m in metrics if m not in HIGHER_IS_MORE_DECENTRALIZED]
        if unknown:
            raise MeasurementError(
                f"no decentralization direction defined for metrics {unknown}; "
                "use one of " + ", ".join(sorted(HIGHER_IS_MORE_DECENTRALIZED))
            )
        self._engines = dict(engines)
        self._metrics = metrics
        self._series = {
            (name, metric): series
            for name, engine in self._engines.items()
            for metric, series in engine.measure_calendar_many(metrics, "day").items()
        }

    def table(self) -> Table:
        """One row per (chain, metric): mean, std, CV, min, max."""
        rows = []
        for (name, metric), series in sorted(self._series.items()):
            rows.append(
                Table(
                    {
                        "chain": [name],
                        "metric": [metric],
                        "mean": [series.mean()],
                        "std": [series.std()],
                        "cv": [series.coefficient_of_variation()],
                        "min": [series.min()],
                        "max": [series.max()],
                    }
                )
            )
        return concat(rows)

    def ranking(self, metric: str) -> MetricRanking:
        """Rank all chains under one metric."""
        if metric not in self._metrics:
            raise MeasurementError(f"metric {metric!r} was not measured")
        higher_wins = HIGHER_IS_MORE_DECENTRALIZED[metric]
        means = {
            name: self._series[(name, metric)].mean() for name in self._engines
        }
        cvs = {
            name: self._series[(name, metric)].coefficient_of_variation()
            for name in self._engines
        }
        by_level = tuple(
            sorted(means, key=lambda n: means[n], reverse=higher_wins)
        )
        by_stability = tuple(sorted(cvs, key=lambda n: cvs[n]))
        return MetricRanking(metric=metric, by_level=by_level, by_stability=by_stability)

    def rankings(self) -> list[MetricRanking]:
        """Rankings for every measured metric."""
        return [self.ranking(metric) for metric in self._metrics]

    def consensus_most_decentralized(self) -> str:
        """The chain ranked first by the majority of metrics."""
        wins: dict[str, int] = {}
        for ranking in self.rankings():
            leader = ranking.by_level[0]
            wins[leader] = wins.get(leader, 0) + 1
        return max(wins, key=lambda name: wins[name])
