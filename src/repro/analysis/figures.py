"""Per-figure data generators.

Each ``figure_N`` function reproduces the data behind one figure of the
paper as a :class:`FigureResult`: the plotted series keyed by their legend
labels, plus the named statistics the paper quotes in prose (means,
extreme counts, window counts).  The benchmark for figure N calls the
matching generator and asserts its shape against the paper's claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Final

from repro.analysis.distribution import DistributionSlice, producer_shares
from repro.chain.pools import bitcoin_pools_2019
from repro.core.engine import MeasurementEngine
from repro.core.series import MeasurementSeries
from repro.errors import MeasurementError
from repro.util.timeutils import parse_iso_date
from repro.windows.base import TimeWindow
from repro.windows.fixed import FixedCalendarWindows
from repro.windows.sliding import sliding_window_count

GRANULARITIES: Final = ("day", "week", "month")

#: The paper's sliding window sizes N per chain (step M = N/2): one day,
#: one week and one month of blocks.
SLIDING_SIZES: Final[dict[str, tuple[int, int, int]]] = {
    "btc": (144, 1008, 4320),
    "eth": (6000, 42000, 180000),
}

#: Per chain: legend name and the sliding figure of each paper metric.
_SLIDING_PLANS: Final = {
    "btc": ("Bitcoin", {"entropy": "fig9", "gini": "fig11", "nakamoto": "fig13"}),
    "eth": ("Ethereum", {"entropy": "fig10", "gini": "fig12", "nakamoto": "fig14"}),
}


@dataclass(frozen=True)
class FigureResult:
    """The data behind one figure of the paper."""

    figure_id: str
    title: str
    #: Plotted series keyed by legend label (empty for Figs. 7 and 8).
    series: dict[str, MeasurementSeries] = field(default_factory=dict)
    #: Named scalar statistics the paper quotes for this figure.
    notes: dict[str, float] = field(default_factory=dict)
    #: Fig. 7 only: the two producer-share distributions.
    distributions: tuple[DistributionSlice, ...] = ()

    def series_or_raise(self, label: str) -> MeasurementSeries:
        """Fetch a series by legend label with a helpful error."""
        try:
            return self.series[label]
        except KeyError:
            raise MeasurementError(
                f"figure {self.figure_id} has no series {label!r}; "
                f"available: {sorted(self.series)}"
            ) from None


def _fixed_figure(
    engine: MeasurementEngine, metric: str, figure_id: str, chain_label: str
) -> FigureResult:
    series = {
        granularity: engine.measure_calendar(metric, granularity)
        for granularity in GRANULARITIES
    }
    notes = {
        f"mean_{granularity}": series[granularity].mean()
        for granularity in GRANULARITIES
    }
    return FigureResult(
        figure_id=figure_id,
        title=f"{metric} measured in {chain_label} using fixed windows",
        series=series,
        notes=notes,
    )


def chain_sliding_suite(engine: MeasurementEngine, which: str) -> dict[str, FigureResult]:
    """One chain's sliding figures (Figs. 9/11/13 or 10/12/14), one sweep per size.

    Each window size is measured once with
    :meth:`MeasurementEngine.measure_sliding_many`, evaluating all three
    paper metrics over one set of histograms.  This is the only builder of
    the sliding figures; ``figure_9`` ... ``figure_14`` pick from it.
    """
    chain_label, figure_of = _SLIDING_PLANS[which]
    sizes = SLIDING_SIZES[which]
    per_metric: dict[str, dict[str, MeasurementSeries]] = {
        metric: {} for metric in figure_of
    }
    for size in sizes:
        sweep = engine.measure_sliding_many(tuple(figure_of), size)
        for metric, series in sweep.items():
            per_metric[metric][f"N={size}"] = series
    return {
        figure_id: FigureResult(
            figure_id=figure_id,
            title=f"{metric} measured in {chain_label} using sliding windows",
            series=per_metric[metric],
            notes={
                f"mean_N={size}": per_metric[metric][f"N={size}"].mean()
                for size in sizes
            },
        )
        for metric, figure_id in figure_of.items()
    }


def chain_figures(engine: MeasurementEngine, which: str) -> dict[str, FigureResult]:
    """Every figure drawn from chain ``which`` alone, in paper order.

    That is all of them but Fig. 8, which needs both chains' block counts
    (:func:`figure_8_from_counts`).  The sliding figures come from
    :func:`chain_sliding_suite`.
    """
    sliding = chain_sliding_suite(engine, which)
    return {
        key: sliding[key] if key in sliding else generator(engine)
        for key, (generator, needs) in FIGURE_IDS.items()
        if needs == (which,)
    }


def figure_1(btc: MeasurementEngine) -> FigureResult:
    """Fig. 1: Gini coefficient in Bitcoin, fixed windows."""
    return _fixed_figure(btc, "gini", "fig1", "Bitcoin")


def figure_2(btc: MeasurementEngine) -> FigureResult:
    """Fig. 2: Shannon entropy in Bitcoin, fixed windows."""
    return _fixed_figure(btc, "entropy", "fig2", "Bitcoin")


def figure_3(btc: MeasurementEngine) -> FigureResult:
    """Fig. 3: Nakamoto coefficient in Bitcoin, fixed windows."""
    return _fixed_figure(btc, "nakamoto", "fig3", "Bitcoin")


def figure_4(eth: MeasurementEngine) -> FigureResult:
    """Fig. 4: Gini coefficient in Ethereum, fixed windows."""
    return _fixed_figure(eth, "gini", "fig4", "Ethereum")


def figure_5(eth: MeasurementEngine) -> FigureResult:
    """Fig. 5: Shannon entropy in Ethereum, fixed windows."""
    return _fixed_figure(eth, "entropy", "fig5", "Ethereum")


def figure_6(eth: MeasurementEngine) -> FigureResult:
    """Fig. 6: Nakamoto coefficient in Ethereum, fixed windows."""
    return _fixed_figure(eth, "nakamoto", "fig6", "Ethereum")


def figure_7(btc: MeasurementEngine, top_k: int = 8) -> FigureResult:
    """Fig. 7: Bitcoin producer shares on 2019-12-07 vs December 2019."""
    day = parse_iso_date("2019-12-07")
    day_windows = FixedCalendarWindows("day").generate()
    month_windows = FixedCalendarWindows("month").generate()
    day_window: TimeWindow = day_windows[day]
    december: TimeWindow = month_windows[11]
    labeler = bitcoin_pools_2019().pool_of
    day_slice = producer_shares(btc, day_window, top_k=top_k, labeler=labeler)
    month_slice = producer_shares(btc, december, top_k=top_k, labeler=labeler)
    return FigureResult(
        figure_id="fig7",
        title="Distribution of blocks produced in Bitcoin within a day and a month",
        distributions=(day_slice, month_slice),
        notes={
            "day_producers": float(day_slice.n_producers),
            "month_producers": float(month_slice.n_producers),
            "day_top_share": sum(s for _, s in day_slice.top),
            "month_top_share": sum(s for _, s in month_slice.top),
        },
    )


def figure_8(btc: MeasurementEngine, eth: MeasurementEngine) -> FigureResult:
    """Fig. 8: sliding-window mechanics — Eq. 5 window counts and overlaps."""
    return figure_8_from_counts(btc.credits.n_blocks, eth.credits.n_blocks)


def figure_8_from_counts(btc_blocks: int, eth_blocks: int) -> FigureResult:
    """Fig. 8 from the two chains' block counts alone."""
    notes: dict[str, float] = {}
    for label, total in (("btc", btc_blocks), ("eth", eth_blocks)):
        for size in SLIDING_SIZES[label]:
            step = size // 2
            notes[f"{label}_L_N={size}"] = float(
                sliding_window_count(total, size, step)
            )
            notes[f"{label}_overlap_N={size}"] = float(size - step)
    return FigureResult(
        figure_id="fig8",
        title="Sliding window mechanics (Eq. 5)",
        notes=notes,
    )


def figure_9(btc: MeasurementEngine) -> FigureResult:
    """Fig. 9: Shannon entropy in Bitcoin, sliding windows."""
    return chain_sliding_suite(btc, "btc")["fig9"]


def figure_10(eth: MeasurementEngine) -> FigureResult:
    """Fig. 10: Shannon entropy in Ethereum, sliding windows."""
    return chain_sliding_suite(eth, "eth")["fig10"]


def figure_11(btc: MeasurementEngine) -> FigureResult:
    """Fig. 11: Gini coefficient in Bitcoin, sliding windows."""
    return chain_sliding_suite(btc, "btc")["fig11"]


def figure_12(eth: MeasurementEngine) -> FigureResult:
    """Fig. 12: Gini coefficient in Ethereum, sliding windows."""
    return chain_sliding_suite(eth, "eth")["fig12"]


def figure_13(btc: MeasurementEngine) -> FigureResult:
    """Fig. 13: Nakamoto coefficient in Bitcoin, sliding windows."""
    return chain_sliding_suite(btc, "btc")["fig13"]


def figure_14(eth: MeasurementEngine) -> FigureResult:
    """Fig. 14: Nakamoto coefficient in Ethereum, sliding windows."""
    return chain_sliding_suite(eth, "eth")["fig14"]


#: Figure ids in paper order, mapped to (generator, required engines).
FIGURE_IDS: Final[dict[str, tuple[Callable[..., FigureResult], tuple[str, ...]]]] = {
    "fig1": (figure_1, ("btc",)),
    "fig2": (figure_2, ("btc",)),
    "fig3": (figure_3, ("btc",)),
    "fig4": (figure_4, ("eth",)),
    "fig5": (figure_5, ("eth",)),
    "fig6": (figure_6, ("eth",)),
    "fig7": (figure_7, ("btc",)),
    "fig8": (figure_8, ("btc", "eth")),
    "fig9": (figure_9, ("btc",)),
    "fig10": (figure_10, ("eth",)),
    "fig11": (figure_11, ("btc",)),
    "fig12": (figure_12, ("eth",)),
    "fig13": (figure_13, ("btc",)),
    "fig14": (figure_14, ("eth",)),
}
