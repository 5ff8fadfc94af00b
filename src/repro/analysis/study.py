"""The full comparison study (the paper, end to end).

Each chain's half of the study — simulation, attribution, every figure
drawn from that chain alone, its day calendar sweep and the events on it
— is one unit of work, :func:`study_chain`, returning a small picklable
:class:`ChainStudy`.  :class:`DecentralizationStudy` runs the two halves
as two tasks on one :class:`~repro.parallel.WorkerPool` when its
``workers`` resolve to 2 or more, in-process one after the other
otherwise, and renders every figure and finding from the two results.
The paper compares the chains only through summary statistics, so
nothing else crosses between the halves.

The headline findings:

* Bitcoin is **more decentralized** (lower Gini, higher entropy, higher
  Nakamoto coefficient), and
* Ethereum is **more stable** (lower coefficient of variation), under
  every metric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.analysis.events import Event, sweep_events
from repro.analysis.figures import (
    FIGURE_IDS,
    SLIDING_SIZES,
    FigureResult,
    chain_figures,
    figure_8_from_counts,
)
from repro.analysis.stability import StabilityReport, stability_of_sweeps
from repro.chain.chain import Chain
from repro.core.comparison import LevelComparison, compare_level
from repro.core.engine import MeasurementEngine
from repro.core.series import MeasurementSeries
from repro.core.summary import summarize
from repro.errors import MeasurementError, SimulationError
from repro.parallel import WorkerPool, resolve_workers, worker_payload
from repro.simulation.scenarios import simulate_bitcoin_2019, simulate_ethereum_2019
from repro.table import Table, concat

#: Whether a higher value of each paper metric means *more* decentralized.
HIGHER_IS_MORE_DECENTRALIZED = {
    "gini": False,
    "entropy": True,
    "nakamoto": True,
}

#: The paper's three metrics, in the order every sweep measures them.
PAPER_METRICS = tuple(HIGHER_IS_MORE_DECENTRALIZED)

#: The two chains, keyed the way every study method takes them.
CHAINS = ("btc", "eth")


@dataclass(frozen=True)
class StudyFindings:
    """The paper's two headline claims, evaluated on the simulated data."""

    level: tuple[LevelComparison, ...]
    stability: StabilityReport

    @property
    def more_decentralized(self) -> str:
        """Chain winning the majority of per-metric level comparisons."""
        wins: dict[str, int] = {}
        for comparison in self.level:
            wins[comparison.winner] = wins.get(comparison.winner, 0) + 1
        return max(wins, key=lambda chain: wins[chain])

    @property
    def more_stable(self) -> str:
        """Chain winning the majority of stability comparisons."""
        return self.stability.overall_winner


@dataclass(frozen=True)
class ChainStudy:
    """One chain's half of the study: everything rendered from that chain.

    Series and scalars only — neither the chain nor its credits — so a
    pool worker ships it back in well under a megabyte.
    """

    key: str
    #: The dataset row: chain name, block count, height range, producers.
    name: str
    n_blocks: int
    start_height: int
    end_height: int
    n_producers: int
    #: Every figure drawn from this chain alone, in paper order.
    figures: dict[str, FigureResult]
    #: The day calendar sweep of :data:`PAPER_METRICS`, shared by the
    #: findings, the stability comparison, the anomaly scan and the events.
    daily: dict[str, MeasurementSeries]
    #: Outliers and shifts on the day sweep, in time order.
    events: tuple[Event, ...]


def _simulate(which: str, seed: int, blocks: int | None = None) -> Chain:
    if which == "btc":
        return simulate_bitcoin_2019(seed=seed, blocks=blocks)
    return simulate_ethereum_2019(seed=seed, blocks=blocks)


def study_chain(
    which: str,
    seed: int = 2019,
    policy: str = "per-address",
    chain: Chain | None = None,
) -> ChainStudy:
    """Chain ``which``'s half of the study, as one unit of work.

    Simulates the chain from ``seed`` unless ``chain`` is given,
    attributes it under ``policy``, and measures every figure drawn from
    it alone, its day sweep and the events on that sweep.
    """
    if chain is None:
        chain = _simulate(which, seed)
    engine = MeasurementEngine.from_chain(chain, policy=policy)
    daily = engine.measure_calendar_many(PAPER_METRICS, "day")
    return ChainStudy(
        key=which,
        name=chain.spec.name,
        n_blocks=chain.n_blocks,
        start_height=chain.start_height,
        end_height=chain.end_height,
        n_producers=chain.n_producers,
        figures=chain_figures(engine, which),
        daily=daily,
        events=tuple(sweep_events(daily)),
    )


def _study_chain_task(which: str, seed: int, policy: str) -> ChainStudy:
    """Pool task: :func:`study_chain` over the payload's chain, if supplied."""
    return study_chain(which, seed, policy, worker_payload()[which])


class DecentralizationStudy:
    """Owns the datasets and produces every figure and finding.

    ``workers`` (``"auto"``, ``None`` or an int) decides how the two
    chains' halves run: 2 or more fans them out on one two-worker pool,
    1 runs them in-process.  Either way the results are identical.
    """

    def __init__(
        self,
        bitcoin: Chain | None = None,
        ethereum: Chain | None = None,
        seed: int = 2019,
        policy: str = "per-address",
        workers: int | str | None = "auto",
    ) -> None:
        self._seed = seed
        self._policy = policy
        self._workers = resolve_workers(workers)
        self._chains: dict[str, Chain | None] = {"btc": bitcoin, "eth": ethereum}
        self._engines: dict[str, MeasurementEngine] = {}
        self._results: dict[str, ChainStudy] = {}

    # -- data access -----------------------------------------------------------

    def chain(self, which: str, blocks: int | None = None) -> Chain:
        """The Bitcoin (``"btc"``) or Ethereum (``"eth"``) dataset.

        ``blocks`` asks for its first that many blocks only.  A study that
        holds the dataset slices it; otherwise only the days holding those
        blocks are simulated (Bitcoin still draws its year: its
        multi-coinbase payout addresses are numbered after the year's
        singletons).  A prefix is never kept as the dataset.
        """
        if which not in self._chains:
            raise MeasurementError(f"unknown chain {which!r}; use 'btc' or 'eth'")
        if blocks is not None and blocks <= 0:
            raise SimulationError(f"blocks must be positive, got {blocks}")
        held = self._chains[which]
        if held is not None:
            return held if blocks is None else held.slice_blocks(0, blocks)
        chain = _simulate(which, self._seed, blocks)
        if blocks is None:
            self._chains[which] = chain
        return chain

    def engine(self, which: str) -> MeasurementEngine:
        """A cached measurement engine for one chain."""
        if which not in self._engines:
            self._engines[which] = MeasurementEngine.from_chain(
                self.chain(which), policy=self._policy
            )
        return self._engines[which]

    # -- the two halves ----------------------------------------------------------

    def chain_results(self) -> dict[str, ChainStudy]:
        """Both chains' halves of the study, each computed once.

        When neither half exists yet and ``workers`` resolves to 2 or
        more, they run as two tasks on one :class:`WorkerPool`; the chains
        this study holds (supplied or already simulated) travel as the
        pool payload, and a worker simulates a chain the study lacks.
        """
        return self._compute(CHAINS)

    def _compute(self, wanted: tuple[str, ...]) -> dict[str, ChainStudy]:
        """The halves of the ``wanted`` chains; only two missing ones fan out."""
        missing = [which for which in wanted if which not in self._results]
        if missing:
            fan_out = self._workers >= 2 and len(missing) == 2
            with obs.span(
                "study.chains",
                chains=missing,
                mode="fan-out" if fan_out else "serial",
                workers=self._workers,
            ):
                if fan_out:
                    with WorkerPool(2, payload=dict(self._chains)) as pool:
                        halves = pool.map_shards(
                            _study_chain_task,
                            [(which, self._seed, self._policy) for which in missing],
                        )
                else:
                    halves = [
                        study_chain(which, self._seed, self._policy, self._chains[which])
                        for which in missing
                    ]
            self._results.update(zip(missing, halves))
        return {which: self._results[which] for which in wanted}

    # -- figures ------------------------------------------------------------------

    def figure(self, figure_id: int | str) -> FigureResult:
        """Generate one figure by id (``9`` or ``"fig9"``)."""
        key = f"fig{figure_id}" if isinstance(figure_id, int) else figure_id
        if key not in FIGURE_IDS:
            raise MeasurementError(
                f"unknown figure {figure_id!r}; available: {sorted(FIGURE_IDS)}"
            )
        _, needs = FIGURE_IDS[key]
        halves = self._compute(needs)
        if len(needs) == 1:
            return halves[needs[0]].figures[key]
        # Fig. 8: both chains' block counts.
        return figure_8_from_counts(halves["btc"].n_blocks, halves["eth"].n_blocks)

    def all_figures(self) -> list[FigureResult]:
        """Every figure of the paper, in order, from the two halves."""
        self.chain_results()
        return [self.figure(key) for key in FIGURE_IDS]

    # -- findings ------------------------------------------------------------------

    def findings(self, granularity: str = "day") -> StudyFindings:
        """Evaluate the paper's headline claims at ``granularity``.

        The day findings reuse the halves' shared day sweeps; any other
        granularity is measured in-process.
        """
        if granularity == "day":
            halves = self.chain_results()
            sweep_btc, sweep_eth = halves["btc"].daily, halves["eth"].daily
        else:
            sweep_btc, sweep_eth = (
                self.engine(which).measure_calendar_many(PAPER_METRICS, granularity)
                for which in CHAINS
            )
        level = [
            compare_level(sweep_btc[metric], sweep_eth[metric], higher)
            for metric, higher in HIGHER_IS_MORE_DECENTRALIZED.items()
        ]
        return StudyFindings(
            level=tuple(level), stability=stability_of_sweeps(sweep_btc, sweep_eth)
        )

    def summary_table(self) -> Table:
        """One row per (chain, metric, window family) with summary stats.

        Each window family is swept once for all three paper metrics.
        """
        rows = []
        for which in CHAINS:
            engine = self.engine(which)
            sizes = SLIDING_SIZES[which]
            calendar = {
                granularity: engine.measure_calendar_many(PAPER_METRICS, granularity)
                for granularity in ("day", "week", "month")
            }
            sliding = {
                size: engine.measure_sliding_many(PAPER_METRICS, size) for size in sizes
            }
            for metric in PAPER_METRICS:
                for granularity in ("day", "week", "month"):
                    rows.append(_summary_row(calendar[granularity][metric]))
                for size in sizes:
                    rows.append(_summary_row(sliding[size][metric]))
        return concat(rows)


def _summary_row(series) -> Table:
    summary = summarize(series)
    record = summary.as_dict()
    return Table({key: [value] for key, value in record.items()})
