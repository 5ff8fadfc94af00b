"""Shared fixtures.

The full calibrated chains are expensive enough to build once per session:
``btc_chain`` (54,231 blocks, ~1 s) and ``eth_chain`` (2.2 M blocks, ~6 s)
are session-scoped; most unit tests use the small synthetic chains below
instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chain.chain import Chain
from repro.chain.specs import ChainSpec
from repro.core.engine import MeasurementEngine
from repro.simulation.scenarios import simulate_bitcoin_2019, simulate_ethereum_2019
from repro.util.timeutils import YEAR_2019_START


@pytest.fixture(scope="session")
def btc_chain() -> Chain:
    """The calibrated Bitcoin 2019 dataset."""
    return simulate_bitcoin_2019(seed=2019)


@pytest.fixture(scope="session")
def eth_chain() -> Chain:
    """The calibrated Ethereum 2019 dataset."""
    return simulate_ethereum_2019(seed=2019)


@pytest.fixture(scope="session")
def short_chains(btc_chain: Chain, eth_chain: Chain) -> dict[str, Chain]:
    """Both chains cut short, keyed as ``DecentralizationStudy`` takes them.

    Long enough for every figure's window family (the Ethereum month-sized
    sliding family spans 180,000 blocks), short enough for quick studies.
    """
    return {
        "bitcoin": btc_chain.slice_blocks(0, 9_000),
        "ethereum": eth_chain.slice_blocks(0, 200_000),
    }


@pytest.fixture(scope="session")
def btc_engine(btc_chain: Chain) -> MeasurementEngine:
    return MeasurementEngine.from_chain(btc_chain)


@pytest.fixture(scope="session")
def eth_engine(eth_chain: Chain) -> MeasurementEngine:
    return MeasurementEngine.from_chain(eth_chain)


TINY_SPEC = ChainSpec(
    name="tinychain",
    start_height=1_000,
    block_count=12,
    target_interval=600.0,
    blocks_per_day=144,
    window_day=4,
    window_week=8,
    window_month=12,
)


def make_tiny_chain(
    producers_per_block: list[list[str]],
    start_ts: int = YEAR_2019_START,
    spacing: int = 600,
) -> Chain:
    """Build a small chain with explicit per-block producer lists."""
    n = len(producers_per_block)
    heights = TINY_SPEC.start_height + np.arange(n, dtype=np.int64)
    timestamps = start_ts + spacing * np.arange(n, dtype=np.int64)
    names: list[str] = []
    name_ids: dict[str, int] = {}
    ids: list[int] = []
    offsets = np.zeros(n + 1, dtype=np.int64)
    for i, producers in enumerate(producers_per_block):
        for producer in producers:
            if producer not in name_ids:
                name_ids[producer] = len(names)
                names.append(producer)
            ids.append(name_ids[producer])
        offsets[i + 1] = len(ids)
    spec = ChainSpec(
        name=TINY_SPEC.name,
        start_height=TINY_SPEC.start_height,
        block_count=max(n, 1),
        target_interval=TINY_SPEC.target_interval,
        blocks_per_day=TINY_SPEC.blocks_per_day,
        window_day=TINY_SPEC.window_day,
        window_week=TINY_SPEC.window_week,
        window_month=TINY_SPEC.window_month,
    )
    return Chain(
        spec,
        heights,
        timestamps,
        offsets,
        np.asarray(ids, dtype=np.int64),
        names,
    )


@pytest.fixture
def tiny_chain() -> Chain:
    """Nine blocks: a dominant, b medium, c small, d single multi-coinbase."""
    return make_tiny_chain(
        [
            ["a"],
            ["a"],
            ["b"],
            ["a"],
            ["c"],
            ["a", "x", "y"],
            ["b"],
            ["a"],
            ["c"],
        ]
    )


def assert_series_maps_identical(a, b) -> None:
    """Two label -> MeasurementSeries maps agree down to the array bytes."""
    assert list(a) == list(b)
    for label, series in a.items():
        other = b[label]
        assert series.values.tobytes() == other.values.tobytes(), label
        assert series.indices.tobytes() == other.indices.tobytes(), label
        assert series.labels == other.labels, label
        assert series.skipped == other.skipped, label
        assert series.window_desc == other.window_desc, label
        assert series.chain_name == other.chain_name, label


def assert_chain_studies_identical(a, b) -> None:
    """Two :class:`~repro.analysis.study.ChainStudy` results are identical."""
    assert (a.key, a.name, a.n_blocks, a.start_height, a.end_height, a.n_producers) == (
        b.key, b.name, b.n_blocks, b.start_height, b.end_height, b.n_producers
    )
    assert a.events == b.events
    assert list(a.figures) == list(b.figures)
    for key, figure in a.figures.items():
        other = b.figures[key]
        assert figure.title == other.title, key
        assert figure.notes == other.notes, key
        assert figure.distributions == other.distributions, key
        assert_series_maps_identical(figure.series, other.series)
    assert_series_maps_identical(a.daily, b.daily)
