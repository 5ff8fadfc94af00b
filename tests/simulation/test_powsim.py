"""Tests for the end-to-end chain simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.chain.pools import PoolInfo, PoolRegistry
from repro.chain.specs import ChainSpec
from repro.errors import SimulationError
from repro.simulation.anomalies import MultiCoinbaseEvent, ShareSpike
from repro.simulation.miners import TailConfig
from repro.simulation.params import SimulationParams
from repro.simulation.powsim import ChainSimulator
from repro.simulation.scenarios import simulate_bitcoin_2019, simulate_ethereum_2019
from repro.util.timeutils import SECONDS_PER_DAY, YEAR_2019_END, YEAR_2019_START

SMALL_SPEC = ChainSpec(
    name="smallchain",
    start_height=100_000,
    block_count=3_650,  # ~10 blocks/day
    target_interval=8_640.0,
    blocks_per_day=10,
    window_day=10,
    window_week=70,
    window_month=300,
)


def make_params(**overrides) -> SimulationParams:
    registry = PoolRegistry(
        [
            PoolInfo("A", "addr-a", 0.40, 0.40),
            PoolInfo("B", "addr-b", 0.30, 0.30),
            PoolInfo("C", "addr-c", 0.20, 0.20),
        ]
    )
    config = dict(
        spec=SMALL_SPEC,
        registry=registry,
        tail=TailConfig(2, 0.05, 1.0, 1.0, early_period_end=0),
        seed=11,
    )
    config.update(overrides)
    return SimulationParams(**config)


class TestBasicSimulation:
    def test_exact_block_count_and_heights(self):
        chain = ChainSimulator(make_params()).run()
        assert chain.n_blocks == 3_650
        assert chain.start_height == 100_000
        assert chain.end_height == 100_000 + 3_650 - 1

    def test_timestamps_within_2019_and_sorted(self):
        chain = ChainSimulator(make_params()).run()
        assert chain.timestamps[0] >= YEAR_2019_START
        assert chain.timestamps[-1] < YEAR_2019_END
        assert np.all(np.diff(chain.timestamps) >= 0)

    def test_deterministic_per_seed(self):
        a = ChainSimulator(make_params(seed=3)).run()
        b = ChainSimulator(make_params(seed=3)).run()
        assert np.array_equal(a.producer_ids, b.producer_ids)
        assert np.array_equal(a.timestamps, b.timestamps)

    def test_different_seeds_differ(self):
        a = ChainSimulator(make_params(seed=3)).run()
        b = ChainSimulator(make_params(seed=4)).run()
        assert not np.array_equal(a.producer_ids, b.producer_ids)

    def test_pool_shares_approximately_reproduced(self):
        chain = ChainSimulator(make_params()).run()
        first = chain.producer_ids[chain.offsets[:-1]]
        share_a = (first == 0).mean()
        assert share_a == pytest.approx(0.40 / 0.95, abs=0.04)

    def test_generic_chain_daily_rates(self):
        rates = ChainSimulator(make_params()).daily_rates()
        assert rates.shape == (365,)
        assert rates.mean() == pytest.approx(10.0, rel=0.05)


class TestMultiCoinbaseInjection:
    def test_event_creates_multi_producer_block(self):
        params = make_params(
            multi_coinbase_events=(
                MultiCoinbaseEvent(day=50, position=0.5, n_addresses=30),
            )
        )
        chain = ChainSimulator(params).run()
        anomalous = chain.anomalous_blocks(threshold=10)
        assert len(anomalous) == 1
        assert anomalous[0].producer_count == 31

    def test_extra_addresses_are_fresh(self):
        params = make_params(
            multi_coinbase_events=(
                MultiCoinbaseEvent(day=50, position=0.5, n_addresses=5),
            )
        )
        chain = ChainSimulator(params).run()
        block = chain.anomalous_blocks(threshold=5)[0]
        assert len(set(block.producers)) == block.producer_count
        assert sum("cbout" in p for p in block.producers) == 5

    def test_two_events_same_day(self):
        params = make_params(
            multi_coinbase_events=(
                MultiCoinbaseEvent(day=13, position=0.3, n_addresses=10),
                MultiCoinbaseEvent(day=13, position=0.8, n_addresses=20),
            )
        )
        chain = ChainSimulator(params).run()
        assert len(chain.anomalous_blocks(threshold=10)) == 2

    def test_credit_count_includes_extras(self):
        params = make_params(
            multi_coinbase_events=(
                MultiCoinbaseEvent(day=10, position=0.0, n_addresses=7),
            )
        )
        chain = ChainSimulator(params).run()
        assert chain.n_credits == chain.n_blocks + 7


class TestShareSpikes:
    def test_spike_shifts_distribution_in_window(self):
        params = make_params(
            spec=ChainSpec("smallchain", 0, 36_500, 864.0, 100, 100, 700, 3_000),
            share_spikes=(ShareSpike("C", start_day=100.0, n_days=10.0, factor=8.0),),
        )
        chain = ChainSimulator(params).run()
        spiked = chain.slice_by_time(
            YEAR_2019_START + 100 * 86_400, YEAR_2019_START + 110 * 86_400
        )
        normal = chain.slice_by_time(
            YEAR_2019_START + 150 * 86_400, YEAR_2019_START + 160 * 86_400
        )
        share_spiked = (spiked.producer_ids[spiked.offsets[:-1]] == 2).mean()
        share_normal = (normal.producer_ids[normal.offsets[:-1]] == 2).mean()
        assert share_spiked > 2.5 * share_normal

    def test_sub_day_spike_only_hits_matching_timestamps(self):
        params = make_params(
            spec=ChainSpec("smallchain", 0, 36_500, 864.0, 100, 100, 700, 3_000),
            share_spikes=(ShareSpike("C", start_day=100.5, n_days=0.5, factor=20.0),),
        )
        chain = ChainSimulator(params).run()
        first_half = chain.slice_by_time(
            YEAR_2019_START + 100 * 86_400, YEAR_2019_START + 100 * 86_400 + 43_200
        )
        second_half = chain.slice_by_time(
            YEAR_2019_START + 100 * 86_400 + 43_200, YEAR_2019_START + 101 * 86_400
        )
        share_first = (first_half.producer_ids[first_half.offsets[:-1]] == 2).mean()
        share_second = (second_half.producer_ids[second_half.offsets[:-1]] == 2).mean()
        assert share_second > 2 * share_first

    def test_unknown_spike_pool_rejected(self):
        with pytest.raises(SimulationError):
            make_params(share_spikes=(ShareSpike("Nope", 1.0, 1.0, 2.0),))


class TestParamsValidation:
    def test_empty_registry_rejected(self):
        with pytest.raises(SimulationError):
            make_params(registry=PoolRegistry())

    def test_pool_index_lookup(self):
        params = make_params()
        assert params.pool_index("B") == 1
        with pytest.raises(SimulationError):
            params.pool_index("Nope")


def assert_prefix_of(prefix, year, k):
    """``prefix`` is ``year.slice_blocks(0, k)``, producers compared by name."""
    expected = year.slice_blocks(0, k)
    assert np.array_equal(prefix.heights, expected.heights)
    assert np.array_equal(prefix.timestamps, expected.timestamps)
    assert np.array_equal(prefix.offsets, expected.offsets)
    assert [prefix.producer_names[i] for i in prefix.producer_ids] == [
        expected.producer_names[i] for i in expected.producer_ids
    ]


#: Params overrides for each kind of scenario a prefix must reproduce.
PREFIX_SCENARIOS = {
    "plain": {},
    "share-spike": {
        "share_spikes": (ShareSpike("C", start_day=40.5, n_days=2.0, factor=8.0),),
    },
    "multi-coinbase": {
        "multi_coinbase_events": (
            MultiCoinbaseEvent(day=50, position=0.5, n_addresses=30),
        ),
    },
}


class TestPrefix:
    """``run(blocks=k)`` is the year's first ``k`` blocks."""

    @pytest.mark.parametrize("scenario", sorted(PREFIX_SCENARIOS))
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), day=st.integers(0, 363))
    def test_prefix_equals_slice_of_the_year(self, scenario, seed, day):
        params = make_params(seed=seed, **PREFIX_SCENARIOS[scenario])
        year = ChainSimulator(params).run()
        n = year.n_blocks
        day_of_block = (year.timestamps - YEAR_2019_START) // SECONDS_PER_DAY
        # Blocks through ``day``: its last block, then the next day's first.
        through_day = int(np.searchsorted(day_of_block, day, side="right"))
        # A block inside the year's last day, however many blocks it holds.
        inside_last_day = (int(np.searchsorted(day_of_block, 364)) + 1 + n) // 2
        for k in (1, through_day, through_day + 1, inside_last_day, n - 1, n, n + 1):
            if k < 1:
                continue
            assert_prefix_of(ChainSimulator(params).run(blocks=k), year, k)

    def test_ethereum_benchmark_prefix(self):
        year = simulate_ethereum_2019(seed=1)
        prefix = simulate_ethereum_2019(seed=1, blocks=80_000)
        assert prefix.n_blocks == 80_000
        assert_prefix_of(prefix, year, 80_000)

    def test_prefix_counts_the_producers_it_credits(self):
        simulated = simulate_ethereum_2019(seed=1, blocks=80_000)
        sliced = simulate_ethereum_2019(seed=1).slice_blocks(0, 80_000)
        # The two name tables differ (116 and 1,082 names); the blocks do not.
        assert len(simulated.producer_names) < len(sliced.producer_names)
        assert simulated.n_producers == sliced.n_producers == 111

    @pytest.mark.parametrize("blocks", [0, -1])
    def test_non_positive_blocks_rejected(self, blocks):
        with pytest.raises(SimulationError, match="blocks must be positive"):
            ChainSimulator(make_params()).run(blocks=blocks)

    def test_trace_shows_the_days_drawn(self):
        tracer = obs.enable_tracing()
        try:
            simulate_ethereum_2019(seed=1, blocks=80_000)
            simulate_ethereum_2019(seed=1)
            simulate_bitcoin_2019(seed=1, blocks=500)
        finally:
            obs.disable_tracing()
        runs = sorted(
            (s for s in tracer.spans if s.name == "simulate.run"), key=lambda s: s.start
        )
        draws = sorted(
            (s for s in tracer.spans if s.name == "simulate.draw_days"),
            key=lambda s: s.start,
        )
        assert [(s.attrs["chain"], s.attrs["blocks"]) for s in runs] == [
            ("ethereum", 80_000), ("ethereum", None), ("bitcoin", 500),
        ]
        # Bitcoin's multi-coinbase events keep its whole year.
        assert [s.attrs["days"] for s in draws] == [15, 365, 365]
