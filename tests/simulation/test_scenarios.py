"""Tests for the calibrated 2019 scenarios (dataset-shape checks)."""

import numpy as np
import pytest

from repro.chain.specs import BITCOIN, ETHEREUM
from repro.simulation.scenarios import (
    DAY14_EVENTS,
    bitcoin_2019_params,
    ethereum_2019_params,
)
from repro.util.timeutils import YEAR_2019_END, YEAR_2019_START, day_index


class TestBitcoinDataset:
    def test_exact_paper_block_count(self, btc_chain):
        assert btc_chain.n_blocks == 54_231
        assert btc_chain.start_height == 556_459

    def test_timestamps_cover_2019(self, btc_chain):
        assert day_index(int(btc_chain.timestamps[0])) == 0
        assert day_index(int(btc_chain.timestamps[-1])) == 364

    def test_day14_anomalous_blocks_present(self, btc_chain):
        """The paper's blocks 558,473/558,545 with >80/>90 producers."""
        anomalous = btc_chain.anomalous_blocks(threshold=80)
        day14 = [b for b in anomalous if day_index(b.timestamp) == 13]
        assert len(day14) == 2
        counts = sorted(b.producer_count for b in day14)
        assert counts[0] > 80
        assert counts[1] > 90

    def test_early_year_has_more_unique_producers_per_day(self, btc_chain):
        """The fragmented early-2019 regime (paper: first 50 days)."""
        early = btc_chain.slice_by_time(
            YEAR_2019_START, YEAR_2019_START + 40 * 86_400
        )
        late = btc_chain.slice_by_time(
            YEAR_2019_START + 200 * 86_400, YEAR_2019_START + 240 * 86_400
        )
        early_unique = len(set(early.producer_ids.tolist()))
        late_unique = len(set(late.producer_ids.tolist()))
        assert early_unique > 1.5 * late_unique

    def test_average_daily_rate_near_144(self, btc_chain):
        assert btc_chain.n_blocks / 365 == pytest.approx(148.6, abs=1.0)


class TestEthereumDataset:
    def test_exact_paper_block_count(self, eth_chain):
        assert eth_chain.n_blocks == 2_204_650
        assert eth_chain.start_height == 6_988_615

    def test_single_producer_blocks(self, eth_chain):
        assert eth_chain.n_credits == eth_chain.n_blocks

    def test_difficulty_bomb_dip_in_daily_counts(self, eth_chain):
        days = np.asarray(day_index(eth_chain.timestamps))
        counts = np.bincount(days, minlength=365)
        assert counts[40:58].mean() < 0.8 * counts[90:150].mean()

    def test_no_multi_coinbase_anomalies(self):
        assert ethereum_2019_params().multi_coinbase_events == ()


class TestScenarioParams:
    def test_day14_events_match_paper(self):
        assert [e.n_addresses for e in DAY14_EVENTS] == [84, 95]
        assert all(e.day == 13 for e in DAY14_EVENTS)

    def test_specs_used(self):
        assert bitcoin_2019_params().spec is BITCOIN
        assert ethereum_2019_params().spec is ETHEREUM

    def test_seeds_flow_through(self):
        assert bitcoin_2019_params(seed=7).seed == 7
