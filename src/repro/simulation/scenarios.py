"""Calibrated 2019 scenarios for Bitcoin and Ethereum.

These are the datasets every figure reproduction runs on.  The constants
below were tuned (see EXPERIMENTS.md) so that the per-address-attribution
measurements land in the paper's reported ranges:

* Bitcoin — daily Gini mostly 0.45–0.60 with early-year dips, monthly Gini
  up to ~0.9; daily entropy 3.5–4.0 with early spikes > 5.5; Nakamoto
  stable at 4 mid-year, 4–5 elsewhere, with extreme daily values in the
  first 50 days driven by multi-coinbase blocks.
* Ethereum — Gini ~0.84/0.88/0.92 by granularity, entropy 3.3–3.5,
  Nakamoto oscillating between 2 and 3; everything markedly more stable
  than Bitcoin.
"""

from __future__ import annotations

from repro.chain.chain import Chain
from repro.chain.pools import bitcoin_pools_2019, ethereum_pools_2019
from repro.chain.specs import BITCOIN, ETHEREUM
from repro.simulation.anomalies import MultiCoinbaseEvent, ShareSpike
from repro.simulation.miners import TailConfig
from repro.simulation.params import SimulationParams
from repro.simulation.powsim import ChainSimulator

#: The two anomalous blocks the paper dissects (§II-C1d): Jan 14, 2019,
#: blocks 558,473 and 558,545 with >80 and >90 coinbase addresses.
DAY14_EVENTS = (
    MultiCoinbaseEvent(day=13, position=0.35, n_addresses=84),
    MultiCoinbaseEvent(day=13, position=0.78, n_addresses=95),
)

#: Further early-year multi-coinbase payouts (the paper reports extreme
#: daily values throughout the first ~50 days, not only on day 14).
EARLY_2019_EVENTS = (
    MultiCoinbaseEvent(day=4, position=0.5, n_addresses=52),
    MultiCoinbaseEvent(day=8, position=0.2, n_addresses=34),
    MultiCoinbaseEvent(day=22, position=0.6, n_addresses=67),
    MultiCoinbaseEvent(day=30, position=0.4, n_addresses=41),
    MultiCoinbaseEvent(day=38, position=0.15, n_addresses=73),
    MultiCoinbaseEvent(day=45, position=0.85, n_addresses=48),
)

#: A one-day mining-power consolidation straddling the day-59/60 midnight —
#: the cross-interval event of paper §III-A / Fig. 13.  Each fixed calendar
#: day sees only half of it, while the sliding window aligned with it (index
#: ~119 of the N=144 family) sees it at full strength.
DAY60_CONSOLIDATION = (
    ShareSpike(pool_name="F2Pool", start_day=59.5, n_days=1.0, factor=5.0),
)


def bitcoin_2019_params(seed: int = 2019) -> SimulationParams:
    """Calibrated Bitcoin 2019 simulation parameters."""
    return SimulationParams(
        spec=BITCOIN,
        registry=bitcoin_pools_2019(),
        tail=TailConfig(
            persistent_count=12,
            persistent_share=0.050,
            singleton_rate_early=7.0,
            singleton_rate_late=0.7,
            early_period_end=50,
        ),
        seed=seed,
        jitter_sigma=0.07,
        jitter_phi=0.92,
        multi_coinbase_events=DAY14_EVENTS + EARLY_2019_EVENTS,
        share_spikes=DAY60_CONSOLIDATION,
    )


def ethereum_2019_params(seed: int = 2019) -> SimulationParams:
    """Calibrated Ethereum 2019 simulation parameters."""
    return SimulationParams(
        spec=ETHEREUM,
        registry=ethereum_pools_2019(),
        tail=TailConfig(
            persistent_count=55,
            persistent_share=0.085,
            singleton_rate_early=2.8,
            singleton_rate_late=2.8,
            early_period_end=0,
        ),
        seed=seed,
        jitter_sigma=0.055,
        jitter_phi=0.93,
        multi_coinbase_events=(),
        share_spikes=(),
    )


def simulate_bitcoin_2019(seed: int = 2019, blocks: int | None = None) -> Chain:
    """Simulate the paper's Bitcoin 2019 dataset (54,231 blocks).

    ``blocks`` keeps only the first that many; the whole year is still
    drawn (see :meth:`ChainSimulator.run`).
    """
    return ChainSimulator(bitcoin_2019_params(seed)).run(blocks)


def simulate_ethereum_2019(seed: int = 2019, blocks: int | None = None) -> Chain:
    """Simulate the paper's Ethereum 2019 dataset (2,204,650 blocks).

    ``blocks`` keeps only the first that many, drawing only the days that
    hold them.
    """
    return ChainSimulator(ethereum_2019_params(seed)).run(blocks)
