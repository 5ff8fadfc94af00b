"""The chain simulator: parameters in, a 2019 :class:`Chain` out.

Pipeline per simulation:

1. Daily production rates from the chain's difficulty model.
2. Exact per-day block counts (one multinomial over the year).
3. Sorted uniform timestamps within each day.
4. Per-day producer draws: pools (jittered drifting shares) + persistent
   small miners + singleton one-off miners.
5. Anomaly injection: share spikes scale the hashrate schedule before
   drawing; multi-coinbase events append extra payout addresses to chosen
   blocks afterwards.
6. CSR assembly into an immutable :class:`~repro.chain.chain.Chain`.

A prefix of the chain (:meth:`ChainSimulator.run` with ``blocks``) runs
steps 3-6 only through the day that holds its last block.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.chain.chain import Chain
from repro.errors import SimulationError
from repro.simulation.arrivals import allocate_daily_counts, draw_timestamps_for_day
from repro.simulation.difficulty import bitcoin_daily_rates, ethereum_daily_rates
from repro.simulation.hashrate import HashrateSchedule
from repro.simulation.miners import MinerPopulation
from repro.simulation.params import SimulationParams
from repro.util.rng import derive_rng
from repro.util.timeutils import DAYS_IN_2019


class ChainSimulator:
    """Generates one simulated chain from a :class:`SimulationParams`."""

    def __init__(self, params: SimulationParams) -> None:
        self.params = params

    def daily_rates(self) -> np.ndarray:
        """Relative daily block-production rates for the configured chain."""
        spec = self.params.spec
        if spec.name == "bitcoin":
            return bitcoin_daily_rates(
                self.params.seed, target_interval=spec.target_interval
            )
        if spec.name == "ethereum":
            return ethereum_daily_rates(self.params.seed)
        # Generic chain: flat target rate with mild noise.
        rng = derive_rng(self.params.seed, "difficulty/generic")
        base = 86_400.0 / spec.target_interval
        return base * np.exp(rng.normal(0.0, 0.01, size=DAYS_IN_2019))

    def run(self, blocks: int | None = None) -> Chain:
        """Simulate the year and return the chain, or its first ``blocks`` blocks.

        The year's day counts are always drawn whole, one multinomial that
        must sum to ``spec.block_count``; the per-day draws then stop after
        the day that holds block ``blocks``.  Every day draws from the same
        named random streams in day order, so the result equals
        ``run().slice_blocks(0, blocks)`` in heights, timestamps, offsets
        and each block's producer names.  Params with multi-coinbase events
        (the Bitcoin scenario) still draw every day: their extra payout
        addresses are minted and numbered after the whole year's
        singletons.
        """
        params = self.params
        spec = params.spec
        if blocks is not None and blocks <= 0:
            raise SimulationError(f"blocks must be positive, got {blocks}")
        with obs.span("simulate.run", chain=spec.name, seed=params.seed, blocks=blocks):
            with obs.span("simulate.difficulty"):
                rates = self.daily_rates()
            with obs.span("simulate.arrivals"):
                counts = allocate_daily_counts(
                    spec.block_count,
                    rates,
                    derive_rng(params.seed, "arrivals/daily-counts"),
                )
                total = int(counts.sum())
                if total != spec.block_count:
                    raise SimulationError(
                        f"internal error: generated {total} blocks, "
                        f"expected {spec.block_count}"
                    )
            with obs.span("simulate.pool_schedule"):
                schedule = HashrateSchedule(
                    params.registry,
                    seed=params.seed,
                    jitter_sigma=params.jitter_sigma,
                    jitter_phi=params.jitter_phi,
                )
                population = MinerPopulation(
                    prefix=spec.name,
                    registry=params.registry,
                    tail=params.tail,
                    seed=params.seed,
                )
            # The days to draw: through the one holding block ``blocks``.
            n_days = DAYS_IN_2019
            if blocks is not None and not params.multi_coinbase_events:
                n_days = min(int(np.searchsorted(np.cumsum(counts), blocks)) + 1, n_days)
            ts_rng = derive_rng(params.seed, "arrivals/timestamps")
            draw_rng = derive_rng(params.seed, "miners/draws")
            day_timestamps: list[np.ndarray] = []
            day_producers: list[np.ndarray] = []
            with obs.span("simulate.draw_days", days=n_days):
                for day in range(n_days):
                    n_blocks = int(counts[day])
                    timestamps_of_day = draw_timestamps_for_day(day, n_blocks, ts_rng)
                    day_timestamps.append(timestamps_of_day)
                    base_shares = schedule.pool_shares(day)
                    overrides = self._spike_overrides(timestamps_of_day, base_shares)
                    day_producers.append(
                        population.draw_day(
                            day, n_blocks, base_shares, draw_rng,
                            share_overrides=overrides,
                        )
                    )
            with obs.span("simulate.assemble"):
                timestamps = np.concatenate(day_timestamps)
                base_producers = np.concatenate(day_producers)
                heights = spec.start_height + np.arange(
                    base_producers.shape[0], dtype=np.int64
                )
                offsets, producer_ids = self._assemble_credits(
                    base_producers, counts[:n_days], population
                )
                chain = Chain(
                    spec,
                    heights,
                    timestamps,
                    offsets,
                    producer_ids,
                    population.entity_names,
                )
            return chain if blocks is None else chain.slice_blocks(0, blocks)

    def _spike_overrides(
        self, timestamps: np.ndarray, base_shares: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Block-level share overrides for spikes overlapping these blocks.

        Overlapping spikes compound: a block inside two spikes gets both
        factors applied.
        """
        if not self.params.share_spikes or timestamps.shape[0] == 0:
            return []
        masks = []
        for spike in self.params.share_spikes:
            masks.append(
                (timestamps >= spike.start_ts) & (timestamps < spike.end_ts)
            )
        combined = np.zeros(timestamps.shape[0], dtype=bool)
        for mask in masks:
            combined |= mask
        if not combined.any():
            return []
        overrides: list[tuple[np.ndarray, np.ndarray]] = []
        keys = np.zeros(timestamps.shape[0], dtype=np.int64)
        for bit, mask in enumerate(masks):
            keys |= mask.astype(np.int64) << bit
        for key in np.unique(keys[keys > 0]):
            shares = base_shares.copy()
            for bit, spike in enumerate(self.params.share_spikes):
                if key >> bit & 1:
                    shares[self.params.pool_index(spike.pool_name)] *= spike.factor
            overrides.append((keys == key, shares))
        return overrides

    def _assemble_credits(
        self,
        base_producers: np.ndarray,
        daily_counts: np.ndarray,
        population: MinerPopulation,
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR producer layout, with multi-coinbase extras appended."""
        n = base_producers.shape[0]
        day_offsets = np.concatenate(([0], np.cumsum(daily_counts)))
        extras: dict[int, np.ndarray] = {}
        for event in self.params.multi_coinbase_events:
            if event.day >= daily_counts.shape[0] or daily_counts[event.day] == 0:
                raise SimulationError(
                    f"multi-coinbase event on day {event.day} has no blocks to attach to"
                )
            within = int(round(event.position * (daily_counts[event.day] - 1)))
            block = int(day_offsets[event.day]) + within
            new_ids = population.mint_singletons(event.day, event.n_addresses, kind="cbout")
            extras[block] = (
                np.concatenate([extras[block], new_ids]) if block in extras else new_ids
            )
        per_block = np.ones(n, dtype=np.int64)
        for block, ids in extras.items():
            per_block[block] += ids.shape[0]
        offsets = np.concatenate(([0], np.cumsum(per_block)))
        producer_ids = np.empty(int(offsets[-1]), dtype=np.int64)
        producer_ids[offsets[:-1]] = base_producers
        for block, ids in extras.items():
            start = int(offsets[block]) + 1
            producer_ids[start : start + ids.shape[0]] = ids
        return offsets, producer_ids
