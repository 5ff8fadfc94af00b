"""Per-day pool hashrate shares.

Pools declare start/end-of-year shares (:class:`~repro.chain.pools.PoolInfo`);
the schedule linearly interpolates them and overlays a persistent AR(1)
multiplicative jitter so that shares wander on a multi-day timescale (real
pool shares drift as farms come online and miners switch pools) instead of
flickering independently every day.
"""

from __future__ import annotations

import numpy as np

from repro.chain.pools import PoolRegistry
from repro.errors import SimulationError
from repro.util.rng import derive_rng
from repro.util.timeutils import DAYS_IN_2019


class HashrateSchedule:
    """Daily (unnormalized) hashrate shares for a pool registry."""

    def __init__(
        self,
        registry: PoolRegistry,
        seed: int,
        jitter_sigma: float = 0.10,
        jitter_phi: float = 0.92,
    ) -> None:
        if not 0.0 <= jitter_phi < 1.0:
            raise SimulationError(f"jitter_phi must be in [0, 1), got {jitter_phi}")
        if jitter_sigma < 0:
            raise SimulationError(f"jitter_sigma must be >= 0, got {jitter_sigma}")
        self.registry = registry
        self.n_days = n_days = DAYS_IN_2019
        pools = registry.pools
        if not pools:
            raise SimulationError("hashrate schedule needs at least one pool")
        base = np.empty((n_days, len(pools)), dtype=np.float64)
        for j, pool in enumerate(pools):
            base[:, j] = [pool.share_on_day(day, n_days) for day in range(n_days)]
        noise = self._ar1_noise(
            derive_rng(seed, "hashrate/jitter"), n_days, len(pools), jitter_sigma, jitter_phi
        )
        self._shares = base * np.exp(noise)

    @staticmethod
    def _ar1_noise(
        rng: np.random.Generator, n_days: int, n_pools: int, sigma: float, phi: float
    ) -> np.ndarray:
        """AR(1) log-noise with stationary standard deviation ``sigma``."""
        if sigma == 0.0:
            return np.zeros((n_days, n_pools))
        innovation_sigma = sigma * np.sqrt(1.0 - phi * phi)
        noise = np.empty((n_days, n_pools), dtype=np.float64)
        noise[0] = rng.normal(0.0, sigma, size=n_pools)
        shocks = rng.normal(0.0, innovation_sigma, size=(n_days - 1, n_pools))
        for day in range(1, n_days):
            noise[day] = phi * noise[day - 1] + shocks[day - 1]
        return noise

    @property
    def n_pools(self) -> int:
        """Number of pools in the schedule."""
        return self._shares.shape[1]

    def pool_shares(self, day: int) -> np.ndarray:
        """Unnormalized pool shares on 0-based ``day``."""
        if not 0 <= day < self.n_days:
            raise SimulationError(f"day must be in [0, {self.n_days}), got {day}")
        return self._shares[day].copy()

    def all_shares(self) -> np.ndarray:
        """The full ``(n_days, n_pools)`` share matrix (copy)."""
        return self._shares.copy()

    def scale_pool(self, pool_index: int, start_day: int, n_days: int, factor: float) -> None:
        """Multiply one pool's share by ``factor`` for a run of days.

        Used by :class:`~repro.simulation.anomalies.ShareSpike` to create
        the cross-interval consolidation events the sliding-window analysis
        is designed to catch.
        """
        if factor <= 0:
            raise SimulationError(f"factor must be positive, got {factor}")
        if not 0 <= pool_index < self.n_pools:
            raise SimulationError(f"pool_index {pool_index} out of range")
        stop = min(start_day + n_days, self.n_days)
        start = max(start_day, 0)
        if start >= stop:
            raise SimulationError(
                f"spike days [{start_day}, {start_day + n_days}) fall outside the year"
            )
        self._shares[start:stop, pool_index] *= factor
