"""Block-production-rate models with difficulty adjustment.

The paper's windows are sized from nominal production rates (144 and 6,000
blocks/day) but the real 2019 chains deviated from them day to day.  Two
models reproduce that texture:

* **Bitcoin** retargets difficulty every 2,016 blocks.  When network
  hashrate grows mid-epoch, blocks arrive faster than one per 10 minutes
  until the retarget catches up.  We simulate the epoch mechanism against
  a 2019-shaped hashrate curve (~40 EH/s in January to ~95 EH/s in
  autumn).
* **Ethereum** retargets every block, so its rate tracks the target
  closely — except for the difficulty-bomb slowdown in January–February
  2019 that the Constantinople hard fork (Feb 28) removed, which we model
  directly in the rate curve.

Both functions return a length-365 array of *relative* daily rates that
callers scale to the exact dataset block count.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.util.rng import derive_rng
from repro.util.timeutils import DAYS_IN_2019

#: (day, EH/s) control points approximating Bitcoin's 2019 hashrate growth.
BITCOIN_HASHRATE_POINTS = (
    (0, 40.0),
    (60, 44.0),
    (120, 55.0),
    (180, 68.0),
    (240, 84.0),
    (290, 95.0),
    (330, 92.0),
    (364, 97.0),
)

#: (day, blocks/day) control points for Ethereum's 2019 production rate:
#: the pre-Constantinople difficulty bomb depressed early-2019 rates.
ETHEREUM_RATE_POINTS = (
    (0, 5_900.0),
    (25, 5_200.0),
    (45, 4_600.0),
    (58, 4_500.0),
    (60, 6_100.0),
    (90, 6_300.0),
    (180, 6_300.0),
    (270, 6_250.0),
    (364, 6_350.0),
)

#: Blocks per Bitcoin difficulty-retarget epoch.
RETARGET_BLOCKS = 2_016


def piecewise_curve(points: tuple[tuple[int, float], ...], n_days: int = DAYS_IN_2019) -> np.ndarray:
    """Linearly interpolate (day, value) control points over ``n_days``."""
    if len(points) < 2:
        raise SimulationError("piecewise curve needs at least two control points")
    days = [d for d, _ in points]
    if days != sorted(days) or len(set(days)) != len(days):
        raise SimulationError("control-point days must be strictly increasing")
    xs = np.asarray(days, dtype=np.float64)
    ys = np.asarray([v for _, v in points], dtype=np.float64)
    return np.interp(np.arange(n_days, dtype=np.float64), xs, ys)


def bitcoin_daily_rates(seed: int, target_interval: float = 600.0) -> np.ndarray:
    """Relative daily block-production rates under 2,016-block retargeting.

    Simulates the retarget feedback loop: production speed is proportional
    to ``hashrate / difficulty``; each completed epoch rescales difficulty
    by the epoch's average speed-up (clamped to the protocol's 4x bounds).
    """
    hashrate = piecewise_curve(BITCOIN_HASHRATE_POINTS)
    rng = derive_rng(seed, "difficulty/bitcoin")
    # Small day-level hashrate noise (weather, curtailment, luck).
    hashrate = hashrate * np.exp(rng.normal(0.0, 0.01, size=DAYS_IN_2019))
    target_per_day = 86_400.0 / target_interval
    difficulty = hashrate[0]  # start in equilibrium
    epoch_progress = 0.0
    epoch_speed_sum = 0.0
    epoch_days = 0
    rates = np.empty(DAYS_IN_2019, dtype=np.float64)
    for day in range(DAYS_IN_2019):
        speed = hashrate[day] / difficulty
        rates[day] = target_per_day * speed
        epoch_progress += rates[day]
        epoch_speed_sum += speed
        epoch_days += 1
        if epoch_progress >= RETARGET_BLOCKS:
            mean_speed = epoch_speed_sum / epoch_days
            adjustment = float(np.clip(mean_speed, 0.25, 4.0))
            difficulty *= adjustment
            epoch_progress -= RETARGET_BLOCKS
            epoch_speed_sum = 0.0
            epoch_days = 0
    return rates


def ethereum_daily_rates(seed: int) -> np.ndarray:
    """Relative daily block-production rates for Ethereum 2019.

    Per-block difficulty adjustment keeps production near target, so the
    curve is the rate model plus small noise; the January–February
    difficulty-bomb dip is in the control points.
    """
    rates = piecewise_curve(ETHEREUM_RATE_POINTS)
    rng = derive_rng(seed, "difficulty/ethereum")
    return rates * np.exp(rng.normal(0.0, 0.008, size=DAYS_IN_2019))
