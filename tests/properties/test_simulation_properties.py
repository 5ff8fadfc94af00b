"""Property-based tests for simulator invariants (small chains)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.pools import PoolInfo, PoolRegistry
from repro.chain.specs import ChainSpec
from repro.simulation.miners import TailConfig
from repro.simulation.params import SimulationParams
from repro.simulation.powsim import ChainSimulator
from repro.util.timeutils import YEAR_2019_END, YEAR_2019_START


def make_chain(seed: int, block_count: int, singleton_rate: float):
    spec = ChainSpec(
        name="propchain",
        start_height=1,
        block_count=block_count,
        target_interval=86_400.0 * 365 / block_count,
        blocks_per_day=max(block_count // 365, 1),
        window_day=10,
        window_week=70,
        window_month=300,
    )
    registry = PoolRegistry(
        [
            PoolInfo("A", "a", 0.5, 0.4),
            PoolInfo("B", "b", 0.3, 0.4),
        ]
    )
    params = SimulationParams(
        spec=spec,
        registry=registry,
        tail=TailConfig(1, 0.02, singleton_rate, singleton_rate, early_period_end=0),
        seed=seed,
    )
    return ChainSimulator(params).run()


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=365, max_value=4_000),
    st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=15, deadline=None)
def test_simulator_invariants(seed, block_count, singleton_rate):
    chain = make_chain(seed, block_count, singleton_rate)
    # Exact size, consecutive heights.
    assert chain.n_blocks == block_count
    assert np.all(np.diff(chain.heights) == 1)
    # Timestamps sorted and inside 2019.
    assert np.all(np.diff(chain.timestamps) >= 0)
    assert chain.timestamps[0] >= YEAR_2019_START
    assert chain.timestamps[-1] < YEAR_2019_END
    # CSR structure consistent.
    assert chain.offsets[0] == 0
    assert chain.offsets[-1] == chain.n_credits
    assert np.all(np.diff(chain.offsets) >= 1)
    # All producer references valid.
    assert chain.producer_ids.min() >= 0
    assert chain.producer_ids.max() < len(chain.producer_names)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_same_seed_reproduces_exactly(seed):
    a = make_chain(seed, 730, 0.5)
    b = make_chain(seed, 730, 0.5)
    assert np.array_equal(a.producer_ids, b.producer_ids)
    assert np.array_equal(a.timestamps, b.timestamps)
    assert a.producer_names == b.producer_names


@given(st.integers(min_value=0, max_value=1_000))
@settings(max_examples=10, deadline=None)
def test_singletons_appear_exactly_once(seed):
    chain = make_chain(seed, 1_460, 1.5)
    counts = np.bincount(chain.producer_ids, minlength=len(chain.producer_names))
    for pid, name in enumerate(chain.producer_names):
        if "1time" in name:
            assert counts[pid] == 1
