"""Tests for the incremental trailing-window histogram."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.rolling import RollingHistogram
from repro.errors import MeasurementError


class TestRollingHistogram:
    def test_counts_before_capacity(self):
        rolling = RollingHistogram(capacity=10)
        for name in ["a", "b", "a", "c"]:
            rolling.push([name])
        assert rolling.n_blocks == 4
        assert rolling.n_active == 3
        assert sorted(rolling.distribution().tolist()) == [1.0, 1.0, 2.0]

    def test_eviction_removes_oldest_block(self):
        rolling = RollingHistogram(capacity=2)
        rolling.push(["a"])
        rolling.push(["b"])
        rolling.push(["c"])  # evicts a
        assert rolling.n_blocks == 2
        names, weights = rolling.distribution_with_entities()
        assert names == ["b", "c"]
        assert weights.tolist() == [1.0, 1.0]

    def test_exact_zero_removal_with_fractional_weights(self):
        """Count-based removal is exact even for 1/k weights that don't
        subtract back to a clean zero."""
        rolling = RollingHistogram(capacity=1)
        rolling.push(["a", "b", "c"], weight_each=1.0 / 3.0)
        rolling.push(["d"])  # evicts the fractional block entirely
        assert rolling.n_active == 1
        assert rolling.distribution().tolist() == [1.0]

    def test_returning_entity_restarts_from_exact_zero(self):
        """Evicting an entity's last block zeroes its weight outright:
        (1/3 + 1/10) - 1/3 - 1/10 would leave a 2.8e-17 residue."""
        rolling = RollingHistogram(capacity=2)
        tenth = [f"q{i}" for i in range(9)]
        rolling.push(["a", "b", "c"], weight_each=1.0 / 3.0)
        rolling.push(["a", *tenth], weight_each=0.1)
        rolling.push(["d"])
        rolling.push(["e"])  # both of a's blocks are gone
        rolling.push(["a", *tenth], weight_each=0.1)
        names, weights = rolling.distribution_with_entities()
        assert dict(zip(names, weights.tolist()))["a"] == 0.1

    def test_multi_producer_blocks(self):
        rolling = RollingHistogram(capacity=3)
        rolling.push(["a", "b"])
        rolling.push(["a"])
        assert rolling.n_active == 2
        names, weights = rolling.distribution_with_entities()
        assert dict(zip(names, weights.tolist())) == {"a": 2.0, "b": 1.0}

    def test_slot_table_growth(self):
        rolling = RollingHistogram(capacity=100)
        for i in range(50):  # one slot per name, appended as names arrive
            rolling.push([f"p{i}"])
        assert rolling.n_active == 50
        assert rolling.distribution().shape == (50,)

    def test_reference_equivalence_random_feed(self):
        rng = np.random.default_rng(0)
        names = [f"p{i}" for i in range(7)]
        blocks = [
            list(rng.choice(names, size=int(rng.integers(1, 4)), replace=False))
            for _ in range(300)
        ]
        rolling = RollingHistogram(capacity=25)
        for block in blocks:
            rolling.push(block)
        reference = Counter(p for block in blocks[-25:] for p in block)
        got_names, got_weights = rolling.distribution_with_entities()
        assert dict(zip(got_names, got_weights.tolist())) == {
            name: float(count) for name, count in reference.items()
        }

    def test_invalid_input_rejected(self):
        with pytest.raises(MeasurementError):
            RollingHistogram(capacity=0)
        with pytest.raises(MeasurementError):
            RollingHistogram(capacity=4).push([])


#: More names than the 16 slots the histogram once started with.
NAMES = [f"p{i}" for i in range(20)]

#: Feeds of 1-3 producers a block (repeats within a block allowed).
FEEDS = st.lists(
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=3), min_size=1, max_size=60
)


class TestCounterReference:
    """After every push the histogram equals a ``Counter`` over the trailing
    ``capacity`` blocks, with entities in first-seen (slot) order."""

    @settings(max_examples=150, deadline=None)
    @given(blocks=FEEDS, capacity=st.integers(min_value=1, max_value=8))
    @example(blocks=[[name] for name in NAMES] * 2, capacity=1)
    @example(blocks=[["p0", "p1"], ["p2"], ["p0"], ["p2", "p2"], ["p1"]], capacity=2)
    def test_unit_weights_equal_counter_byte_for_byte(self, blocks, capacity):
        rolling = RollingHistogram(capacity)
        first_seen: dict[str, int] = {}
        for i, block in enumerate(blocks):
            rolling.push(block)
            for name in block:
                first_seen.setdefault(name, len(first_seen))
            window = blocks[max(0, i + 1 - capacity): i + 1]
            reference = Counter(name for producers in window for name in producers)
            names = sorted(reference, key=first_seen.__getitem__)
            expected = np.array([float(reference[name]) for name in names])
            got_names, got_weights = rolling.distribution_with_entities()
            assert got_names == names
            assert got_weights.tobytes() == expected.tobytes()
            assert rolling.distribution().tobytes() == expected.tobytes()
            assert (rolling.n_blocks, rolling.n_active) == (len(window), len(reference))

    @settings(max_examples=60, deadline=None)
    @given(blocks=FEEDS, capacity=st.integers(min_value=1, max_value=8))
    def test_fractional_weights_track_the_trailing_blocks(self, blocks, capacity):
        rolling = RollingHistogram(capacity)
        for block in blocks:
            rolling.push(block, weight_each=1.0 / len(block))
        reference: Counter = Counter()
        for block in blocks[-capacity:]:
            for name in block:
                reference[name] += 1.0 / len(block)
        names, weights = rolling.distribution_with_entities()
        assert set(names) == set(reference)
        assert weights.tolist() == pytest.approx([reference[name] for name in names])
