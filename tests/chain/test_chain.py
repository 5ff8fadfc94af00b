"""Tests for columnar chain storage."""

import numpy as np
import pytest

from repro.chain.block import Block
from repro.chain.chain import Chain
from repro.errors import ChainError
from repro.util.timeutils import YEAR_2019_START
from tests.conftest import TINY_SPEC, make_tiny_chain


class TestConstruction:
    def test_from_blocks_roundtrip(self):
        blocks = [
            Block(height=1_000, timestamp=YEAR_2019_START, producers=("a",)),
            Block(height=1_001, timestamp=YEAR_2019_START + 600, producers=("b", "c")),
            Block(height=1_002, timestamp=YEAR_2019_START + 1200, producers=("a",)),
        ]
        chain = Chain.from_blocks(TINY_SPEC, blocks)
        assert chain.n_blocks == 3
        assert chain.n_credits == 4
        assert [chain.block(i) for i in range(3)] == blocks

    def test_from_blocks_preserves_tags(self):
        blocks = [
            Block(height=1_000, timestamp=YEAR_2019_START, producers=("a",), tag="F2Pool"),
            Block(height=1_001, timestamp=YEAR_2019_START + 600, producers=("b",)),
        ]
        chain = Chain.from_blocks(TINY_SPEC, blocks)
        assert chain.block(0).tag == "F2Pool"
        assert chain.block(1).tag is None

    def test_single_producer_fast_path(self):
        chain = Chain.single_producer(
            TINY_SPEC,
            heights=1_000 + np.arange(4),
            timestamps=YEAR_2019_START + 60 * np.arange(4),
            producer_ids=np.asarray([0, 1, 0, 1]),
            producer_names=["a", "b"],
        )
        assert chain.producer_counts().tolist() == [1, 1, 1, 1]

    def test_non_consecutive_heights_rejected(self):
        with pytest.raises(ChainError, match="consecutive"):
            Chain.single_producer(
                TINY_SPEC,
                heights=np.asarray([1, 3]),
                timestamps=np.asarray([0, 1]),
                producer_ids=np.asarray([0, 0]),
                producer_names=["a"],
            )

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ChainError, match="non-decreasing"):
            Chain.single_producer(
                TINY_SPEC,
                heights=np.asarray([1, 2]),
                timestamps=np.asarray([10, 5]),
                producer_ids=np.asarray([0, 0]),
                producer_names=["a"],
            )

    def test_bad_producer_reference_rejected(self):
        with pytest.raises(ChainError, match="unknown producer"):
            Chain.single_producer(
                TINY_SPEC,
                heights=np.asarray([1]),
                timestamps=np.asarray([0]),
                producer_ids=np.asarray([5]),
                producer_names=["a"],
            )

    def test_offsets_must_cover_all_credits(self):
        with pytest.raises(ChainError):
            Chain(
                TINY_SPEC,
                heights=np.asarray([1]),
                timestamps=np.asarray([0]),
                offsets=np.asarray([0, 1]),
                producer_ids=np.asarray([0, 0]),  # one extra credit
                producer_names=["a"],
            )

    def test_block_without_producer_rejected(self):
        with pytest.raises(ChainError, match="at least one producer"):
            Chain(
                TINY_SPEC,
                heights=np.asarray([1, 2]),
                timestamps=np.asarray([0, 1]),
                offsets=np.asarray([0, 0, 1]),
                producer_ids=np.asarray([0]),
                producer_names=["a"],
            )


class TestAccessors:
    def test_shape_properties(self, tiny_chain):
        assert tiny_chain.n_blocks == 9
        assert tiny_chain.n_credits == 11
        assert tiny_chain.n_producers == 5
        assert len(tiny_chain) == 9

    def test_height_range(self, tiny_chain):
        assert tiny_chain.start_height == 1_000
        assert tiny_chain.end_height == 1_008

    def test_block_materialization(self, tiny_chain):
        block = tiny_chain.block(5)
        assert block.producers == ("a", "x", "y")

    def test_block_negative_index(self, tiny_chain):
        assert tiny_chain.block(-1).height == 1_008

    def test_block_out_of_range(self, tiny_chain):
        with pytest.raises(ChainError):
            tiny_chain.block(9)

    def test_blocks_iterates_all(self, tiny_chain):
        assert sum(1 for _ in tiny_chain.blocks()) == 9

    def test_producer_counts(self, tiny_chain):
        assert tiny_chain.producer_counts().tolist() == [1, 1, 1, 1, 1, 3, 1, 1, 1]

    def test_anomalous_blocks(self, tiny_chain):
        found = tiny_chain.anomalous_blocks(threshold=3)
        assert [b.height for b in found] == [1_005]

    def test_empty_chain_repr_and_errors(self):
        chain = make_tiny_chain([])
        assert "empty" in repr(chain)
        with pytest.raises(ChainError):
            chain.start_height


class TestSlicing:
    def test_slice_blocks(self, tiny_chain):
        sub = tiny_chain.slice_blocks(2, 6)
        assert sub.n_blocks == 4
        assert sub.block(0).producers == ("b",)
        assert sub.block(3).producers == ("a", "x", "y")

    def test_slice_clamps(self, tiny_chain):
        assert tiny_chain.slice_blocks(-5, 99).n_blocks == 9

    def test_slice_by_height(self, tiny_chain):
        sub = tiny_chain.slice_by_height(1_002, 1_004)
        assert sub.heights.tolist() == [1_002, 1_003, 1_004]

    def test_slice_by_time(self, tiny_chain):
        start = int(tiny_chain.timestamps[3])
        end = int(tiny_chain.timestamps[6])
        sub = tiny_chain.slice_by_time(start, end)
        assert sub.n_blocks == 3

    def test_invalid_slice_raises(self, tiny_chain):
        with pytest.raises(ChainError):
            tiny_chain.slice_blocks(5, 2)


class TestExport:
    def test_to_table_one_row_per_credit(self, tiny_chain):
        table = tiny_chain.to_table()
        assert table.num_rows == 11
        multi = table.filter(table["height"] == 1_005)
        assert multi["producer"].tolist() == ["a", "x", "y"]
        assert multi["n_producers"].tolist() == [3, 3, 3]

    def test_block_table_one_row_per_block(self, tiny_chain):
        table = tiny_chain.block_table()
        assert table.num_rows == 9
        assert table["primary_producer"].tolist()[5] == "a"


def decoded_row_by_row(chain: Chain) -> tuple[dict[str, list], list[str]]:
    """``to_table()``'s columns and ``primary_producer``, one block at a time."""
    names, ids, offsets = chain.producer_names, chain.producer_ids.tolist(), chain.offsets
    credits: dict[str, list] = {"height": [], "timestamp": [], "producer": [], "n_producers": []}
    primary = []
    for block in range(chain.n_blocks):
        producers = [names[pid] for pid in ids[offsets[block]:offsets[block + 1]]]
        primary.append(producers[0])
        for producer in producers:
            credits["height"].append(int(chain.heights[block]))
            credits["timestamp"].append(int(chain.timestamps[block]))
            credits["producer"].append(producer)
            credits["n_producers"].append(len(producers))
    return credits, primary


class TestEncodedExport:
    @pytest.fixture(scope="class")
    def seed_one_chains(self) -> dict[str, Chain]:
        from repro.simulation.scenarios import simulate_bitcoin_2019, simulate_ethereum_2019

        return {
            "btc": simulate_bitcoin_2019(seed=1),
            "eth": simulate_ethereum_2019(seed=1).slice_blocks(0, 200_000),
        }

    def assert_tables_decode(self, chain: Chain) -> None:
        credits, primary = decoded_row_by_row(chain)
        table = chain.to_table()
        primary_producer = chain.block_table().column("primary_producer")
        assert table.column("producer").codes is not None
        assert primary_producer.codes is not None
        for name, values in credits.items():
            assert table.column(name).to_list() == values, name
        assert primary_producer.to_list() == primary

    def test_tiny_chain_tables_equal_the_row_by_row_decode(self, tiny_chain):
        self.assert_tables_decode(tiny_chain)

    @pytest.mark.parametrize("key", ["btc", "eth"])
    def test_seed_one_tables_equal_the_row_by_row_decode(self, seed_one_chains, key):
        self.assert_tables_decode(seed_one_chains[key])

    def test_single_producer_tables_share_producer_ids(self, seed_one_chains):
        chain = seed_one_chains["eth"]
        assert chain.n_credits == chain.n_blocks
        tables = ((chain.to_table(), "producer"), (chain.block_table(), "primary_producer"))
        for table, name in tables:
            assert np.shares_memory(table.column(name).codes, chain.producer_ids)
            assert np.shares_memory(table.column("height").values, chain.heights)
            assert np.shares_memory(table.column("timestamp").values, chain.timestamps)

    def test_repeated_producer_names_give_a_plain_column(self):
        chain = make_tiny_chain([["a"], ["b"]])
        chain = Chain(
            chain.spec, chain.heights, chain.timestamps, chain.offsets,
            chain.producer_ids, ["same", "same"],
        )
        column = chain.to_table().column("producer")
        assert column.codes is None and column.to_list() == ["same", "same"]
