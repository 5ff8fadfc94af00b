"""Every SQL join strategy against the hash join's dict loop.

:func:`reference_pairs` is the executor's hash join written as a loop: a
dict from each right key to its rows, probed once per left row.  Its key
equality is the dict's, Python's ``==`` and ``hash``:

* ints, floats and bools compare as numbers, exactly, so an int beyond
  2**53 never equals the float it rounds to, and ``-0.0`` equals ``0.0``;
* ``None`` matches ``None``;
* NaN never matches (each ``to_list`` call makes a new float object);
* a string never equals a number.

For each pair of key kinds, random tables (duplicate keys on both sides,
either side possibly empty) are joined INNER and LEFT under each strategy:
hash, sort-merge, and an index join through a sorted and through a hash
index on the right key.  Each must return the reference's row pairs and
the joined table it assembles, to the byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import PlannerOptions, QueryEngine
from repro.sql.executor import _assemble_join
from repro.table import Column, Table

BIG = 2**53 + 1

#: Key pools per column kind; small, so that keys repeat within and across sides.
POOLS = {
    "int": [0, 1, 2, -1, BIG, -BIG, 2**53],
    "float": [0.0, -0.0, 1.0, 2.5, float("nan"), float(BIG), -float(BIG), float("inf")],
    "bool": [True, False],
    "str": ["a", "1", "", None],
}
ENCODED_CATEGORIES = ["a", "1", "", "~unused"]

#: name -> (left key kind, right key kind); "encoded" is a dictionary-encoded str.
PAIRS = {
    "int": ("int", "int"),
    "float": ("float", "float"),
    "bool": ("bool", "bool"),
    "int-float": ("int", "float"),
    "float-int": ("float", "int"),
    "bool-int": ("bool", "int"),
    "int-bool": ("int", "bool"),
    "bool-float": ("bool", "float"),
    "float-bool": ("float", "bool"),
    "str": ("str", "str"),
    "encoded-str": ("encoded", "str"),
    "str-encoded": ("str", "encoded"),
    "encoded-encoded": ("encoded", "encoded"),
    "str-int": ("str", "int"),
    "int-str": ("int", "str"),
}

#: strategy -> (planner toggles switched off, index kind on the right key or None).
STRATEGIES = {
    "hash": (["index-join", "sort-merge-join"], None),
    "sort_merge": (["hash-join", "index-join"], None),
    "index-sorted": (["hash-join", "sort-merge-join"], "sorted"),
    "index-hash": (["hash-join", "sort-merge-join"], "hash"),
}


def reference_pairs(left: Column, right: Column, how: str) -> tuple[list[int], list[int]]:
    """The hash join's dict build and probe: ``(left rows, right rows)``, -1 a LEFT miss."""
    build: dict = {}
    for j, value in enumerate(right.to_list()):
        build.setdefault(value, []).append(j)
    left_rows: list[int] = []
    right_rows: list[int] = []
    for i, value in enumerate(left.to_list()):
        matches = build.get(value)
        if matches:
            left_rows.extend([i] * len(matches))
            right_rows.extend(matches)
        elif how == "left":
            left_rows.append(i)
            right_rows.append(-1)
    return left_rows, right_rows


@st.composite
def key_columns(draw, kind: str, nullable: bool = True) -> Column:
    """A key column of ``kind`` with 0-6 rows drawn from a small pool."""
    n = draw(st.integers(min_value=0, max_value=6))
    if kind == "encoded":
        categories = draw(st.permutations(ENCODED_CATEGORIES))
        codes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        return Column.from_codes(codes, categories)
    pool = POOLS[kind] if nullable else [v for v in POOLS[kind] if v is not None]
    return Column(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), kind)


def key_table(key: Column, row_name: str) -> Table:
    return Table({"k": key, row_name: Column(np.arange(len(key), dtype=np.int64))})


def table_bytes(table: Table) -> list:
    """Names, kinds, encodings and exact contents (NaN and -0.0 included) of ``table``."""
    out = []
    for name in table.column_names:
        column = table.column(name)
        contents = column.to_list() if column.kind == "str" else column.values.tobytes()
        out.append((name, column.kind, column.codes is not None, contents))
    return out


def join_node(node):
    if node.op == "Join":
        return node
    for child in node.children:
        found = join_node(child)
        if found is not None:
            return found
    return None


def check_strategy(pair: str, strategy: str, data) -> None:
    left_kind, right_kind = PAIRS[pair]
    disabled, index_kind = STRATEGIES[strategy]
    left_key = data.draw(key_columns(left_kind))
    # A sorted index refuses a string column holding NULLs.
    right_key = data.draw(key_columns(right_kind, nullable=index_kind != "sorted"))
    left, right = key_table(left_key, "i"), key_table(right_key, "j")
    engine = QueryEngine({"l": left, "r": right}, options=PlannerOptions.with_disabled(disabled))
    if index_kind is not None:
        engine.create_index("r", "k", index_kind)
    label = "index" if index_kind else strategy
    for how in ("inner", "left"):
        join = "LEFT JOIN" if how == "left" else "JOIN"
        result, tree = engine.explain_analyze(f"SELECT * FROM l {join} r ON l.k = r.k")
        assert f"strategy={label} " in join_node(tree).label
        left_rows, right_rows = reference_pairs(left_key, right_key, how)
        got_right = np.asarray(result.column("j").values, dtype=np.float64)
        assert result.column("i").to_list() == left_rows
        assert np.where(np.isnan(got_right), -1, got_right).astype(np.int64).tolist() == right_rows
        expected = _assemble_join(
            left.rename({"k": "l.k", "i": "l.i"}),
            right.rename({"k": "r.k", "j": "r.j"}),
            left_rows,
            right_rows,
        ).rename({"l.i": "i", "r.j": "j"})
        assert table_bytes(result) == table_bytes(expected)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("pair", sorted(PAIRS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_every_strategy_matches_the_dict_loop(pair, strategy, data):
    check_strategy(pair, strategy, data)
