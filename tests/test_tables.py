"""Columnar tables, join-input generators, and the TPC-H generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.tables import (
    JOIN_TUPLE_BYTES,
    Column,
    Table,
    generate_join_relation_pair,
    generate_key_value_table,
    generate_tpch,
    rows_for_bytes,
)
from repro.tables.generator import skewed_probe_keys
from repro.tables.tpch import (
    MKTSEGMENTS,
    RETURNFLAGS,
    SHIPMODES,
    date_code,
    returnflag_code,
    segment_code,
    shipmode_code,
)


class TestTable:
    def test_basic_structure(self):
        table = Table.from_arrays(
            "t", a=np.arange(10, dtype=np.int32), b=np.zeros(10, dtype=np.int64)
        )
        assert len(table) == 10
        assert table.column_names == ["a", "b"]
        assert table.row_bytes == 12
        assert "a" in table and "c" not in table

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            Table("t", [Column("a", np.arange(3)), Column("b", np.arange(4))])

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Table("t", [Column("a", np.arange(3)), Column("a", np.arange(3))])

    def test_unknown_column_rejected(self):
        table = Table.from_arrays("t", a=np.arange(3))
        with pytest.raises(ConfigurationError):
            table.column("missing")

    def test_logical_scaling(self):
        table = Table.from_arrays("t", sim_scale=100.0, a=np.arange(10, dtype=np.int32))
        assert table.num_rows == 10
        assert table.logical_rows == 1000
        assert table.logical_bytes == 4000

    def test_select_and_take(self):
        table = Table.from_arrays("t", a=np.arange(10))
        selected = table.select(table["a"] % 2 == 0)
        assert list(selected["a"]) == [0, 2, 4, 6, 8]
        taken = table.take(np.array([3, 1]))
        assert list(taken["a"]) == [3, 1]

    def test_select_preserves_scale(self):
        table = Table.from_arrays("t", sim_scale=7.0, a=np.arange(4))
        assert table.select(table["a"] > 1).sim_scale == 7.0

    def test_wrong_mask_length_rejected(self):
        table = Table.from_arrays("t", a=np.arange(4))
        with pytest.raises(ConfigurationError):
            table.select(np.ones(3, dtype=bool))

    def test_with_columns(self):
        table = Table.from_arrays("t", a=np.arange(3))
        extended = table.with_columns([Column("b", np.ones(3))])
        assert extended.column_names == ["a", "b"]

    def test_non_1d_column_rejected(self):
        with pytest.raises(ConfigurationError):
            Column("m", np.zeros((2, 2)))


_SELECT_DTYPES = (np.int32, np.int64, np.uint8, np.float64, np.bool_)


@st.composite
def _tables_and_masks(draw):
    rows = draw(st.integers(0, 40))
    dtypes = draw(st.lists(st.sampled_from(_SELECT_DTYPES), min_size=1, max_size=5))
    columns = [
        Column(f"c{i}", np.array(
            draw(st.lists(st.integers(0, 255), min_size=rows, max_size=rows)),
        ).astype(dtype))
        for i, dtype in enumerate(dtypes)
    ]
    kind = draw(st.sampled_from(("random", "all-true", "all-false")))
    if kind == "random":
        bits = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    else:
        bits = [kind == "all-true"] * rows
    scale = draw(st.sampled_from((1.0, 3.5)))
    return Table("t", columns, sim_scale=scale), np.array(bits, dtype=bool)


class TestSelectGather:
    """``select`` gathers by index; it must equal masking column by column."""

    @settings(max_examples=300, deadline=None)
    @given(_tables_and_masks())
    def test_matches_column_by_column_masking(self, table_and_mask):
        table, mask = table_and_mask
        selected = table.select(mask, name="out")
        assert selected.name == "out"
        assert selected.sim_scale == table.sim_scale
        assert selected.column_names == table.column_names
        assert selected.num_rows == int(mask.sum())
        for name in table.column_names:
            expected = table[name][mask]
            assert selected[name].dtype == expected.dtype
            assert selected[name].tobytes() == expected.tobytes()

    def test_integer_mask_keeps_fancy_indexing(self):
        table = Table.from_arrays("t", a=np.arange(3), b=np.arange(3) * 10)
        selected = table.select(np.array([2, 2, 0]))
        assert list(selected["a"]) == [2, 2, 0]
        assert list(selected["b"]) == [20, 20, 0]

    def test_mask_length_checked_before_gathering(self):
        table = Table.from_arrays("t", a=np.arange(4), b=np.arange(4))
        with pytest.raises(ConfigurationError):
            table.select(np.ones(5, dtype=bool))


class TestJoinGenerator:
    def test_rows_for_bytes(self):
        assert rows_for_bytes(100e6) == 12_500_000
        assert rows_for_bytes(400e6) == 50_000_000

    def test_tuple_width_is_paper_width(self):
        build, probe = generate_join_relation_pair(1e6, 4e6, physical_row_cap=None)
        assert JOIN_TUPLE_BYTES == 8
        assert build.row_bytes == 8
        assert probe.row_bytes == 8

    def test_build_keys_unique(self):
        build, _ = generate_join_relation_pair(1e6, 4e6, physical_row_cap=None)
        assert len(np.unique(build["key"])) == build.num_rows

    def test_every_probe_key_matches(self):
        build, probe = generate_join_relation_pair(1e6, 4e6, physical_row_cap=None)
        assert np.isin(probe["key"], build["key"]).all()

    def test_logical_sizes_preserved_under_cap(self):
        build, probe = generate_join_relation_pair(
            100e6, 400e6, physical_row_cap=10_000
        )
        assert build.num_rows == 10_000
        assert build.logical_rows == pytest.approx(12_500_000)
        assert probe.logical_rows == pytest.approx(50_000_000)

    def test_deterministic_per_seed(self):
        a1, _ = generate_join_relation_pair(1e6, 2e6, seed=5, physical_row_cap=None)
        a2, _ = generate_join_relation_pair(1e6, 2e6, seed=5, physical_row_cap=None)
        assert np.array_equal(a1["key"], a2["key"])

    def test_zero_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_key_value_table("t", 4, rng=np.random.default_rng(0))

    def test_skewed_keys_uniform_degenerate(self):
        rng = np.random.default_rng(0)
        keys = skewed_probe_keys(100, 1000, 0.0, rng)
        assert keys.min() >= 0 and keys.max() < 100

    def test_skewed_keys_concentrate(self):
        rng = np.random.default_rng(0)
        keys = skewed_probe_keys(1000, 20_000, 1.2, rng)
        top_share = (keys < 10).mean()
        assert top_share > 0.3  # heavy head under Zipf 1.2

    def test_skew_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            skewed_probe_keys(0, 10, 0.5, rng)
        with pytest.raises(ConfigurationError):
            skewed_probe_keys(10, 10, -1.0, rng)


class TestTpchGenerator:
    def test_cardinality_ratios(self):
        data = generate_tpch(0.05, physical_sf_cap=None)
        assert data.customer.num_rows == 7_500
        assert data.orders.num_rows == 75_000
        assert data.part.num_rows == 10_000
        # 1..7 lineitems per order, so ~4x orders.
        ratio = data.lineitem.num_rows / data.orders.num_rows
        assert 3.5 < ratio < 4.5

    def test_scale_cap_transfers_to_sim_scale(self):
        data = generate_tpch(10, physical_sf_cap=0.05)
        assert data.lineitem.sim_scale == pytest.approx(200.0)
        assert data.orders.logical_rows == pytest.approx(15_000_000, rel=0.01)

    def test_lineitem_dates_consistent(self):
        data = generate_tpch(0.02, physical_sf_cap=None)
        li = data.lineitem
        assert (li["l_shipdate"] < li["l_receiptdate"]).all()
        order_dates = data.orders["o_orderdate"][li["l_orderkey"]]
        assert (li["l_shipdate"] > order_dates).all()
        assert (li["l_commitdate"] > order_dates).all()

    def test_foreign_keys_valid(self):
        data = generate_tpch(0.02, physical_sf_cap=None)
        assert data.lineitem["l_orderkey"].max() < data.orders.num_rows
        assert data.lineitem["l_partkey"].max() < data.part.num_rows
        assert data.orders["o_custkey"].max() < data.customer.num_rows

    def test_row_width_is_integer_coded(self):
        data = generate_tpch(0.02, physical_sf_cap=None)
        assert data.customer.row_bytes == 8
        assert data.lineitem.row_bytes == 9 * 4

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_tpch(0)

    def test_dictionary_codes(self):
        assert segment_code("BUILDING") == MKTSEGMENTS.index("BUILDING")
        assert shipmode_code("SHIP") == SHIPMODES.index("SHIP")
        assert returnflag_code("R") == RETURNFLAGS.index("R")
        with pytest.raises(ConfigurationError):
            segment_code("NOT A SEGMENT")

    def test_date_code_epoch(self):
        assert date_code(1992, 1, 1) == 0
        assert date_code(1992, 1, 2) == 1
        assert date_code(1995, 3, 15) > date_code(1994, 1, 1)
