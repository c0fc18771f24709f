"""Equivalence of the join match path with its per-partition predecessor.

RHO, CrkJoin and GRACE compute their matches with one global
``ChainedHashTable``; the hash table groups rows with one sort of packed
``(bucket << row_bits) | row`` values and walks chains over compacted
arrays.  The reference implementations below are the earlier code they
replaced: a per-partition build/probe loop over radix (or hash)
partitions, a stable-argsort build, and a full-length-mask chain walk.
The properties assert identical ``build_index`` arrays and identical
``heads``/``links`` linkage, not only identical hit masks.
"""

from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.joins import CrkJoin, RadixJoin
from repro.core.joins.base import JoinAlgorithm
from repro.core.joins.radix import partitioned_match
from repro.core.structures.hashtable import ChainedHashTable, table_bytes_for
from repro.enclave.runtime import ExecutionSetting
from repro.errors import ConfigurationError
from repro.machine import SimMachine
from repro.memory.access import CodeVariant
from repro.storage import GraceHashJoin, SealedStore
from repro.storage.spill import _partition_of, partition_count
from repro.tables.table import Table

# -- reference implementations (the replaced code) ---------------------------


class ReferenceTable(ChainedHashTable):
    """Stable-argsort build and full-mask probe walk."""

    def _hash(self, keys: np.ndarray) -> np.ndarray:
        hashed = keys.astype(np.uint64) * np.uint64(2654435761)
        return (hashed & self._mask).astype(np.int64)

    def _build(self) -> None:
        buckets = self._hash(self.keys)
        order = np.argsort(buckets, kind="stable")
        sorted_buckets = buckets[order]
        same_bucket = sorted_buckets[1:] == sorted_buckets[:-1]
        self.links[order[1:][same_bucket]] = order[:-1][same_bucket]
        run_ends = np.flatnonzero(
            np.r_[sorted_buckets[1:] != sorted_buckets[:-1], True]
        )
        self.heads[sorted_buckets[run_ends]] = order[run_ends]

    def probe_first(self, probe_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        probe_keys = np.asarray(probe_keys)
        result = np.full(len(probe_keys), -1, dtype=np.int64)
        cursor = self.heads[self._hash(probe_keys)]
        unresolved = cursor >= 0
        while unresolved.any():
            idx = cursor[unresolved]
            hit = self.keys[idx] == probe_keys[unresolved]
            targets = np.flatnonzero(unresolved)
            result[targets[hit]] = idx[hit]
            advance = targets[~hit]
            cursor[advance] = self.links[cursor[advance]]
            unresolved = np.zeros_like(unresolved)
            unresolved[advance] = cursor[advance] >= 0
        return result, result >= 0


def reference_radix_partition(keys: np.ndarray, num_partitions: int):
    """``(order, offsets)`` grouping rows by ``key & (P - 1)``."""
    mask = num_partitions - 1
    pids = np.asarray(keys).astype(np.int64) & mask
    order = np.argsort(pids, kind="stable")
    counts = np.bincount(pids, minlength=num_partitions)
    offsets = np.zeros(num_partitions + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return order, offsets


def reference_partitioned_match(
    build: Table, probe: Table, num_partitions: int
) -> np.ndarray:
    """The per-partition RHO/CrkJoin loop, at any fan-out."""
    r_keys, r_payloads = build["key"], build["payload"]
    s_keys = probe["key"]
    r_order, r_offsets = reference_radix_partition(r_keys, num_partitions)
    s_order, s_offsets = reference_radix_partition(s_keys, num_partitions)
    build_index = np.full(len(s_keys), -1, dtype=np.int64)
    for p in range(num_partitions):
        r_lo, r_hi = r_offsets[p], r_offsets[p + 1]
        s_lo, s_hi = s_offsets[p], s_offsets[p + 1]
        if r_hi == r_lo or s_hi == s_lo:
            continue
        r_rows = r_order[r_lo:r_hi]
        s_rows = s_order[s_lo:s_hi]
        table = ReferenceTable(r_keys[r_rows], r_payloads[r_rows])
        local_index, hits = table.probe_first(s_keys[s_rows])
        build_index[s_rows[hits]] = r_rows[local_index[hits]]
    return build_index


def reference_grace_match(
    build: Table, probe: Table, partitions: int, load_factor: float
) -> Tuple[np.ndarray, float]:
    """The per-partition GRACE loop: ``(build_index, logical_table_bytes)``."""
    build_parts = _partition_of(build["key"], partitions)
    probe_parts = _partition_of(probe["key"], partitions)
    build_index = np.full(len(probe["key"]), -1, dtype=np.int64)
    logical_table_bytes = 0.0
    for part in range(partitions):
        build_rows = np.flatnonzero(build_parts == part)
        probe_rows = np.flatnonzero(probe_parts == part)
        if len(probe_rows) == 0:
            continue
        table = ReferenceTable(
            build["key"][build_rows], build["payload"][build_rows], load_factor
        )
        local_index, local_hits = table.probe_first(probe["key"][probe_rows])
        build_index[probe_rows[local_hits]] = build_rows[local_index[local_hits]]
        logical_table_bytes = max(
            logical_table_bytes,
            float(
                table_bytes_for(
                    max(1, int(len(build_rows) * build.sim_scale)), load_factor
                )
            ),
        )
    return build_index, logical_table_bytes


# -- strategies --------------------------------------------------------------

KEY_DTYPES = st.sampled_from([np.int32, np.int64])

#: Narrow ranges force duplicates and matches; the wide one covers
#: negative keys and the int32 extremes.
key_values = st.one_of(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
)
key_lists = st.lists(key_values, min_size=0, max_size=200)
load_factors = st.floats(min_value=0.25, max_value=4.0)
partition_counts = st.integers(min_value=0, max_value=12).map(lambda b: 1 << b)


def keys_of(values, dtype) -> np.ndarray:
    return np.array(values, dtype=np.int64).astype(dtype)


def table_of(name: str, keys: np.ndarray, sim_scale: float = 1.0) -> Table:
    payload = np.arange(len(keys), dtype=np.int32) * 7
    return Table.from_arrays(name, sim_scale=sim_scale, key=keys, payload=payload)


# -- hash table --------------------------------------------------------------


class TestHashTableEquivalence:
    @given(values=key_lists, dtype=KEY_DTYPES, load=load_factors)
    @settings(max_examples=150, deadline=None)
    def test_packed_build_equals_stable_argsort(self, values, dtype, load):
        keys = keys_of(values, dtype)
        table = ChainedHashTable(keys, keys, load_factor=load)
        reference = ReferenceTable(keys, keys, load_factor=load)
        assert np.array_equal(table.heads, reference.heads)
        assert np.array_equal(table.links, reference.links)

    @given(
        build=key_lists,
        probe=key_lists,
        build_dtype=KEY_DTYPES,
        probe_dtype=KEY_DTYPES,
        load=load_factors,
    )
    @settings(max_examples=150, deadline=None)
    def test_compacted_probe_equals_full_mask_walk(
        self, build, probe, build_dtype, probe_dtype, load
    ):
        build_keys = keys_of(build, build_dtype)
        probe_keys = keys_of(probe, probe_dtype)
        index, hits = ChainedHashTable(build_keys, build_keys, load).probe_first(
            probe_keys
        )
        ref_index, ref_hits = ReferenceTable(
            build_keys, build_keys, load
        ).probe_first(probe_keys)
        assert np.array_equal(index, ref_index)
        assert np.array_equal(hits, ref_hits)

    def test_first_hit_is_the_highest_duplicate_row(self):
        keys = np.array([5, 9, 5, 5, 9], dtype=np.int64)
        index, hits = ChainedHashTable(keys, keys).probe_first(
            np.array([5, 9, 1])
        )
        assert index.tolist() == [3, 4, -1]
        assert hits.tolist() == [True, True, False]

    def test_bucket_and_row_bits_must_pack_into_63(self):
        # 5 rows need 3 row bits; a tiny load factor asks for 2**63 buckets.
        keys = np.arange(5)
        with pytest.raises(ConfigurationError, match="63 bits"):
            ChainedHashTable(keys, keys, load_factor=1e-18)


# -- RHO / CrkJoin -----------------------------------------------------------


class TestPartitionedMatchEquivalence:
    @given(
        build=key_lists,
        probe=key_lists,
        build_dtype=KEY_DTYPES,
        probe_dtype=KEY_DTYPES,
        partitions=partition_counts,
    )
    @settings(max_examples=150, deadline=None)
    def test_global_table_equals_per_partition_loop(
        self, build, probe, build_dtype, probe_dtype, partitions
    ):
        build_table = table_of("r", keys_of(build, build_dtype))
        probe_table = table_of("s", keys_of(probe, probe_dtype))
        build_index, hit_mask = partitioned_match(build_table, probe_table)
        expected = reference_partitioned_match(build_table, probe_table, partitions)
        assert np.array_equal(build_index, expected)
        assert np.array_equal(hit_mask, expected >= 0)

    @pytest.mark.parametrize("algorithm", [RadixJoin, CrkJoin])
    @pytest.mark.parametrize("bits", [1, 4, 9])
    def test_operators_return_the_per_partition_matches(
        self, machine, small_join_tables, algorithm, bits
    ):
        build, probe = small_join_tables
        setting = ExecutionSetting.sgx_data_in_enclave()
        with machine.context(setting, threads=4) as ctx:
            result = algorithm(radix_bits=bits).run(ctx, build, probe)
        expected = reference_partitioned_match(build, probe, 1 << bits)
        assert np.array_equal(result.match_index, expected)


class TestRadixGroups:
    """The reference radix partitioner really is a low-bit grouping."""

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=2**31 - 1), max_size=300),
        bits=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_is_permutation_grouped_by_low_bits(self, keys, bits):
        keys_arr = np.array(keys, dtype=np.int64)
        partitions = 1 << bits
        order, offsets = reference_radix_partition(keys_arr, partitions)
        # order is a permutation of all rows.
        assert sorted(order.tolist()) == list(range(len(keys_arr)))
        # offsets are monotone and cover everything.
        assert offsets[0] == 0 and offsets[-1] == len(keys_arr)
        assert (np.diff(offsets) >= 0).all()
        # every row landed in the partition its low bits dictate, in
        # ascending row order (what makes one global table equivalent).
        mask = partitions - 1
        for p in range(partitions):
            rows = order[offsets[p]:offsets[p + 1]]
            assert ((keys_arr[rows] & mask) == p).all()
            assert (np.diff(rows) > 0).all()


# -- GRACE -------------------------------------------------------------------

#: Budgets from "fits, no partitioning" down to the maximum fan-out for
#: the logical sizes drawn below.
GRACE_BUDGETS = st.sampled_from([1e12, 2e9, 2e8, 5e7, 1e7, 2e6])


def run_grace(build: Table, probe: Table, budget: float, load: float):
    """``(result, logical_table_bytes)`` of one GRACE run."""
    machine = SimMachine()
    join = GraceHashJoin(
        CodeVariant.NAIVE,
        store=SealedStore(machine.params),
        budget_bytes=budget,
        load_factor=load,
    )
    allocated = {}
    setting = ExecutionSetting.sgx_data_in_enclave()
    with machine.context(setting, threads=4) as ctx:
        allocate = ctx.allocate

        def spy(name, size_bytes, profile=None):
            allocated[name] = size_bytes
            return allocate(name, size_bytes, profile)

        ctx.allocate = spy
        result = join.run(ctx, build, probe)
    return result, allocated["grace-hash-table"]


class TestGraceEquivalence:
    @given(
        build=key_lists,
        probe=key_lists,
        build_dtype=KEY_DTYPES,
        probe_dtype=KEY_DTYPES,
        budget=GRACE_BUDGETS,
        load=load_factors,
    )
    @settings(max_examples=60, deadline=None)
    def test_global_table_equals_per_partition_loop(
        self, build, probe, build_dtype, probe_dtype, budget, load
    ):
        # ~1 MB of logical tuples per physical row: small inputs still
        # drive the fan-out past one partition.
        build_table = table_of("r", keys_of(build, build_dtype), sim_scale=125_000)
        probe_table = table_of("s", keys_of(probe, probe_dtype), sim_scale=125_000)
        partitions = partition_count(float(build_table.logical_bytes), budget)
        result, table_bytes = run_grace(build_table, probe_table, budget, load)
        expected, expected_bytes = reference_grace_match(
            build_table, probe_table, partitions, load
        )
        assert np.array_equal(result.match_index, expected)
        assert table_bytes == int(expected_bytes)

    def test_table_bytes_skip_partitions_without_probe_rows(self):
        # Build rows spread over every partition; the probe side hits only
        # the smallest one, so the sized table is that partition's and the
        # larger, unprobed partitions are skipped.
        build_keys = np.arange(400, dtype=np.int64)
        build = table_of("r", build_keys, sim_scale=125_000)
        budget = 5e7
        partitions = partition_count(float(build.logical_bytes), budget)
        assert partitions > 1
        parts = _partition_of(build_keys, partitions)
        counts = np.bincount(parts, minlength=partitions)
        row = int(np.argmin(counts[parts]))
        assert counts[parts[row]] < counts.max()
        probe = table_of("s", np.full(5, row, dtype=np.int64), sim_scale=125_000)
        result, table_bytes = run_grace(build, probe, budget, 1.0)
        _, expected_bytes = reference_grace_match(build, probe, partitions, 1.0)
        assert table_bytes == int(expected_bytes)
        assert table_bytes == table_bytes_for(int(counts[parts[row]] * 125_000))
        assert result.match_index.tolist() == [row] * 5

    def test_empty_probe_side_builds_no_table(self):
        build = table_of("r", np.arange(50, dtype=np.int64), sim_scale=125_000)
        probe = table_of("s", np.array([], dtype=np.int64), sim_scale=125_000)
        result, table_bytes = run_grace(build, probe, 5e7, 1.0)
        assert table_bytes == 0
        assert result.matches == 0


# -- reference match count ---------------------------------------------------


class TestReferenceMatchCount:
    def test_empty_build_side_has_no_matches(self):
        build = table_of("r", np.array([], dtype=np.int32))
        probe = table_of("s", np.array([1, 2, 3], dtype=np.int32))
        assert JoinAlgorithm.reference_match_count(build, probe) == 0

    def test_counts_probe_rows_with_a_build_key(self):
        build = table_of("r", np.array([4, 1, 9], dtype=np.int32))
        probe = table_of("s", np.array([1, 2, 9, 9, 10], dtype=np.int32))
        assert JoinAlgorithm.reference_match_count(build, probe) == 3
