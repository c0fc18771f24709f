"""Property-based tests: hash table, B+-tree, LCG."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.micro import Lcg, build_pointer_cycle
from repro.core.structures.btree import BPlusTree
from repro.core.structures.hashtable import ChainedHashTable, next_power_of_two

unique_keys = st.lists(
    st.integers(min_value=0, max_value=2**31 - 1),
    min_size=1,
    max_size=300,
    unique=True,
)
any_keys = st.lists(
    st.integers(min_value=0, max_value=2**31 - 1), min_size=0, max_size=300
)


class TestHashTableProperties:
    @given(build=unique_keys, probe=any_keys)
    @settings(max_examples=60, deadline=None)
    def test_probe_first_equals_set_membership(self, build, probe):
        build_arr = np.array(build, dtype=np.int64)
        probe_arr = np.array(probe, dtype=np.int64)
        table = ChainedHashTable(build_arr, build_arr * 2)
        index, hits = table.probe_first(probe_arr)
        expected = np.isin(probe_arr, build_arr)
        assert np.array_equal(hits, expected)
        assert (build_arr[index[hits]] == probe_arr[hits]).all()

    @given(keys=any_keys)
    @settings(max_examples=60, deadline=None)
    def test_probe_count_equals_multiplicity(self, keys):
        keys_arr = np.array(keys, dtype=np.int64)
        table = ChainedHashTable(keys_arr, keys_arr)
        distinct = np.unique(keys_arr)
        counts = table.probe_count(distinct)
        for key, count in zip(distinct, counts):
            assert count == (keys_arr == key).sum()

    @given(keys=unique_keys, load=st.floats(min_value=0.25, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_all_inserted_keys_findable(self, keys, load):
        keys_arr = np.array(keys, dtype=np.int64)
        table = ChainedHashTable(keys_arr, keys_arr, load_factor=load)
        _, hits = table.probe_first(keys_arr)
        assert hits.all()

    @given(value=st.integers(min_value=0, max_value=2**30))
    def test_next_power_of_two_properties(self, value):
        result = next_power_of_two(value)
        assert result >= max(value, 1)
        assert result & (result - 1) == 0
        if result > 1:
            assert result // 2 < max(value, 1)


class TestBTreeProperties:
    @given(build=unique_keys, probe=any_keys)
    @settings(max_examples=60, deadline=None)
    def test_lookup_equals_set_membership(self, build, probe):
        build_arr = np.array(build, dtype=np.int64)
        probe_arr = np.array(probe, dtype=np.int64)
        tree = BPlusTree(build_arr, build_arr * 3)
        positions, hits = tree.lookup(probe_arr)
        assert np.array_equal(hits, np.isin(probe_arr, build_arr))
        assert (tree.leaf_keys[positions[hits]] == probe_arr[hits]).all()

    @given(build=unique_keys, fanout=st.integers(min_value=2, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_height_bounds(self, build, fanout):
        tree = BPlusTree(np.array(build, dtype=np.int64), np.zeros(len(build)),
                         fanout=fanout)
        n = len(build)
        assert tree.height >= 1
        # Each extra level multiplies capacity by the fanout.
        assert fanout ** (tree.height - 1) <= max(n, 1) * fanout


class TestPointerCycleProperties:
    @given(slots=st.integers(min_value=1, max_value=500),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_single_cycle(self, slots, seed):
        chain = build_pointer_cycle(slots, np.random.default_rng(seed))
        position, seen = 0, set()
        for _ in range(slots):
            assert position not in seen
            seen.add(position)
            position = int(chain[position])
        assert position == 0
        assert len(seen) == slots


class TestLcgProperties:
    @given(seed=st.integers(min_value=0, max_value=2**64 - 1),
           split=st.integers(min_value=1, max_value=63))
    @settings(max_examples=40, deadline=None)
    def test_batch_split_invariance(self, seed, split):
        whole = Lcg(seed).batch(64)
        lcg = Lcg(seed)
        parts = np.concatenate([lcg.batch(split), lcg.batch(64 - split)])
        assert np.array_equal(whole, parts)
