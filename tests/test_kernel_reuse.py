"""Setting-independent kernels run once per physical input, and the dense
fast paths equal the general kernels they stand in for.

* Generated join pairs are shared by physical shape: every logical size
  past the row cap is the same physical pair at its seed.
* The uniform skew baseline is a memo of its own (the shared contract in
  ``tests/memo_contract.py`` applies to it here).
* Dense build keys are matched through a position array, dense group
  keys grouped through a ``bincount``; both equal the general kernels in
  values and dtypes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reuse
from repro.bench import run_experiment
from repro.bench.experiments import common
from repro.bench.experiments import fig04_pht_random_access as fig04
from repro.core.joins.skew import skew_gain, uniform_counts
from repro.core.ops.aggregate import AggFunc, HashAggregate, group_rows
from repro.core.structures import hashtable
from repro.core.structures.hashtable import ChainedHashTable, dense_match, match_first
from repro.enclave.runtime import ExecutionSetting
from repro.machine import SimMachine
from repro.reuse import experiment_scope, frozen_serial
from repro.tables import generator
from repro.tables.generator import (
    generate_join_relation_pair,
    generate_key_value_table,
    rows_for_bytes,
)
from tests import memo_contract as contract
from tests.memo_contract import BASELINES

INT_DTYPES = st.sampled_from([np.int32, np.int64, np.uint64])
FIG04_SEEDS = [42 + run for run in range(common.QUICK_RUNS)]


def _same(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.dtype == e.dtype
        assert a.tobytes() == e.tobytes()


def _table_match(build_keys, probe_keys):
    return ChainedHashTable(build_keys, build_keys).probe_first(probe_keys)


# -- shared join pairs --------------------------------------------------------


def _reference_pair(build_bytes, probe_bytes, seed, cap):
    """The pair as generated before pairs were shared: build table first,
    then the probe draws from the same generator."""
    rng = np.random.default_rng(seed)
    build = generate_key_value_table("R", build_bytes, rng=rng, physical_row_cap=cap)
    logical = rows_for_bytes(probe_bytes)
    physical = min(logical, cap)
    picks = rng.integers(0, build.num_rows, size=physical, dtype=np.int32)
    keys = build["key"][picks]
    payload = rng.integers(0, 2**31 - 1, size=physical, dtype=np.int32)
    return build, (keys, payload), logical / physical


class TestSharedPairs:
    @pytest.mark.parametrize("build_mb", fig04.BUILD_SIZES_MB)
    @pytest.mark.parametrize("seed", FIG04_SEEDS)
    def test_equal_a_fresh_generation_at_every_fig04_size(self, build_mb, seed):
        cap = common.QUICK_ROW_CAP
        args = (build_mb * 1e6, common.PROBE_BYTES)
        build_ref, probe_ref, probe_scale = _reference_pair(*args, seed, cap)
        fresh = generate_join_relation_pair(*args, seed=seed, physical_row_cap=cap)
        with experiment_scope():
            generate_join_relation_pair(10e6, args[1], seed=seed, physical_row_cap=cap)
            shared = generate_join_relation_pair(*args, seed=seed, physical_row_cap=cap)
            for build, probe in (fresh, shared):
                _same([build["key"], build["payload"]],
                      [build_ref["key"], build_ref["payload"]])
                _same([probe["key"], probe["payload"]], list(probe_ref))
                assert build.sim_scale == build_ref.sim_scale
                assert probe.sim_scale == probe_scale

    def test_sizes_past_the_cap_share_arrays_but_not_scales(self):
        cap = 2_000
        with experiment_scope():
            small = generate_join_relation_pair(1e5, 4e5, physical_row_cap=cap)
            large = generate_join_relation_pair(1e6, 4e5, physical_row_cap=cap)
            assert large is not small
            assert large[0]["key"] is small[0]["key"]
            assert large[1]["payload"] is small[1]["payload"]
            assert (small[0].sim_scale, large[0].sim_scale) == (6.25, 62.5)
            assert len(reuse.MEMOS["generate_join_relation_pair"]) == 1
            assert generate_join_relation_pair(1e6, 4e5, physical_row_cap=cap) is large

    def test_other_shapes_and_seeds_are_other_arrays(self):
        cap = 2_000
        with experiment_scope():
            base = generate_join_relation_pair(1e6, 4e5, physical_row_cap=cap)
            below_cap = generate_join_relation_pair(1e4, 4e5, physical_row_cap=cap)
            other_seed = generate_join_relation_pair(
                1e6, 4e5, seed=7, physical_row_cap=cap
            )
            assert below_cap[0].num_rows == 1_250
            for pair in (below_cap, other_seed):
                assert not np.shares_memory(pair[0]["key"], base[0]["key"])


# -- the uniform skew baseline ------------------------------------------------


class TestUniformBaseline:
    def test_counts_equal_the_unmemoized_draw(self):
        rng = np.random.default_rng(3)
        expected = np.bincount(rng.integers(0, 500, 4_000), minlength=500)
        with experiment_scope():
            counts = uniform_counts(500, 4_000, 3)
            assert counts.dtype == np.int32
            assert np.array_equal(counts, expected)
            assert uniform_counts(500, 4_000, 3) is counts

    def test_skew_gain_is_unchanged_inside_a_scope(self):
        frequencies = np.bincount(
            np.random.default_rng(5).zipf(1.3, 20_000) % 2_000, minlength=2_000
        )
        outside = skew_gain(frequencies, 16, 4_000, sim_scale=3.0)
        with experiment_scope():
            inside = [skew_gain(frequencies, 16, 4_000, sim_scale=3.0) for _ in "ab"]
        assert inside == [outside, outside]
        assert outside > 1.0

    def test_read_only_inside_a_scope(self):
        contract.check_read_only_inside_a_scope(BASELINES)

    def test_fresh_and_writable_outside_a_scope(self):
        contract.check_fresh_and_writable_outside_a_scope(BASELINES)

    def test_scopes_nest_and_only_the_outermost_empties(self):
        contract.check_scopes_nest_and_only_the_outermost_empties(BASELINES)

    def test_bytes_held_never_exceed_the_bound(self, monkeypatch):
        contract.check_bound_holds_and_keeps_the_newest(BASELINES, monkeypatch)

    def test_recently_used_entries_survive_eviction(self, monkeypatch):
        contract.check_recently_used_entries_survive_eviction(BASELINES, monkeypatch)

    def test_threads_in_one_scope_share_one_value_per_key(self, monkeypatch):
        contract.check_threads_in_one_scope_share_one_value_per_key(
            BASELINES, monkeypatch
        )

    def test_memo_is_empty_after_run_experiment_raises(self, monkeypatch):
        contract.check_memo_is_empty_after_run_experiment_raises(
            (BASELINES,), monkeypatch
        )


# -- frozen arrays are looked up by serial ------------------------------------


class TestFrozenSerials:
    def test_only_memo_frozen_arrays_in_the_open_scope_have_one(self):
        with experiment_scope():
            build, probe = generate_join_relation_pair(
                1e5, 4e5, physical_row_cap=2_000
            )
            keys = build["key"]
            serial = frozen_serial(keys)
            assert serial is not None
            assert frozen_serial(probe["key"]) not in (None, serial)
            assert frozen_serial(keys.copy()) is None
            assert frozen_serial(keys[:]) is None  # a view
            readonly = np.arange(4)
            readonly.flags.writeable = False
            assert frozen_serial(readonly) is None
        assert frozen_serial(keys) is None

    def test_an_array_made_writable_again_is_hashed(self):
        with experiment_scope():
            counts = uniform_counts(10, 50, 0)
            assert frozen_serial(counts) is not None
            counts.flags.writeable = True
            assert frozen_serial(counts) is None

    def test_frozen_keys_skip_the_digest(self, monkeypatch):
        digests = []
        blake2b = hashtable.hashlib.blake2b
        monkeypatch.setattr(
            hashtable.hashlib,
            "blake2b",
            lambda *args, **kwargs: digests.append(1) or blake2b(*args, **kwargs),
        )
        with experiment_scope():
            build, probe = generate_join_relation_pair(
                1e5, 4e5, physical_row_cap=2_000
            )
            first = match_first(build["key"], probe["key"])
            assert match_first(build["key"], probe["key"]) is first
            assert digests == []
            copied = match_first(build["key"].copy(), probe["key"])
            _same(copied, first)
            assert digests == [1]


# -- the dense match kernel ---------------------------------------------------


def _build_keys(draw, dtype, n):
    """Unique keys below 2n, or keys with gaps, duplicates or large values."""
    shape = draw(st.sampled_from(["permutation", "gaps", "large", "duplicates"]))
    if shape == "permutation":
        keys = np.random.default_rng(draw(st.integers(0, 99))).permutation(n)
    elif shape == "gaps":
        keys = np.random.default_rng(draw(st.integers(0, 99))).choice(
            2 * n, size=n, replace=False
        )
    elif shape == "large":
        keys = draw(st.lists(st.integers(0, 4 * n + 5), min_size=n, max_size=n))
        keys = np.array(keys)
        keys[0] = 2 * n  # at the bound: too sparse for the position array
    else:
        keys = np.array(draw(st.lists(st.integers(0, n), min_size=n, max_size=n)))
    return np.asarray(keys).astype(dtype)


@st.composite
def match_inputs(draw):
    build_dtype, probe_dtype = draw(INT_DTYPES), draw(INT_DTYPES)
    n = draw(st.integers(0, 40))
    build = _build_keys(draw, build_dtype, n) if n else np.array([], build_dtype)
    low = 0 if np.dtype(probe_dtype).kind == "u" else -5
    probe = draw(st.lists(st.integers(low, 3 * n + 5), max_size=60))
    return build, np.array(probe, dtype=probe_dtype)


class TestDenseMatch:
    @given(match_inputs())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_hash_table(self, inputs):
        build, probe = inputs
        expected = _table_match(build, probe)
        dense = dense_match(build, probe)
        if dense is not None:
            _same(dense, expected)
        _same(match_first(build, probe), expected)

    def test_takes_the_dense_path_only_for_unique_keys_below_2n(self):
        probe = np.array([0, 3, 7, -1], dtype=np.int64)
        assert dense_match(np.array([3, 0, 5, 1]), probe) is not None
        assert dense_match(np.array([3, 0, 8, 1]), probe) is None  # 8 >= 2n
        assert dense_match(np.array([3, 0, 3, 1]), probe) is None  # duplicate
        assert dense_match(np.array([3, -1, 5, 1]), probe) is None  # negative
        assert dense_match(np.array([], dtype=np.int64), probe) is None
        assert dense_match(np.array([1.0, 0.0]), probe) is None  # not integers
        assert dense_match(np.array([1, 0]), probe.astype(float)) is None

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
    def test_out_of_range_and_empty_probes(self, dtype):
        build = np.array([2, 0, 1], dtype=dtype)
        huge = np.iinfo(dtype).max
        for probe in ([huge, 6, 2, 0], []):
            probe = np.array(probe, dtype=dtype)
            _same(dense_match(build, probe), _table_match(build, probe))

    def test_generated_pairs_take_the_dense_path(self):
        build, probe = generate_join_relation_pair(1e6, 4e6, physical_row_cap=5_000)
        dense = dense_match(build["key"], probe["key"])
        assert dense is not None and dense[1].all()
        _same(dense, _table_match(build["key"], probe["key"]))


class TestNarrowChains:
    def test_heads_and_links_are_int32_and_probe_alike(self):
        keys = np.array([5, 5, 1, 5, 9, 17, 33], dtype=np.int64)
        table = ChainedHashTable(keys, keys, load_factor=4.0)
        assert table.heads.dtype == table.links.dtype == np.int32
        index, hits = table.probe_first(np.array([5, 9, 2, 33]))
        assert index.dtype == np.int64 and hits.dtype == np.bool_
        assert index.tolist() == [3, 4, -1, 6]
        assert table.probe_count(np.array([5, 1, 2])).tolist() == [3, 1, 0]


# -- the dense group-by -------------------------------------------------------


@st.composite
def group_keys(draw):
    dtype = draw(st.sampled_from([np.int8, np.int32, np.int64, np.uint32, np.uint64]))
    n = draw(st.integers(0, 80))
    high = draw(st.sampled_from([1, n + 1, 4 * n + 3, 1_000]))
    low = 0 if np.dtype(dtype).kind == "u" else draw(st.sampled_from([0, -3]))
    high = min(high, int(np.iinfo(dtype).max))
    keys = draw(st.lists(st.integers(low, high), min_size=n, max_size=n))
    return np.array(keys, dtype=dtype)


class TestDenseGroupBy:
    @given(group_keys(), st.integers(0, 9))
    @settings(max_examples=300, deadline=None)
    def test_equals_np_unique_and_its_sums(self, keys, seed):
        expected = np.unique(keys, return_inverse=True)
        _same(group_rows(keys), expected)
        values = np.random.default_rng(seed).integers(0, 1_000, len(keys))
        sums = np.bincount(expected[1], weights=values, minlength=len(expected[0]))
        result = self._aggregate(keys, values)
        _same([result.group_keys], [expected[0]])
        _same([result.aggregates["sum"]], [sums])

    @staticmethod
    def _aggregate(keys, values):
        machine = SimMachine()
        with machine.context(ExecutionSetting.plain_cpu(), threads=2) as ctx:
            return HashAggregate().run(ctx, keys, values, (AggFunc.COUNT, AggFunc.SUM))

    def test_sparse_keys_keep_np_unique(self, monkeypatch):
        calls = []
        unique = np.unique
        monkeypatch.setattr(
            np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k)
        )
        group_rows(np.array([0, 3, 1, 3]))  # dense
        assert calls == []
        group_rows(np.array([0, 16, 1, 3]))  # max >= 4n
        group_rows(np.array([0, -1, 1, 3]))  # negative
        group_rows(np.array([0.0, 1.0]))  # not integers
        assert len(calls) == 3


# -- fig04 end to end ---------------------------------------------------------


class TestFig04:
    def test_makes_six_pair_generations_and_six_match_computations(
        self, monkeypatch
    ):
        generated, computed = [], []
        pair_arrays, match = generator._pair_arrays, hashtable._match
        monkeypatch.setattr(
            generator,
            "_pair_arrays",
            lambda *args: generated.append(args) or pair_arrays(*args),
        )
        monkeypatch.setattr(
            hashtable, "_match", lambda *args: computed.append(1) or match(*args)
        )
        run_experiment("fig04")
        # Two physical shapes (the 1 MB build side is below the cap) per seed.
        assert sorted(generated) == sorted(
            (rows, common.QUICK_ROW_CAP, seed)
            for rows in (125_000, common.QUICK_ROW_CAP)
            for seed in FIG04_SEEDS
        )
        assert len(computed) == 6

    def test_quick_run_allocates_at_most_22_mib(self):
        tracemalloc.start()
        try:
            run_experiment("fig04")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 22 << 20
