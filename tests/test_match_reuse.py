"""Join matches are computed once per key pair within one experiment scope.

The behaviour every experiment memo shares is in ``tests/memo_contract.py``;
this file applies it to the ``match_first`` memo and adds its own cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import run_experiment
from repro.core.joins import pht
from repro.core.structures import hashtable
from repro.core.structures.hashtable import ChainedHashTable, match_first
from repro.reuse import experiment_scope
from tests import memo_contract as contract
from tests.memo_contract import MATCHES

KEY_DTYPES = st.sampled_from([np.int32, np.int64, np.uint32, np.uint64])
LOAD_FACTORS = st.sampled_from([0.5, 1, 2.0])
# A narrow value range gives duplicate build keys and probe misses.
KEYS = st.lists(st.integers(0, 40), max_size=60)


def _reference(build_keys, probe_keys, load_factor=1.0):
    table = ChainedHashTable(build_keys, np.zeros(len(build_keys)), load_factor)
    return table.probe_first(probe_keys)


def _assert_same(actual, expected):
    for a, e in zip(actual, expected):
        assert a.dtype == e.dtype
        assert a.tobytes() == e.tobytes()


def _held():
    return len(MATCHES.memo)


class TestEqualsTheHashTable:
    @given(build=KEYS, probe=KEYS, dtype=KEY_DTYPES, load=LOAD_FACTORS)
    @settings(max_examples=200, deadline=None)
    def test_inside_and_outside_a_scope(self, build, probe, dtype, load):
        build_keys = np.array(build, dtype=dtype)
        probe_keys = np.array(probe, dtype=dtype)
        expected = _reference(build_keys, probe_keys, load)
        _assert_same(match_first(build_keys, probe_keys, load), expected)
        with experiment_scope():
            first = match_first(build_keys, probe_keys, load)
            again = match_first(build_keys.copy(), probe_keys.copy(), load)
            assert again is first
            _assert_same(first, expected)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
    def test_duplicates_empties_and_all_misses(self, dtype):
        keys = np.array([5, 5, 1, 5, 9], dtype=dtype)
        cases = [
            (keys, np.array([5, 9, 2, 5], dtype=dtype)),
            (keys, np.array([], dtype=dtype)),
            (np.array([], dtype=dtype), keys),
            (keys, np.array([100, 200, 300], dtype=dtype)),
        ]
        with experiment_scope():
            for build_keys, probe_keys in cases:
                expected = _reference(build_keys, probe_keys)
                _assert_same(match_first(build_keys, probe_keys), expected)
                _assert_same(match_first(build_keys, probe_keys), expected)
        # The highest build row with the key is the first chain hit.
        assert match_first(keys, keys[:1])[0].tolist() == [3]


class TestKeyedByContent:
    def test_equal_bytes_of_different_width_do_not_share(self):
        narrow = np.array([1, 0, 2, 0], dtype=np.int32)
        wide = narrow.view(np.int64)  # [1, 2]: the same bytes
        probe = np.array([2], dtype=np.int64)
        with experiment_scope():
            _assert_same(match_first(narrow, probe), _reference(narrow, probe))
            _assert_same(match_first(wide, probe), _reference(wide, probe))
            assert _held() == 2

    @pytest.mark.parametrize("side", ["build", "probe"])
    def test_equal_bytes_of_different_sign_do_not_share(self, side):
        signed = np.array([-1, 7], dtype=np.int32)
        unsigned = signed.view(np.uint32)  # same length, same bytes
        with experiment_scope():
            for other in (signed, unsigned):
                build, probe = (other, signed) if side == "build" else (signed, other)
                _assert_same(match_first(build, probe), _reference(build, probe))

    def test_load_factor_is_part_of_the_key(self):
        keys = np.arange(64, dtype=np.int32)
        with experiment_scope():
            assert match_first(keys, keys, 0.5) is not match_first(keys, keys, 2.0)

    def test_distinct_arrays_with_equal_keys_share_an_entry(self):
        build = np.array([3, 1, 4, 1, 5], dtype=np.int32)
        probe = np.array([1, 5, 9], dtype=np.int32)
        with experiment_scope():
            first = match_first(build, probe)
            assert match_first(build.copy(), probe.copy()) is first
            assert _held() == 1

    def test_changed_contents_are_a_new_key(self):
        build = np.array([3, 1, 4], dtype=np.int32)
        probe = np.array([4], dtype=np.int32)
        with experiment_scope():
            assert match_first(build, probe)[0].tolist() == [2]
            build[2] = 0  # same array object, different keys
            assert match_first(build, probe)[0].tolist() == [-1]


class TestSharing:
    def test_read_only_inside_a_scope(self):
        contract.check_read_only_inside_a_scope(MATCHES)

    def test_fresh_and_writable_outside_a_scope(self):
        contract.check_fresh_and_writable_outside_a_scope(MATCHES)

    def test_scopes_nest_and_only_the_outermost_empties(self):
        contract.check_scopes_nest_and_only_the_outermost_empties(MATCHES)


class TestByteBound:
    ROWS = 100

    def _probe(self, seed):
        return np.full(self.ROWS, seed, dtype=np.int32)

    def test_bytes_held_never_exceed_the_bound(self, monkeypatch):
        contract.check_bound_holds_and_keeps_the_newest(MATCHES, monkeypatch)
        # The bound counts the bytes the kept arrays hold.
        with experiment_scope():
            build_index, hit_mask = MATCHES.call(0)
            assert MATCHES.memo.held == build_index.nbytes + hit_mask.nbytes

    def test_recently_used_entries_survive_eviction(self, monkeypatch):
        contract.check_recently_used_entries_survive_eviction(MATCHES, monkeypatch)

    def test_matches_larger_than_the_bound_are_fresh_and_not_kept(self, monkeypatch):
        contract.keep_a_few(MATCHES, monkeypatch)
        build = np.arange(10, dtype=np.int32)
        probe = np.arange(4 * self.ROWS, dtype=np.int32)
        with experiment_scope():
            match_first(build, self._probe(1))
            result = match_first(build, probe)
            _assert_same(result, _reference(build, probe))
            assert all(array.flags.writeable for array in result)
            assert match_first(build, probe) is not result
            assert _held() == 1  # the smaller entry was not evicted for it


class TestSharedAcrossThreads:
    def test_threads_in_one_scope_share_one_result_per_key(self, monkeypatch):
        contract.check_threads_in_one_scope_share_one_value_per_key(
            MATCHES, monkeypatch
        )


class TestRunExperimentScope:
    def test_fig04_reuses_matches_and_empties_the_memo(self, monkeypatch):
        computed, lookups = [], []
        match, lookup = hashtable._match, pht.match_first
        monkeypatch.setattr(
            hashtable, "_match", lambda *args: computed.append(1) or match(*args)
        )
        monkeypatch.setattr(
            pht, "match_first", lambda *args: lookups.append(1) or lookup(*args)
        )
        run_experiment("fig04")
        assert _held() == 0
        # fig04 joins with PHT only; plain and SGX share matches.
        assert 0 < len(computed) <= len(lookups) // 2

    def test_memo_is_empty_after_run_experiment_raises(self, monkeypatch):
        contract.check_memo_is_empty_after_run_experiment_raises(
            (MATCHES,), monkeypatch
        )

    def test_repetition_threads_match_the_serial_run(self):
        contract.check_repetition_threads_match_the_serial_run("fig04")
