"""Generated datasets are reused, read-only, within one experiment scope.

The behaviour every experiment memo shares is in ``tests/memo_contract.py``;
this file applies it to the two generator memos and adds their own cases.
"""

import weakref

import numpy as np

from repro import reuse
from repro.reuse import experiment_scope, reused_within_scope
from repro.tables import Column, Table, generate_tpch
from tests import memo_contract as contract
from tests.memo_contract import PAIR, TPCH

GENERATORS = (TPCH, PAIR)
SF_CAP = 0.002


def _tpch(seed, scale_factor=0.5):
    return generate_tpch(scale_factor, seed=seed, physical_sf_cap=SF_CAP)


def _columns(tables):
    return [table[name] for table in tables for name in table.column_names]


class TestInsideAScope:
    def test_repeated_call_returns_the_same_object(self):
        with experiment_scope():
            for case in GENERATORS:
                assert case.call(1) is case.call(1)
            # Defaults are bound before keying: an explicit default is a hit.
            data = generate_tpch(0.5, physical_sf_cap=SF_CAP)
            assert generate_tpch(0.5, seed=7, physical_sf_cap=SF_CAP) is data

    def test_in_place_write_raises(self):
        for case in GENERATORS:
            contract.check_read_only_inside_a_scope(case)

    def test_reused_data_equals_fresh_data(self):
        fresh = _tpch(3)
        with experiment_scope():
            _tpch(3)
            reused = _tpch(3)
        for a, b in zip(_columns(fresh.tables), _columns(reused.tables)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_int_and_float_arguments_are_distinct_entries(self):
        with experiment_scope():
            as_int = generate_tpch(1, physical_sf_cap=SF_CAP)
            as_float = generate_tpch(1.0, physical_sf_cap=SF_CAP)
            assert as_int is not as_float
            assert type(as_int.scale_factor) is int
            assert type(as_float.scale_factor) is float
            assert len(TPCH.memo) == 2

    def test_scopes_nest_and_only_the_outermost_empties(self):
        for case in GENERATORS:
            contract.check_scopes_nest_and_only_the_outermost_empties(case)


class TestOutsideAScope:
    def test_arrays_are_fresh_and_writable(self):
        for case in GENERATORS:
            contract.check_fresh_and_writable_outside_a_scope(case)


class TestBound:
    def test_lru_never_holds_more_than_its_bound(self, monkeypatch):
        for case in GENERATORS:
            contract.check_bound_holds_and_keeps_the_newest(case, monkeypatch)

    def test_recently_used_entries_survive_eviction(self, monkeypatch):
        for case in GENERATORS:
            contract.check_recently_used_entries_survive_eviction(case, monkeypatch)

    def test_evicts_before_it_generates(self, monkeypatch):
        monkeypatch.setattr(reuse, "MEMOS", dict(reuse.MEMOS))
        held_while_generating = []
        alive_while_generating = []
        generated = []  # a weak reference to each generated column

        @reused_within_scope(2, tables=lambda table: (table,))
        def small_table(seed):
            held_while_generating.append(len(reuse.MEMOS["small_table"]))
            alive_while_generating.append(
                sum(ref() is not None for ref in generated)
            )
            table = Table("t", [Column("k", np.full(4, seed, dtype=np.int32))])
            generated.append(weakref.ref(table["k"]))
            return table

        with experiment_scope():
            for seed in range(5):
                small_table(seed)
        assert held_while_generating == [0, 1, 1, 1, 1]
        # Nothing keeps an evicted result alive while the next one is made.
        assert alive_while_generating == [0, 1, 1, 1, 1]


class TestSharedAcrossThreads:
    def test_threads_in_one_scope_share_one_copy_per_key(self, monkeypatch):
        for case in GENERATORS:
            contract.check_threads_in_one_scope_share_one_value_per_key(
                case, monkeypatch
            )


class TestRunExperimentScope:
    def test_memo_is_empty_after_run_experiment_returns(self):
        contract.check_memo_is_empty_after_run_experiment_returns("fig04")

    def test_memo_is_empty_after_run_experiment_raises(self, monkeypatch):
        contract.check_memo_is_empty_after_run_experiment_raises(
            GENERATORS, monkeypatch
        )

    def test_repetition_threads_match_the_serial_run(self):
        contract.check_repetition_threads_match_the_serial_run("fig17")
