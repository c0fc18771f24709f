"""Generated datasets are reused, read-only, within one experiment scope."""

import sys
import threading
import types

import numpy as np
import pytest

from repro.bench import run_experiment
from repro.bench.registry import EXPERIMENTS
from repro.bench.runner import use_repetition_jobs
from repro.tables import (
    generate_join_relation_pair,
    generate_tpch,
    reuse_generated_data,
)
from repro.tables.generator import REUSED_PAIRS
from repro.tables.reuse import reused_entries, reused_within_scope
from repro.tables.tpch import REUSED_DATASETS

SF_CAP = 0.002
ROW_CAP = 2_000


def _tpch(seed, scale_factor=0.5):
    return generate_tpch(scale_factor, seed=seed, physical_sf_cap=SF_CAP)


def _pair(seed):
    return generate_join_relation_pair(1e5, 4e5, seed=seed, physical_row_cap=ROW_CAP)


def _columns(tables):
    return [table[name] for table in tables for name in table.column_names]


def _held():
    return sum(reused_entries().values())


class TestInsideAScope:
    def test_repeated_call_returns_the_same_object(self):
        with reuse_generated_data():
            assert _tpch(1) is _tpch(1)
            assert _pair(1) is _pair(1)
            # Defaults are bound before keying: an explicit default is a hit.
            data = generate_tpch(0.5, physical_sf_cap=SF_CAP)
            assert generate_tpch(0.5, seed=7, physical_sf_cap=SF_CAP) is data

    def test_in_place_write_raises(self):
        with reuse_generated_data():
            data = _tpch(1)
            build, probe = _pair(1)
            for column in _columns(data.tables) + _columns((build, probe)):
                assert not column.flags.writeable
            with pytest.raises(ValueError):
                data.lineitem["l_quantity"][0] = 0
            with pytest.raises(ValueError):
                build["key"] += 1

    def test_reused_data_equals_fresh_data(self):
        fresh = _tpch(3)
        with reuse_generated_data():
            _tpch(3)
            reused = _tpch(3)
        for a, b in zip(_columns(fresh.tables), _columns(reused.tables)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_int_and_float_arguments_are_distinct_entries(self):
        with reuse_generated_data():
            as_int = generate_tpch(1, physical_sf_cap=SF_CAP)
            as_float = generate_tpch(1.0, physical_sf_cap=SF_CAP)
            assert as_int is not as_float
            assert type(as_int.scale_factor) is int
            assert type(as_float.scale_factor) is float
            assert reused_entries()["generate_tpch"] == 2

    def test_scopes_nest_and_only_the_outermost_empties(self):
        with reuse_generated_data():
            data = _tpch(1)
            with reuse_generated_data():
                assert _tpch(1) is data
            assert _tpch(1) is data
        assert _held() == 0


class TestOutsideAScope:
    def test_arrays_are_fresh_and_writable(self):
        first, second = _tpch(1), _tpch(1)
        assert first is not second
        for a, b in zip(_columns(first.tables), _columns(second.tables)):
            assert a.flags.writeable and b.flags.writeable
            assert not np.shares_memory(a, b)
        build, _ = _pair(1)
        build["key"][0] = -1
        assert _pair(1)[0]["key"][0] != -1
        assert _held() == 0


class TestBound:
    def test_lru_never_holds_more_than_its_bound(self):
        with reuse_generated_data():
            datasets = []
            for seed in range(REUSED_DATASETS + 2):
                datasets.append(_tpch(seed))
                _pair(seed)
                assert reused_entries()["generate_tpch"] <= REUSED_DATASETS
                assert reused_entries()["generate_join_relation_pair"] <= REUSED_PAIRS
            # The newest datasets are kept; the oldest was evicted.
            assert _tpch(REUSED_DATASETS + 1) is datasets[-1]
            assert _tpch(0) is not datasets[0]

    def test_recently_used_entries_survive_eviction(self):
        with reuse_generated_data():
            first = _tpch(0)
            for seed in range(1, REUSED_DATASETS):
                _tpch(seed)
            assert _tpch(0) is first  # refreshed: now the newest entry
            _tpch(REUSED_DATASETS)  # evicts seed 1, not seed 0
            assert _tpch(0) is first

    def test_evicts_before_it_generates(self):
        held_while_generating = []

        @reused_within_scope(2, tables=lambda table: (table,))
        def small_table(seed):
            held_while_generating.append(reused_entries()["small_table"])
            return generate_tpch(0.5, seed=seed, physical_sf_cap=SF_CAP).part

        with reuse_generated_data():
            for seed in range(5):
                small_table(seed)
        assert held_while_generating == [0, 1, 1, 1, 1]


class TestSharedAcrossThreads:
    def test_threads_in_one_scope_share_one_copy_per_key(self):
        seeds = range(REUSED_DATASETS)  # all fit: nothing is evicted
        seen = [[] for _ in seeds]
        errors = []

        def worker():
            try:
                for _ in range(4):
                    for seed in seeds:
                        seen[seed].append(_tpch(seed))
                        assert reused_entries()["generate_tpch"] <= REUSED_DATASETS
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with reuse_generated_data():
                threads = [threading.Thread(target=worker) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        for objects in seen:
            assert len(objects) == 6 * 4
            assert all(obj is objects[0] for obj in objects)
        assert _held() == 0


def _failing_experiment():
    def run(machine=None, *, quick=True):
        _tpch(1)
        _pair(1)
        assert _held() == 2
        raise RuntimeError("boom")

    return types.SimpleNamespace(run=run)


class TestRunExperimentScope:
    def test_memo_is_empty_after_run_experiment_returns(self):
        run_experiment("fig04")
        assert _held() == 0

    def test_memo_is_empty_after_run_experiment_raises(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "boom", _failing_experiment())
        with pytest.raises(RuntimeError, match="boom"):
            run_experiment("boom")
        assert _held() == 0

    def test_repetition_threads_match_the_serial_run(self):
        serial = run_experiment("fig17").to_csv()
        with use_repetition_jobs(2):
            threaded = run_experiment("fig17").to_csv()
        assert threaded == serial
        assert _held() == 0
