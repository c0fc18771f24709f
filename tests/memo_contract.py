"""The behaviour every experiment memo of :mod:`repro.reuse` shares.

Each check takes a :class:`MemoCase`, one per registered memo, so the
behaviour is written once and each memo's test file applies it to its
memo (``test_generated_reuse``: the generators, ``test_match_reuse``:
join matches, ``test_kernel_reuse``: uniform skew baselines).
``tests/test_reuse.py`` checks that every registered memo has a case
here.
"""

from __future__ import annotations

import sys
import threading
import types
from dataclasses import dataclass
from typing import Any, Callable, List

import numpy as np
import pytest

from repro import reuse
from repro.bench import run_experiment
from repro.bench.registry import EXPERIMENTS
from repro.bench.runner import use_repetition_jobs
from repro.core.joins.skew import uniform_counts
from repro.core.structures.hashtable import match_first
from repro.reuse import experiment_scope
from repro.tables import generate_join_relation_pair, generate_tpch

#: Entries a bounded check lets a memo keep.
KEPT = 3


@dataclass(frozen=True)
class MemoCase:
    """How to drive one registered memo with distinct keys."""

    name: str
    call: Callable[[int], Any]  # seed -> the memoized value for that key
    arrays: Callable[[Any], List[np.ndarray]]
    entry_size: int = 1  # what one value counts against the bound

    @property
    def memo(self) -> reuse.ScopedLRU:
        return reuse.MEMOS[self.name]


def _columns(tables) -> List[np.ndarray]:
    return [table[name] for table in tables for name in table.column_names]


_MATCH_ROWS = 100
_MATCH_BUILD = np.arange(10, dtype=np.int32)

TPCH = MemoCase(
    "generate_tpch",
    lambda seed: generate_tpch(0.5, seed=seed, physical_sf_cap=0.002),
    lambda data: _columns(data.tables),
)
PAIR = MemoCase(
    "generate_join_relation_pair",
    lambda seed: generate_join_relation_pair(
        1e5, 4e5, seed=seed, physical_row_cap=2_000
    ),
    _columns,
)
MATCHES = MemoCase(
    "match_first",
    lambda seed: match_first(
        _MATCH_BUILD, np.full(_MATCH_ROWS, seed, dtype=np.int32)
    ),
    list,
    entry_size=_MATCH_ROWS * (8 + 1),  # int64 build index + bool hit flag
)
_BASELINE_ENTRIES = 100
BASELINES = MemoCase(
    "uniform_counts",
    lambda seed: uniform_counts(_BASELINE_ENTRIES, 1_000, seed),
    lambda counts: [counts],
    entry_size=_BASELINE_ENTRIES * 4,  # an int32 count per entry
)
CASES = (TPCH, PAIR, MATCHES, BASELINES)


def held() -> int:
    """Entries every registered memo holds together."""
    return sum(len(memo) for memo in reuse.MEMOS.values())


def keep_a_few(case: MemoCase, monkeypatch) -> None:
    """Bound ``case``'s memo to :data:`KEPT` of its entries."""
    monkeypatch.setattr(case.memo, "limit", KEPT * case.entry_size)


def check_read_only_inside_a_scope(case: MemoCase) -> None:
    with experiment_scope():
        arrays = case.arrays(case.call(1))
        assert arrays
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = 0


def check_fresh_and_writable_outside_a_scope(case: MemoCase) -> None:
    with experiment_scope():
        case.call(1)
    first, second = case.arrays(case.call(1)), case.arrays(case.call(1))
    expected = [array.copy() for array in second]
    for a, b in zip(first, second):
        assert a.flags.writeable and b.flags.writeable
        assert not np.shares_memory(a, b)
        a[:1] = ~a[:1]
    for a, e in zip(case.arrays(case.call(1)), expected):
        assert a.tobytes() == e.tobytes()
    assert len(case.memo) == 0


def check_scopes_nest_and_only_the_outermost_empties(case: MemoCase) -> None:
    with experiment_scope():
        value = case.call(1)
        with experiment_scope():
            assert case.call(1) is value
        assert case.call(1) is value
    assert held() == 0


def check_bound_holds_and_keeps_the_newest(case: MemoCase, monkeypatch) -> None:
    keep_a_few(case, monkeypatch)
    memo = case.memo
    with experiment_scope():
        values = []
        for seed in range(KEPT + 2):
            values.append(case.call(seed))
            assert len(memo) <= KEPT
            assert memo.held == len(memo) * case.entry_size <= memo.limit
        assert case.call(KEPT + 1) is values[-1]
        assert case.call(0) is not values[0]


def check_recently_used_entries_survive_eviction(
    case: MemoCase, monkeypatch
) -> None:
    keep_a_few(case, monkeypatch)
    with experiment_scope():
        first = case.call(0)
        for seed in range(1, KEPT):
            case.call(seed)
        assert case.call(0) is first  # refreshed: now the newest entry
        case.call(KEPT)  # evicts seed 1, not seed 0
        assert case.call(0) is first


def check_threads_in_one_scope_share_one_value_per_key(
    case: MemoCase, monkeypatch
) -> None:
    keep_a_few(case, monkeypatch)
    seeds = range(KEPT)  # all fit: nothing is evicted
    seen = [[] for _ in seeds]
    errors = []

    def worker():
        try:
            for _ in range(4):
                for seed in seeds:
                    seen[seed].append(case.call(seed))
                    assert case.memo.held <= case.memo.limit
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with experiment_scope():
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    for values in seen:
        assert len(values) == 6 * 4
        assert all(value is values[0] for value in values)
    assert held() == 0


def check_memo_is_empty_after_run_experiment_raises(
    cases, monkeypatch
) -> None:
    def run(machine=None, *, quick=True):
        for case in cases:
            case.call(1)
        assert held() == len(cases)
        raise RuntimeError("boom")

    monkeypatch.setitem(EXPERIMENTS, "boom", types.SimpleNamespace(run=run))
    with pytest.raises(RuntimeError, match="boom"):
        run_experiment("boom")
    assert held() == 0


def check_memo_is_empty_after_run_experiment_returns(experiment_id: str) -> None:
    run_experiment(experiment_id)
    assert held() == 0


def check_repetition_threads_match_the_serial_run(experiment_id: str) -> None:
    serial = run_experiment(experiment_id).to_csv()
    with use_repetition_jobs(2):
        threaded = run_experiment(experiment_id).to_csv()
    assert threaded == serial
    assert held() == 0
