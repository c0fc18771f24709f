"""The one memo layer: its registry, its bounds and its one switch."""

import pytest

from repro import reuse
from repro.bench.parallel import run_session
from repro.cache import MemoStore, profile_memo
from repro.core.joins.skew import BASELINE_MEMO_BYTES
from repro.core.structures.hashtable import MATCH_MEMO_BYTES
from repro.reuse import experiment_scope, profiled, use_memos
from repro.tables.generator import REUSED_PAIRS
from repro.tables.tpch import REUSED_DATASETS
from tests.memo_contract import CASES, held

SWITCHED = ["fig04", "fig17", "wl08"]
COUNTERS = (
    "bench.memo.hits",
    "bench.memo.misses",
    "bench.reuse.hits",
    "bench.reuse.misses",
)


def _csvs(session):
    return {run.experiment_id: run.report.to_csv() for run in session.runs}


def test_every_registered_memo_has_a_contract_case():
    assert sorted(reuse.MEMOS) == sorted(case.name for case in CASES)


def test_each_memo_keeps_its_declared_bound():
    assert reuse.MEMOS["generate_tpch"].limit == REUSED_DATASETS == 3
    assert reuse.MEMOS["generate_join_relation_pair"].limit == REUSED_PAIRS == 3
    assert reuse.MEMOS["match_first"].limit == MATCH_MEMO_BYTES == 6 << 20
    assert reuse.MEMOS["uniform_counts"].limit == BASELINE_MEMO_BYTES == 8 << 20
    assert profile_memo().memory_entries == reuse.DEFAULT_PROFILE_ENTRIES == 512


class TestProfiled:
    def test_a_stored_value_answers_without_computing(self, tmp_path):
        computed = []

        def compute():
            computed.append(1)
            return {"seconds": 1.5}

        with use_memos(directory=tmp_path) as memo:
            assert profiled(lambda: "k1", compute) == {"seconds": 1.5}
            assert profiled(lambda: "k1", compute) == {"seconds": 1.5}
        assert computed == [1]
        assert (memo.hits, memo.misses) == (1, 1)

    def test_off_never_builds_the_key(self):
        keys = []
        with use_memos(False):
            for _ in range(2):
                value = profiled(lambda: keys.append(1) or "k", lambda: {"x": 1})
                assert value == {"x": 1}
        assert keys == []


class TestOneSwitch:
    """``memo=False`` turns off the profile memo and every experiment memo,
    in-process and in spawned workers, and changes no output byte."""

    @pytest.fixture(scope="class")
    def memoized(self):
        return _csvs(run_session(SWITCHED))

    def test_off_switch_opens_no_experiment_scope(self):
        with use_memos(False), experiment_scope():
            for case in CASES:
                assert not case.memo.keeps()
                case.call(1)
            assert held() == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_memo_session_fills_no_memo_and_matches(self, memoized, jobs):
        before = reuse.traffic()
        session = run_session(SWITCHED, jobs=jobs, memo=False)
        assert reuse.traffic() == before
        assert not any(name in session.tracer.counters for name in COUNTERS)
        assert session.memo_hits == 0
        assert _csvs(session) == memoized

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_memoized_session_reports_experiment_memo_traffic(self, jobs):
        session = run_session(SWITCHED, jobs=jobs)
        assert session.tracer.counters.get("bench.reuse.misses", 0) > 0
        assert session.tracer.counters.get("bench.reuse.hits", 0) > 0
        assert held() == 0


def test_disk_tier_is_a_plain_memo_store(tmp_path):
    with use_memos(directory=tmp_path / "profiles") as memo:
        assert type(memo) is MemoStore
        assert memo.directory == tmp_path / "profiles"
        assert memo.memory_entries == reuse.DEFAULT_PROFILE_ENTRIES
