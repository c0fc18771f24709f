"""The per-query profile memo: keys, scoping, invalidation, byte-identity.

The memo sits *below* the experiment cache: it memoizes composed access
profiles and priced service times per (template, plan, setting, sizes,
calibration), so repeated pricing skips operator re-execution.  These
tests pin the load-bearing contracts: keys rotate with every component,
calibration changes invalidate at the query level, hit/miss traffic is
counted, and — above all — memoized runs are byte-identical to
unmemoized ones.
"""

import dataclasses

import pytest

from repro.bench.experiments.common import SETTING_PLAIN, SETTING_SGX_IN
from repro.cache import MemoStore, profile_memo, query_profile_key
from repro.hardware.calibration import paper_calibration
from repro.machine import SimMachine
from repro.memory.access import CodeVariant
from repro.planner.candidates import static_candidate
from repro.reuse import profiled, use_memos
from repro.trace import Tracer, to_jsonl, use_tracer
from repro.workload import (
    JobCatalog,
    OpenLoopStream,
    QueryMix,
    ServingEngine,
    WorkloadConfig,
)
from repro.workload.jobs import serving_templates

TEMPLATES = serving_templates()


def _key(**overrides):
    template = TEMPLATES["scan-small"]
    defaults = dict(
        kind="catalog-price",
        template=template.name,
        setting=SETTING_SGX_IN,
        candidate=static_candidate(template, CodeVariant.NAIVE),
        pricing_seed=13,
        row_cap=100_000,
        sf_cap=0.01,
    )
    defaults.update(overrides)
    return query_profile_key(**defaults)


class TestQueryProfileKey:
    def test_stable_for_identical_inputs(self):
        assert _key() == _key()

    def test_every_component_rotates_the_key(self):
        base = _key()
        template = TEMPLATES["join-medium"]
        assert _key(kind="plan-estimate") != base
        assert _key(template=template.name) != base
        assert _key(setting=SETTING_PLAIN) != base
        assert (
            _key(candidate=static_candidate(template, CodeVariant.NAIVE))
            != base
        )
        assert _key(pricing_seed=14) != base
        assert _key(row_cap=200_000) != base
        assert _key(sf_cap=0.02) != base

    def test_calibration_rotates_the_key(self):
        params = paper_calibration()
        nudged = dataclasses.replace(
            params,
            linear_write_penalty=params.linear_write_penalty * 1.5,
        )
        assert _key(params=params) != _key(params=nudged)


class TestMemoScoping:
    def test_ambient_memo_is_enabled_by_default(self):
        assert isinstance(profile_memo(), MemoStore)

    def test_none_installs_the_disabled_sentinel(self):
        with use_memos(False) as memo:
            assert memo is None
            assert profile_memo() is None
            assert profiled(lambda: "k" * 8, lambda: {"x": 1}) == {"x": 1}

    def test_scopes_nest_and_restore(self, tmp_path):
        before = profile_memo()
        with use_memos(directory=tmp_path) as outer:
            assert profile_memo() is outer is not before
            with use_memos(False):
                assert profile_memo() is None
            assert profile_memo() is outer
            with use_memos():
                assert profile_memo() is outer
        assert profile_memo() is before

    def test_scope_restores_after_an_exception(self):
        before = profile_memo()
        with pytest.raises(RuntimeError):
            with use_memos(False):
                raise RuntimeError("boom")
        assert profile_memo() is before


class TestCatalogMemoization:
    def catalog(self, machine=None):
        return JobCatalog(machine, quick=True, variant=CodeVariant.NAIVE)

    def test_fresh_catalog_hits_a_warm_memo(self, tmp_path):
        template = TEMPLATES["scan-small"]
        with use_memos(directory=tmp_path) as memo:
            cold = self.catalog().cost(template, SETTING_SGX_IN)
            assert memo.misses > 0 and memo.hits == 0
            misses_after_cold = memo.misses
            # A *fresh* catalog has no instance-level cache: only the
            # ambient memo can explain skipping the operator run.
            warm = self.catalog().cost(template, SETTING_SGX_IN)
            assert memo.hits > 0
            assert memo.misses == misses_after_cold
        assert warm == cold

    def test_calibration_change_invalidates_at_query_level(self, tmp_path):
        template = TEMPLATES["scan-small"]
        params = paper_calibration()
        nudged = dataclasses.replace(
            params,
            linear_write_penalty=params.linear_write_penalty * 1.5,
        )
        with use_memos(directory=tmp_path) as memo:
            self.catalog(SimMachine(params=params)).cost(
                template, SETTING_SGX_IN
            )
            assert memo.hits == 0
            # Same template, same setting, different calibration: the
            # memo must miss, never serve the stale profile.
            self.catalog(SimMachine(params=nudged)).cost(
                template, SETTING_SGX_IN
            )
            assert memo.hits == 0
            # And the original calibration still hits its own entries.
            self.catalog(SimMachine(params=params)).cost(
                template, SETTING_SGX_IN
            )
            assert memo.hits > 0

    def test_disk_tier_shares_profiles_across_memos(self, tmp_path):
        template = TEMPLATES["scan-small"]
        with use_memos(directory=tmp_path / "profiles") as first:
            cold = self.catalog().cost(template, SETTING_SGX_IN)
            assert first.misses > 0
        # A brand-new memo over the same directory: pure disk hits.
        with use_memos(directory=tmp_path / "profiles") as second:
            warm = self.catalog().cost(template, SETTING_SGX_IN)
            assert second.hits > 0
            assert second.misses == 0
        assert warm == cold
        assert list((tmp_path / "profiles").glob("*.json"))


def _serve(*, queries=40):
    """One small traced serving run; returns (metrics, trace jsonl text)."""
    catalog = JobCatalog(quick=True, variant=CodeVariant.NAIVE)
    engine = ServingEngine(catalog)
    mix = QueryMix.of({"scan-small": 0.7, "join-medium": 0.3})
    qps = 50.0
    config = WorkloadConfig(
        setting=SETTING_SGX_IN,
        open_streams=(OpenLoopStream("tenant", qps=qps, mix=mix, seed=42),),
        duration_s=queries / qps,
        cores=8,
        policy="fifo",
    )
    tracer = Tracer(label="memo-identity")
    with use_tracer(tracer):
        metrics = engine.run(config)
    return metrics, to_jsonl(tracer)


class TestByteIdentity:
    """The memo is a wall-clock optimization ONLY: results and traces of
    memoized runs must equal the unmemoized runs byte for byte."""

    def test_serving_run_identical_with_and_without_memo(self, tmp_path):
        with use_memos(False):
            bare_metrics, bare_trace = _serve()
        with use_memos(directory=tmp_path) as memo:
            _serve()  # priming run
            warm_metrics, warm_trace = _serve()
        assert memo.hits > 0
        assert warm_trace == bare_trace
        assert warm_metrics.records == bare_metrics.records
        assert vars(warm_metrics.counters) == vars(bare_metrics.counters)

    def test_clustered_run_identical_with_and_without_memo(self, tmp_path):
        from repro.runconfig import RunConfig, use_run_config

        cluster = RunConfig(cluster="1x2")
        with use_run_config(cluster), use_memos(False):
            bare_metrics, bare_trace = _serve()
        with use_run_config(cluster), use_memos(directory=tmp_path):
            warm_metrics, warm_trace = _serve()
        assert warm_trace == bare_trace
        assert warm_metrics.records == bare_metrics.records


class TestSessionCounters:
    """The session driver reports memo traffic in the session trace."""

    def run(self, directory, *, memo):
        from repro.bench.parallel import run_session

        with use_memos(directory=directory):
            return run_session(["wl01"], quick=True, memo=memo)

    def test_memoized_session_counts_traffic(self, tmp_path):
        session = self.run(tmp_path, memo=True)
        assert session.memo_misses > 0
        counters = session.tracer.counters
        assert counters.get("bench.memo.misses") == session.memo_misses

    def test_no_memo_session_reports_zero_traffic(self, tmp_path):
        session = self.run(tmp_path, memo=False)
        assert session.memo_hits == 0
        assert session.memo_misses == 0
        assert "bench.memo.hits" not in session.tracer.counters
        assert "bench.memo.misses" not in session.tracer.counters

    def test_memo_counters_never_enter_the_result_cache(self, tmp_path):
        from repro.bench.parallel import run_session

        store = MemoStore(tmp_path / "cache")
        run_session(["wl01"], quick=True, cache=store, memo=True)
        for path in (tmp_path / "cache").glob("*.json"):
            text = path.read_text()
            assert "memo_traffic" not in text
            assert "memo.hits" not in text
            assert "reuse.misses" not in text
