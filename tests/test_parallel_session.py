"""Parallel session driver: fan-out, memoization, deterministic merges.

Worker-process tests use the two cheapest experiments (tab01 is static,
fig15 is the fastest sweep) so the worker start-up dominates, not the
simulation.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.parallel import run_session
from repro.bench.session import build_report
from repro.cache import MemoStore
from repro.cli import main
from repro.errors import BenchmarkError
from repro.trace import read_jsonl, to_csv

FAST_IDS = ["tab01", "fig15"]


def _rendered_csv(run) -> str:
    return to_csv(read_jsonl(run.trace_jsonl.splitlines()))


def _report_dicts(session):
    return [run.report.as_dict() for run in session.runs]


class TestRunSession:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_session(FAST_IDS, traced=True)

    def test_runs_in_request_order(self, serial):
        assert [r.experiment_id for r in serial.runs] == FAST_IDS
        assert all(not r.from_cache for r in serial.runs)

    def test_jobs_output_is_byte_identical(self, serial):
        parallel = run_session(FAST_IDS, jobs=2, traced=True)
        assert _report_dicts(parallel) == _report_dicts(serial)
        for a, b in zip(parallel.runs, serial.runs):
            assert a.trace_jsonl == b.trace_jsonl
            assert _rendered_csv(a) == _rendered_csv(b)

    def test_explicit_seed_reaches_spawned_workers(self):
        # ext04 (skewed probes) is seed-sensitive; two experiments force
        # worker processes, where the parent's DEFAULT_BASE_SEED mutation
        # would be invisible — only the explicit threading can work.
        ids = ["tab01", "ext04"]
        seeded = run_session(ids, jobs=2, base_seed=7)
        serial = run_session(ids, base_seed=7)
        default = run_session(ids)
        assert _report_dicts(seeded) == _report_dicts(serial)
        assert _report_dicts(seeded) != _report_dicts(default)

    def test_unknown_experiment_rejected_before_running(self):
        with pytest.raises(BenchmarkError):
            run_session(["fig99"])

    def test_bad_jobs_rejected(self):
        with pytest.raises(BenchmarkError):
            run_session(["tab01"], jobs=0)

    def test_duplicate_ids_run_once_and_merge_per_request(self):
        session = run_session(["tab01", "tab01"])
        assert len(session.runs) == 2
        assert session.runs[0].report.as_dict() == session.runs[1].report.as_dict()


class TestWorkerProcesses:
    def test_no_process_outlives_a_jobs_session(self, tmp_path):
        # No ``__main__`` guard: a session must not re-run its caller's
        # script in its workers, and must reap every process it started.
        script = tmp_path / "session.py"
        script.write_text(
            "from repro.bench.parallel import run_session\n"
            f"run_session({FAST_IDS!r}, jobs=2)\n"
        )
        child = subprocess.Popen(
            [sys.executable, str(script)], start_new_session=True, env=_env()
        )
        assert child.wait(timeout=600) == 0
        with pytest.raises(ProcessLookupError):
            os.killpg(child.pid, 0)

    def test_crashed_worker_names_its_experiment(self, tmp_path, monkeypatch):
        crash = tmp_path / "crash"
        crash.write_text("#!/bin/sh\nexit 3\n")
        crash.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(crash))
        with pytest.raises(BenchmarkError, match="tab01 .*exited with code 3"):
            run_session(FAST_IDS, jobs=2)


def _env():
    """This environment, with the ``repro`` under test importable."""
    import repro

    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return {**os.environ, "PYTHONPATH": root}


class TestSessionCache:
    def test_warm_rerun_is_pure_replay(self, tmp_path):
        cold = run_session(FAST_IDS, cache=MemoStore(tmp_path), traced=True)
        assert cold.cache_hits == 0 and cold.cache_misses == 2

        warm = run_session(FAST_IDS, cache=MemoStore(tmp_path), traced=True)
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert all(run.from_cache for run in warm.runs)
        # Zero re-simulation, identical artifacts.
        assert _report_dicts(warm) == _report_dicts(cold)
        for a, b in zip(warm.runs, cold.runs):
            assert a.trace_jsonl == b.trace_jsonl

    def test_session_tracer_names_each_experiment(self, tmp_path):
        session = run_session(FAST_IDS, cache=MemoStore(tmp_path))
        events = [
            (r.name, r.attrs["experiment"])
            for r in session.tracer.records
            if r.name.startswith("bench.cache.")
        ]
        assert events == [
            ("bench.cache.miss", "tab01"),
            ("bench.cache.miss", "fig15"),
        ]
        assert session.tracer.counters["bench.cache.misses"] == 2

    def test_worker_wall_time_gauged_for_computed_runs_only(self, tmp_path):
        store = MemoStore(tmp_path)
        cold = run_session(["tab01"], cache=store)
        assert "bench.worker.wall_s.tab01" in cold.tracer.gauges
        warm = run_session(["tab01"], cache=store)
        assert "bench.worker.wall_s.tab01" not in warm.tracer.gauges
        assert warm.runs[0].wall_s == 0.0

    def test_export_time_gauged_for_traced_runs_but_never_cached(self, tmp_path):
        store = MemoStore(tmp_path)
        cold = run_session(["tab01"], cache=store, traced=True)
        assert cold.tracer.gauges["bench.worker.export_s.tab01"] >= 0.0
        entries = list(tmp_path.glob("*.json"))
        assert entries
        assert all('"export_s"' not in p.read_text() for p in entries)
        warm = run_session(["tab01"], cache=store, traced=True)
        assert "bench.worker.export_s.tab01" not in warm.tracer.gauges
        untraced = run_session(["tab01"])
        assert "bench.worker.export_s.tab01" not in untraced.tracer.gauges

    def test_seed_rotates_cache_key(self, tmp_path):
        store = MemoStore(tmp_path)
        run_session(["tab01"], cache=store, base_seed=1)
        second = run_session(["tab01"], cache=store, base_seed=2)
        assert second.cache_misses == 1

    def test_untraced_entry_not_served_to_traced_run(self, tmp_path):
        store = MemoStore(tmp_path)
        run_session(["tab01"], cache=store, traced=False)
        traced = run_session(["tab01"], cache=store, traced=True)
        assert traced.cache_misses == 1
        assert traced.runs[0].trace_jsonl is not None

    def test_cache_accepts_plain_directory(self, tmp_path):
        run_session(["tab01"], cache=tmp_path / "c")
        warm = run_session(["tab01"], cache=tmp_path / "c")
        assert warm.cache_hits == 1

    def test_session_trace_export(self, tmp_path):
        session = run_session(["tab01"], cache=MemoStore(tmp_path / "c"))
        written = session.write_artifacts(trace_dir=tmp_path / "t")
        assert list(written) == ["_session"]  # untraced: no experiment trace
        path = written["_session"]
        assert path.name == "_session.trace.jsonl"
        assert not (tmp_path / "t" / "_session.trace.csv").exists()
        assert main(["trace-csv", str(tmp_path / "t")]) == 0
        csv_text = (tmp_path / "t" / "_session.trace.csv").read_text()
        assert csv_text == to_csv(read_jsonl(path))
        names = {json.loads(line)["name"] for line in path.read_text().splitlines()}
        assert "bench.cache.misses" in names


class TestBuildReportParallel:
    def test_report_identical_across_jobs_and_cache(self, tmp_path):
        plain = build_report(FAST_IDS)
        cached = build_report(
            FAST_IDS, jobs=2, cache=MemoStore(tmp_path / "c")
        )
        warm = build_report(
            FAST_IDS, jobs=2, cache=MemoStore(tmp_path / "c")
        )
        assert plain == cached == warm

    def test_report_writes_session_trace_only_for_parallel_or_cached(
        self, tmp_path
    ):
        build_report(["tab01"], trace_dir=tmp_path / "plain")
        assert not (tmp_path / "plain" / "_session.trace.jsonl").exists()
        build_report(
            ["tab01"], trace_dir=tmp_path / "cached", cache=MemoStore(tmp_path / "c")
        )
        assert (tmp_path / "cached" / "_session.trace.jsonl").exists()
        assert (tmp_path / "cached" / "tab01.trace.jsonl").exists()


class TestCliParallelFlags:
    def test_jobs_zero_exits_2(self, capsys):
        assert main(["tab01", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_cache_summary_printed(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["tab01", "--cache", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hits, 1 misses, 1 entries" in out
        assert main(["tab01", "--cache", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cache: 1 hits, 0 misses, 1 entries" in out

    def test_cached_run_prints_identical_tables(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")

        def tables():
            assert main(["tab01", "fig15", "--cache", cache_dir]) == 0
            out = capsys.readouterr().out
            return [l for l in out.splitlines() if not l.startswith("cache:")]

        assert tables() == tables()

    def test_report_honors_jobs_and_cache(self, tmp_path, capsys):
        report = tmp_path / "r.md"
        args = [
            "tab01",
            "--report",
            str(report),
            "--jobs",
            "2",
            "--cache",
            str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        first = report.read_text()
        assert main(args) == 0
        assert "cache: 1 hits" in capsys.readouterr().out
        assert report.read_text() == first

    def test_typo_still_exits_before_creating_cache_dir(self, tmp_path, capsys):
        target = tmp_path / "cache"
        assert main(["fig99", "--cache", str(target)]) == 2
        capsys.readouterr()
        assert not target.exists()
