"""Lock recording helpers and the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.enclave.sync import LockKind, record_lock_ops
from repro.errors import ConfigurationError
from repro.memory.access import AccessProfile


class TestRecordLockOps:
    def test_mutex_sets_counts_and_ratio(self):
        profile = AccessProfile()
        record_lock_ops(profile, LockKind.SDK_MUTEX, 100, 0.5)
        assert profile.sync.mutex_acquisitions == 100
        assert profile.sync.mutex_contention_ratio == 0.5

    def test_mutex_ratio_weighted_across_calls(self):
        profile = AccessProfile()
        record_lock_ops(profile, LockKind.SDK_MUTEX, 100, 0.0)
        record_lock_ops(profile, LockKind.SDK_MUTEX, 300, 1.0)
        assert profile.sync.mutex_acquisitions == 400
        assert profile.sync.mutex_contention_ratio == pytest.approx(0.75)

    def test_spinlock_adds_spin_traffic(self):
        profile = AccessProfile()
        record_lock_ops(profile, LockKind.SPIN_LOCK, 100, 0.5)
        assert profile.sync.spinlock_acquisitions == 100
        assert profile.sync.atomic_ops == 200  # contention-driven retries

    def test_lock_free_adds_cas_retries(self):
        profile = AccessProfile()
        record_lock_ops(profile, LockKind.LOCK_FREE, 100, 0.0)
        assert profile.sync.atomic_ops == 100
        record_lock_ops(profile, LockKind.LOCK_FREE, 100, 1.0)
        assert profile.sync.atomic_ops == 100 + 300

    def test_validation(self):
        profile = AccessProfile()
        with pytest.raises(ConfigurationError):
            record_lock_ops(profile, LockKind.SDK_MUTEX, -1, 0.0)
        with pytest.raises(ConfigurationError):
            record_lock_ops(profile, LockKind.SDK_MUTEX, 1, 1.5)


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "tab01" in out

    def test_run_static_experiment(self, capsys):
        assert main(["tab01"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "EPC per socket" in out

    def test_csv_output(self, tmp_path, capsys):
        assert main(["tab01", "--csv", str(tmp_path)]) == 0
        csv = (tmp_path / "tab01.csv").read_text()
        assert csv.startswith("series,x,value,std,unit")

    def test_parser_flags(self):
        parser = build_parser()
        args = parser.parse_args(["fig08", "--full"])
        assert args.experiments == ["fig08"]
        assert args.full

    def test_parser_seed_flag(self):
        args = build_parser().parse_args(["fig08", "--seed", "123"])
        assert args.seed == 123
        assert build_parser().parse_args(["fig08"]).seed is None


class TestCliRobustness:
    def test_unknown_id_exits_2_and_names_known_ones(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment ids: fig99" in err
        assert "known experiments:" in err
        assert "fig08" in err and "wl01" in err

    def test_mixed_known_and_unknown_rejected(self, capsys):
        assert main(["tab01", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_typo_leaves_no_csv_dir_behind(self, tmp_path, capsys):
        target = tmp_path / "results"
        assert main(["fig99", "--csv", str(target)]) == 2
        capsys.readouterr()
        assert not target.exists()

    def test_seed_flag_threads_to_runner(self, tmp_path, capsys):
        from repro.bench import runner
        from repro.bench.parallel import run_session

        # fig14 is cheap and seed-sensitive, so a dropped seed would show.
        ids = ["tab01", "fig14"]
        original = runner.DEFAULT_BASE_SEED
        assert main([*ids, "--seed", "7", "--csv", str(tmp_path)]) == 0
        capsys.readouterr()
        assert runner.DEFAULT_BASE_SEED == original
        seeded = run_session(ids, base_seed=7)
        for run in seeded.runs:
            written = (tmp_path / f"{run.experiment_id}.csv").read_text()
            assert written == run.report.to_csv()
        default = run_session(["fig14"])
        assert default.runs[0].report.to_csv() != seeded.runs[1].report.to_csv()

    def test_seed_rejects_non_integers(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tab01", "--seed", "abc"])
        capsys.readouterr()


class TestCliFaults:
    def test_parser_faults_flag(self):
        args = build_parser().parse_args(["wl01", "--faults", "chaos"])
        assert args.faults == "chaos"
        assert build_parser().parse_args(["wl01"]).faults is None

    def test_unknown_plan_exits_2_and_names_known_ones(self, capsys):
        assert main(["wl01", "--faults", "nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err
        assert "chaos" in err  # the catalog is listed

    def test_unknown_plan_leaves_no_artifact_dirs_behind(self, tmp_path, capsys):
        csv_dir = tmp_path / "csv"
        trace_dir = tmp_path / "traces"
        assert main(
            [
                "wl01",
                "--faults", "nope",
                "--csv", str(csv_dir),
                "--trace", str(trace_dir),
            ]
        ) == 2
        capsys.readouterr()
        assert not csv_dir.exists()
        assert not trace_dir.exists()

    def test_faults_none_matches_baseline_byte_for_byte(self, tmp_path, capsys):
        plain_dir = tmp_path / "plain"
        none_dir = tmp_path / "none"
        assert main(["wl01", "--csv", str(plain_dir)]) == 0
        assert main(["wl01", "--faults", "none", "--csv", str(none_dir)]) == 0
        capsys.readouterr()
        assert (plain_dir / "wl01.csv").read_bytes() == \
            (none_dir / "wl01.csv").read_bytes()

    def test_fault_plan_changes_serving_results(self, tmp_path, capsys):
        plain_dir = tmp_path / "plain"
        chaos_dir = tmp_path / "chaos"
        assert main(["wl01", "--csv", str(plain_dir)]) == 0
        assert main(["wl01", "--faults", "chaos", "--csv", str(chaos_dir)]) == 0
        capsys.readouterr()
        assert (plain_dir / "wl01.csv").read_bytes() != \
            (chaos_dir / "wl01.csv").read_bytes()


class TestCliClusterAndStorage:
    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["wl01", "--cluster", "2x4", "--storage", "256m"]
        )
        assert args.cluster == "2x4"
        assert args.storage == "256m"
        assert build_parser().parse_args(["wl01"]).storage is None

    @pytest.mark.parametrize("bad", ["0x4", " 2x4", "2 x4", "axb"])
    def test_malformed_cluster_exits_2(self, bad, capsys):
        assert main(["wl01", "--cluster", bad]) == 2
        assert "cluster spec" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nope", "1.5g", "256m:999"])
    def test_malformed_storage_exits_2(self, bad, capsys):
        assert main(["wl01", "--storage", bad]) == 2
        assert capsys.readouterr().err  # names the problem

    def test_malformed_flags_leave_no_artifact_dirs_behind(
        self, tmp_path, capsys
    ):
        for flag, bad in (("--cluster", "0x4"), ("--storage", "nope")):
            csv_dir = tmp_path / f"csv{flag}"
            assert main(
                ["wl01", flag, bad, "--csv", str(csv_dir)]
            ) == 2
            capsys.readouterr()
            assert not csv_dir.exists()

    def test_storage_budget_changes_serving_results(self, tmp_path, capsys):
        plain_dir = tmp_path / "plain"
        spill_dir = tmp_path / "spill"
        assert main(["wl01", "--csv", str(plain_dir)]) == 0
        assert main(
            ["wl01", "--storage", "200m", "--csv", str(spill_dir)]
        ) == 0
        capsys.readouterr()
        assert (plain_dir / "wl01.csv").read_bytes() != \
            (spill_dir / "wl01.csv").read_bytes()


class TestCsvRoundTrip:
    def test_cli_csv_parses_back(self, tmp_path, capsys):
        import csv

        from repro.bench.registry import run_experiment

        assert main(["tab01", "--csv", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "tab01.csv", newline="") as handle:
            parsed = list(csv.DictReader(handle))
        report = run_experiment("tab01", quick=True)
        assert len(parsed) == len(report.rows)
        for got, expected in zip(parsed, report.rows):
            assert got["series"] == expected.series
            assert got["unit"] == expected.unit
            assert float(got["value"]) == pytest.approx(expected.value)
            assert float(got["std"]) == pytest.approx(expected.std)


class TestCliTrace:
    def test_trace_writes_parseable_jsonl_and_csv(self, tmp_path, capsys):
        import json

        assert main(["fig06", "--trace", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig06.trace.jsonl" in out
        lines = (tmp_path / "fig06.trace.jsonl").read_text().splitlines()
        assert lines  # a traced figure run is never empty
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "span" in kinds
        assert not (tmp_path / "fig06.trace.csv").exists()
        assert main(["trace-csv", str(tmp_path)]) == 0
        assert f"wrote {tmp_path / 'fig06.trace.csv'}" in capsys.readouterr().out
        csv_text = (tmp_path / "fig06.trace.csv").read_text()
        assert csv_text.startswith("kind,name,category")
        assert len(csv_text.splitlines()) == len(lines) + 1

    def test_trace_reproduces_phase_breakdown(self, tmp_path, capsys):
        from repro.bench.registry import run_experiment
        from repro.trace import phase_breakdown, read_jsonl

        assert main(["fig06", "--trace", str(tmp_path)]) == 0
        capsys.readouterr()
        records = read_jsonl(tmp_path / "fig06.trace.jsonl")
        phases = phase_breakdown(records, setting="SGX (Data in Enclave)")
        report = run_experiment("fig06", quick=True)
        # The exported trace holds naive + unrolled runs; the figure's
        # per-phase rows must be recoverable from (subsets of) it.
        for phase in ("hist1", "copy1", "build", "join"):
            assert phases[phase] >= report.value("naive: sgx", phase)

    def test_trace_csv_without_traces_exits_2(self, tmp_path, capsys):
        assert main(["trace-csv"]) == 2
        assert main(["trace-csv", str(tmp_path)]) == 2
        assert main(["trace-csv", str(tmp_path / "missing")]) == 2
        assert "no *.trace.jsonl files" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_typo_leaves_no_trace_dir_behind(self, tmp_path, capsys):
        target = tmp_path / "traces"
        assert main(["fig99", "--trace", str(target)]) == 2
        capsys.readouterr()
        assert not target.exists()


class TestCliReportFlagCombinations:
    def test_report_honors_csv(self, tmp_path, capsys):
        report_path = tmp_path / "report.md"
        csv_dir = tmp_path / "csv"
        assert main(
            ["tab01", "--report", str(report_path), "--csv", str(csv_dir)]
        ) == 0
        capsys.readouterr()
        assert report_path.exists()
        csv_text = (csv_dir / "tab01.csv").read_text()
        assert csv_text.startswith("series,x,value,std,unit")

    def test_report_honors_trace(self, tmp_path, capsys):
        report_path = tmp_path / "report.md"
        trace_dir = tmp_path / "traces"
        assert main(
            ["fig06", "--report", str(report_path), "--trace", str(trace_dir)]
        ) == 0
        capsys.readouterr()
        assert report_path.exists()
        assert (trace_dir / "fig06.trace.jsonl").read_text().strip()

    def test_report_with_chart_exits_2(self, tmp_path, capsys):
        report_path = tmp_path / "report.md"
        assert main(["tab01", "--report", str(report_path), "--chart"]) == 2
        err = capsys.readouterr().err
        assert "--chart" in err and "--report" in err
        assert not report_path.exists()


class TestCliPlanner:
    def test_parser_planner_flag(self):
        args = build_parser().parse_args(["wl01", "--planner", "adaptive"])
        assert args.planner == "adaptive"
        assert build_parser().parse_args(["wl01"]).planner is None

    def test_unknown_mode_exits_2_and_names_known_ones(self, capsys):
        assert main(["wl01", "--planner", "greedy"]) == 2
        err = capsys.readouterr().err
        assert "greedy" in err
        assert "static" in err and "cost" in err and "adaptive" in err

    def test_oracle_mode_is_not_offered(self, capsys):
        # The oracle selector is the experiment-only upper bound; sessions
        # cannot request it.
        assert main(["wl01", "--planner", "oracle"]) == 2
        capsys.readouterr()

    def test_unknown_mode_leaves_no_artifact_dirs_behind(self, tmp_path, capsys):
        csv_dir = tmp_path / "csv"
        trace_dir = tmp_path / "traces"
        assert main(
            [
                "wl01",
                "--planner", "greedy",
                "--csv", str(csv_dir),
                "--trace", str(trace_dir),
            ]
        ) == 2
        capsys.readouterr()
        assert not csv_dir.exists()
        assert not trace_dir.exists()

    def test_planner_static_matches_baseline_byte_for_byte(self, tmp_path, capsys):
        plain_dir = tmp_path / "plain"
        static_dir = tmp_path / "static"
        assert main(["wl01", "--csv", str(plain_dir)]) == 0
        assert main(["wl01", "--planner", "static", "--csv", str(static_dir)]) == 0
        capsys.readouterr()
        assert (plain_dir / "wl01.csv").read_bytes() == \
            (static_dir / "wl01.csv").read_bytes()

    def test_cost_planner_changes_serving_results(self, tmp_path, capsys):
        plain_dir = tmp_path / "plain"
        cost_dir = tmp_path / "cost"
        assert main(["wl01", "--csv", str(plain_dir)]) == 0
        assert main(["wl01", "--planner", "cost", "--csv", str(cost_dir)]) == 0
        capsys.readouterr()
        assert (plain_dir / "wl01.csv").read_bytes() != \
            (cost_dir / "wl01.csv").read_bytes()


class TestCliExplain:
    def test_explain_prints_ranked_candidates(self, capsys):
        assert main(["explain", "join-medium"]) == 0
        out = capsys.readouterr().out
        assert "job: join-medium" in out
        assert "chosen:" in out
        assert "[chosen]" in out
        for label in ("PHT", "RHO-unrolled", "MWAY", "INL", "CrkJoin"):
            assert label in out

    def test_explain_multiple_jobs(self, capsys):
        assert main(["explain", "scan-small", "join-medium"]) == 0
        out = capsys.readouterr().out
        assert "job: scan-small" in out
        assert "job: join-medium" in out

    def test_explain_without_jobs_exits_2(self, capsys):
        assert main(["explain"]) == 2
        err = capsys.readouterr().err
        assert "join-medium" in err  # the known templates are listed

    def test_explain_unknown_job_exits_2_and_names_known_ones(self, capsys):
        assert main(["explain", "join-galactic"]) == 2
        err = capsys.readouterr().err
        assert "join-galactic" in err
        assert "join-medium" in err
