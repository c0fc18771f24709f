"""Bench harness: stats runner, report container, registry."""

import math

import pytest

from repro.bench import (
    EXPERIMENTS,
    ExperimentReport,
    RunStats,
    get_experiment,
    repeat_runs,
)
from repro.bench import runner
from repro.bench.runner import summarize, use_base_seed, use_repetition_jobs
from repro.errors import BenchmarkError


class TestRunner:
    def test_mean_and_std(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.std == pytest.approx((2 / 3) ** 0.5)
        assert stats.runs == 3

    def test_relative_std(self):
        stats = summarize([2.0, 2.0])
        assert stats.relative_std == 0.0
        assert summarize([0.0, 0.0]).relative_std == 0.0

    def test_relative_std_zero_mean_nonzero_spread_is_nan(self):
        # Samples straddling zero have no meaningful coefficient of
        # variation; 0.0 here used to report fake perfect stability.
        stats = summarize([-1.0, 1.0])
        assert stats.mean == 0.0 and stats.std > 0.0
        assert math.isnan(stats.relative_std)

    def test_summarize_single_sample_std_is_zero(self):
        stats = summarize([3.0])
        assert stats.mean == 3.0
        assert stats.std == 0.0
        assert not math.isnan(stats.relative_std)

    def test_empty_rejected(self):
        with pytest.raises(BenchmarkError):
            summarize([])

    def test_repeat_runs_varies_seed(self):
        seeds = []
        stats = repeat_runs(lambda seed: seeds.append(seed) or float(seed), runs=5)
        assert len(set(seeds)) == 5
        assert stats.runs == 5

    def test_zero_runs_rejected(self):
        with pytest.raises(BenchmarkError):
            repeat_runs(lambda seed: 0.0, runs=0)

    def test_failing_repetition_names_its_seed(self):
        def measure(seed: int) -> float:
            if seed == 44:
                raise ValueError("boom")
            return float(seed)

        with pytest.raises(BenchmarkError, match=r"repetition 2 \(seed 44\)"):
            repeat_runs(measure, runs=5, base_seed=42)

    def test_failing_repetition_traced_with_seed_context(self):
        from repro.trace import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(BenchmarkError):
                repeat_runs(lambda seed: 1 / 0, runs=3, base_seed=7)
        [event] = [r for r in tracer.records if r.name == "bench.repetition_failed"]
        assert event.attrs["seed"] == 7
        assert event.attrs["error"] == "ZeroDivisionError"

    def test_threaded_repetitions_match_serial(self):
        serial = repeat_runs(lambda seed: float(seed * seed), runs=6, jobs=1)
        threaded = repeat_runs(lambda seed: float(seed * seed), runs=6, jobs=4)
        assert threaded.samples == serial.samples

    def test_threaded_failure_still_names_its_seed(self):
        def measure(seed: int) -> float:
            if seed == 43:
                raise RuntimeError("bad input")
            return 1.0

        with pytest.raises(BenchmarkError, match=r"seed 43"):
            repeat_runs(measure, runs=4, jobs=4, base_seed=42)

    def test_use_base_seed_scopes_and_restores(self):
        before = runner.DEFAULT_BASE_SEED
        with use_base_seed(1000):
            assert repeat_runs(lambda s: float(s), runs=1).mean == 1000.0
        assert runner.DEFAULT_BASE_SEED == before
        with use_base_seed(None):
            assert runner.DEFAULT_BASE_SEED == before

    def test_use_repetition_jobs_scopes_and_validates(self):
        with use_repetition_jobs(3):
            assert runner.DEFAULT_REPETITION_JOBS == 3
        assert runner.DEFAULT_REPETITION_JOBS == 1
        with pytest.raises(BenchmarkError):
            with use_repetition_jobs(0):
                pass
        assert runner.DEFAULT_REPETITION_JOBS == 1

    def test_format(self):
        stats = RunStats(mean=123.456, std=1.2, samples=(1,))
        assert "±" in f"{stats:.3g}"


class TestReport:
    def _report(self):
        report = ExperimentReport("figXX", "title", "Figure XX")
        report.add("a", 1, 10.0, "ms")
        report.add("a", 2, 20.0, "ms")
        report.add("b", 1, 5.0, "ms")
        return report

    def test_series_access(self):
        report = self._report()
        assert [row.x for row in report.series("a")] == [1, 2]
        assert report.series_names() == ["a", "b"]

    def test_value_and_ratio(self):
        report = self._report()
        assert report.value("a", 2) == 20.0
        assert report.ratio("a", "b", 1) == 2.0

    def test_missing_value_raises(self):
        with pytest.raises(BenchmarkError):
            self._report().value("a", 99)

    def test_zero_denominator_raises(self):
        report = ExperimentReport("x", "t", "r")
        report.add("n", 1, 1.0, "")
        report.add("d", 1, 0.0, "")
        with pytest.raises(BenchmarkError):
            report.ratio("n", "d", 1)

    def test_stats_carry_spread(self):
        report = ExperimentReport("x", "t", "r")
        report.add("s", 1, RunStats(5.0, 0.5, (4.5, 5.5)), "ms")
        assert report.rows[0].std == 0.5
        assert "±" in report.rows[0].formatted()

    def test_print_table_contains_everything(self):
        report = self._report()
        report.notes.append("a note")
        text = report.print_table()
        assert "figXX" in text and "Figure XX" in text
        assert "a note" in text

    def test_csv_roundtrip_fields(self):
        csv = self._report().to_csv()
        lines = csv.splitlines()
        assert lines[0] == "series,x,value,std,unit"
        assert len(lines) == 4

    def test_dict_roundtrip_through_json(self):
        import json

        report = self._report()
        report.notes.append("a note")
        payload = json.loads(json.dumps(report.as_dict()))
        clone = ExperimentReport.from_dict(payload)
        assert clone.as_dict() == report.as_dict()
        assert clone.rows[0].x == 1  # x keeps its type through JSON
        assert clone.to_csv() == report.to_csv()

    def test_malformed_payload_rejected(self):
        with pytest.raises(BenchmarkError):
            ExperimentReport.from_dict({"experiment_id": "x"})
        with pytest.raises(BenchmarkError):
            ExperimentReport.from_dict(
                {
                    "experiment_id": "x",
                    "title": "t",
                    "paper_reference": "r",
                    "rows": [{"series": "a"}],
                    "notes": [],
                }
            )


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {f"fig{n:02d}" for n in (1, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                            12, 13, 14, 15, 16, 17)}
        expected.add("tab01")
        expected.update(
            {"ext01", "ext02", "ext03", "ext04", "ext05", "ext06", "ext07",
             "ext08", "ext09"}
        )  # extensions
        expected.update(
            {"wl01", "wl02", "wl03", "wl04", "wl05", "wl06", "wl07", "wl08"}
        )  # serving workloads
        assert set(EXPERIMENTS) == expected

    def test_modules_expose_interface(self):
        for experiment_id, module in EXPERIMENTS.items():
            assert module.EXPERIMENT_ID == experiment_id
            assert isinstance(module.TITLE, str)
            assert isinstance(module.PAPER_REFERENCE, str)
            assert callable(module.run)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(BenchmarkError):
            get_experiment("fig99")
