"""Self-test of the benchmark: ``PYTHONPATH=src python -m pytest perf -q``."""

from __future__ import annotations

import json

from perf import compare, run
from perf.layers import LayerClock
from perf.workloads import WORKLOADS

BENCHMARK = json.loads(run.BENCHMARK.read_text())


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for metric in BENCHMARK["end_to_end"]:
        assert run.UNITS[metric["name"]] == metric["unit"]
    produced = set(LayerClock().metrics(1.0, 0, 0)) | {"layers.overhead_frac"}
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= produced


def _plan_cold(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = run.main(["--workload", "plan-cold", "--repeats", "1", "--out", str(out)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, json.loads(out.read_text())["workloads"]["plan-cold"], last


def test_one_plan_cold_sample_is_correct(tmp_path, capsys):
    code, result, last = _plan_cold(tmp_path, capsys)
    assert code == 0
    assert result["metrics"]["failed_frac"]["median"] == 0
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 4
    assert set(last["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_corrupted_digest_fails(tmp_path, capsys, monkeypatch):
    expected = json.loads(run.EXPECTED.read_text())
    expected["plan-cold"]["wl05"] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", corrupted)
    code, result, last = _plan_cold(tmp_path, capsys)
    assert code != 0
    assert result["metrics"]["failed_frac"]["median"] > 0
    assert not last["correct"] and last["failed"] == 1


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(base, [10.2, 10.1, 10.3, 10.2, 10.25], 0.1, "lower") == "unchanged"
    assert compare.verdict(base, [11.5, 11.6, 11.4, 11.5, 11.55], 0.1, "lower") == "worse"
    assert compare.verdict(base, [8.5, 8.6, 8.4, 8.5, 8.55], 0.1, "lower") == "better"
    assert compare.verdict(base, [8.5, 8.6, 8.4, 8.5, 8.55], 0.1, "higher") == "worse"
    noisy = [7.0, 13.0, 10.0, 8.0, 12.0]
    assert compare.verdict(base, noisy, 0.1, "lower") == "unresolved"
    assert compare.verdict(noisy, [5.0, 5.5, 6.0, 6.5, 6.9], 0.1, "lower") == "better"
    assert compare.failed_verdict(0.0, 0.25) == "worse"
    assert compare.failed_verdict(0.0, 0.0) == "unchanged"


def test_compare_rows_cover_every_metric():
    def result_set(pass_s, failed):
        metrics = {
            m["name"]: {"median": pass_s, "values": [pass_s] * 3}
            for m in BENCHMARK["end_to_end"]
        }
        return {"workloads": {"plan-cold": {
            "metrics": metrics, "attempted": 4, "failed": failed}}}

    rows = compare.compare(result_set(4.0, 0), result_set(4.0, 1), BENCHMARK)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts.pop("failed_frac") == "worse"
    assert set(verdicts.values()) == {"unchanged"}
    assert len(verdicts) == len(BENCHMARK["end_to_end"])
