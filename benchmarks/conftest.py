"""Benchmark plumbing: run one experiment per bench, save + print its table.

``pytest benchmarks/ --benchmark-only`` regenerates every figure/table of
the paper in quick fidelity (3 repetitions, capped physical data).  Set
``REPRO_BENCH_FULL=1`` for paper fidelity (10 repetitions, larger data).
Each bench writes its rendered table to ``benchmarks/results/<id>.txt`` and
echoes it to stdout (visible with ``-s``).
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.bench import ExperimentRun, SessionResult
from repro.bench.registry import run_experiment

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Scoreboard name -> the metrics every ``BENCH_<name>.json`` entry
#: carries, in the order a missing one is appended (as ``None``).
SCOREBOARD_METRICS = {
    "planner": ("p50", "p99", "goodput"),
    "cluster": ("p50", "p99", "goodput", "availability", "slo_attainment"),
    "storage": (
        "p50", "p99", "goodput", "spills", "spilled_gb", "seal_s", "unseal_s",
    ),
    "backends": ("overhead", "init_share"),
    "rewrite": (
        "p50", "p99", "goodput", "off_ms", "learned_ms", "speedup", "proved",
        "rejected", "q_error_raw", "q_error_corrected", "gap_recovered",
    ),
}

FULL_FIDELITY = os.environ.get("REPRO_BENCH_FULL", "") == "1"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def run_figure(benchmark, results_dir):
    """Benchmark one experiment and persist its report."""

    def _run(experiment_id: str):
        report = benchmark.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs={"quick": not FULL_FIDELITY},
            rounds=1,
            iterations=1,
        )
        text = report.print_table()
        (results_dir / f"{experiment_id}.txt").write_text(text + "\n")
        # Through the writer behind ``--csv``, so the two files match byte
        # for byte.
        SessionResult([ExperimentRun(experiment_id, report)]).write_artifacts(
            results_dir
        )
        print()
        print(text)
        return report

    return _run


@pytest.fixture
def scoreboard(results_dir):
    """Read-modify-write ``BENCH_<name>.json``, one subsystem's perf
    trajectory.

    Each entry is ``{experiment, arm, ...metrics}`` with ``None`` where a
    metric of :data:`SCOREBOARD_METRICS` does not apply; a bench replaces
    its own experiment's entries and leaves the others, so partial reruns
    keep the file whole, and the merged file stays sorted so reruns are
    byte-stable.  Future PRs regress against these numbers.
    """

    def _update(name: str, experiment_id: str, entries):
        path = results_dir / f"BENCH_{name}.json"
        existing = json.loads(path.read_text()) if path.exists() else []
        kept = [e for e in existing if e["experiment"] != experiment_id]
        for entry in entries:
            for metric in SCOREBOARD_METRICS[name]:
                entry.setdefault(metric, None)
        merged = sorted(
            kept + list(entries), key=lambda e: (e["experiment"], e["arm"])
        )
        path.write_text(json.dumps(merged, indent=2) + "\n")
        return merged

    return _update
