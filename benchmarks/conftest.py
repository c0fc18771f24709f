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

SCOREBOARD = RESULTS_DIR / "BENCH_planner.json"

CLUSTER_SCOREBOARD = RESULTS_DIR / "BENCH_cluster.json"

STORAGE_SCOREBOARD = RESULTS_DIR / "BENCH_storage.json"

BACKENDS_SCOREBOARD = RESULTS_DIR / "BENCH_backends.json"

REWRITE_SCOREBOARD = RESULTS_DIR / "BENCH_rewrite.json"

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
def planner_scoreboard(results_dir):
    """Read-modify-write ``BENCH_planner.json``, the planner perf trajectory.

    Each entry is ``{experiment, arm, p50, p99, goodput, ...}`` (``None``
    where a metric does not apply); a bench replaces its own experiment's
    entries and leaves the others, so partial reruns keep the file whole.
    Future PRs regress against these numbers.
    """

    def _update(experiment_id: str, entries):
        existing = []
        if SCOREBOARD.exists():
            existing = json.loads(SCOREBOARD.read_text())
        kept = [e for e in existing if e["experiment"] != experiment_id]
        for entry in entries:
            entry.setdefault("p50", None)
            entry.setdefault("p99", None)
            entry.setdefault("goodput", None)
        merged = sorted(
            kept + list(entries), key=lambda e: (e["experiment"], e["arm"])
        )
        SCOREBOARD.write_text(json.dumps(merged, indent=2) + "\n")
        return merged

    return _update


@pytest.fixture
def cluster_scoreboard(results_dir):
    """Read-modify-write ``BENCH_cluster.json``, the cluster perf trajectory.

    Same contract as ``planner_scoreboard``: each entry is
    ``{experiment, arm, ...metrics}`` with ``None`` where a metric does
    not apply, a bench replaces only its own experiment's entries, and the
    merged file stays sorted so reruns are byte-stable.
    """

    def _update(experiment_id: str, entries):
        existing = []
        if CLUSTER_SCOREBOARD.exists():
            existing = json.loads(CLUSTER_SCOREBOARD.read_text())
        kept = [e for e in existing if e["experiment"] != experiment_id]
        for entry in entries:
            entry.setdefault("p50", None)
            entry.setdefault("p99", None)
            entry.setdefault("goodput", None)
            entry.setdefault("availability", None)
            entry.setdefault("slo_attainment", None)
        merged = sorted(
            kept + list(entries), key=lambda e: (e["experiment"], e["arm"])
        )
        CLUSTER_SCOREBOARD.write_text(json.dumps(merged, indent=2) + "\n")
        return merged

    return _update


@pytest.fixture
def storage_scoreboard(results_dir):
    """Read-modify-write ``BENCH_storage.json``, the spill-path trajectory.

    Same contract as ``cluster_scoreboard``: each entry is
    ``{experiment, arm, ...metrics}`` with ``None`` where a metric does
    not apply (here the extra metrics are ``spills``, ``spilled_gb``,
    ``seal_s``, ``unseal_s``), a bench replaces only its own experiment's
    entries, and the merged file stays sorted so reruns are byte-stable.
    """

    def _update(experiment_id: str, entries):
        existing = []
        if STORAGE_SCOREBOARD.exists():
            existing = json.loads(STORAGE_SCOREBOARD.read_text())
        kept = [e for e in existing if e["experiment"] != experiment_id]
        for entry in entries:
            entry.setdefault("p50", None)
            entry.setdefault("p99", None)
            entry.setdefault("goodput", None)
            entry.setdefault("spills", None)
            entry.setdefault("spilled_gb", None)
            entry.setdefault("seal_s", None)
            entry.setdefault("unseal_s", None)
        merged = sorted(
            kept + list(entries), key=lambda e: (e["experiment"], e["arm"])
        )
        STORAGE_SCOREBOARD.write_text(json.dumps(merged, indent=2) + "\n")
        return merged

    return _update


@pytest.fixture
def backends_scoreboard(results_dir):
    """Read-modify-write ``BENCH_backends.json``, the backend-arm trajectory.

    Same contract as ``storage_scoreboard``: each entry is
    ``{experiment, arm, ...metrics}`` with ``None`` where a metric does
    not apply (here the metrics are per-template ``overhead`` ratios plus
    the envelope's ``init_share``), a bench replaces only its own
    experiment's entries, and the merged file stays sorted so reruns are
    byte-stable.
    """

    def _update(experiment_id: str, entries):
        existing = []
        if BACKENDS_SCOREBOARD.exists():
            existing = json.loads(BACKENDS_SCOREBOARD.read_text())
        kept = [e for e in existing if e["experiment"] != experiment_id]
        for entry in entries:
            entry.setdefault("overhead", None)
            entry.setdefault("init_share", None)
        merged = sorted(
            kept + list(entries), key=lambda e: (e["experiment"], e["arm"])
        )
        BACKENDS_SCOREBOARD.write_text(json.dumps(merged, indent=2) + "\n")
        return merged

    return _update


@pytest.fixture
def rewrite_scoreboard(results_dir):
    """Read-modify-write ``BENCH_rewrite.json``, the rewrite trajectory.

    Same contract as ``backends_scoreboard``: each entry is
    ``{experiment, arm, ...metrics}`` with ``None`` where a metric does
    not apply (here the metrics are the ablation's priced times and
    ``speedup``/``proved``/``rejected``/Q-error columns plus the serving
    tails and ``gap_recovered``), a bench replaces only its own
    experiment's entries, and the merged file stays sorted so reruns are
    byte-stable.
    """

    def _update(experiment_id: str, entries):
        existing = []
        if REWRITE_SCOREBOARD.exists():
            existing = json.loads(REWRITE_SCOREBOARD.read_text())
        kept = [e for e in existing if e["experiment"] != experiment_id]
        for entry in entries:
            entry.setdefault("p50", None)
            entry.setdefault("p99", None)
            entry.setdefault("goodput", None)
            entry.setdefault("off_ms", None)
            entry.setdefault("learned_ms", None)
            entry.setdefault("speedup", None)
            entry.setdefault("proved", None)
            entry.setdefault("rejected", None)
            entry.setdefault("q_error_raw", None)
            entry.setdefault("q_error_corrected", None)
            entry.setdefault("gap_recovered", None)
        merged = sorted(
            kept + list(entries), key=lambda e: (e["experiment"], e["arm"])
        )
        REWRITE_SCOREBOARD.write_text(json.dumps(merged, indent=2) + "\n")
        return merged

    return _update

