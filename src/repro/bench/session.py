"""Report bundles: run a set of experiments and emit one Markdown report.

``sgxv2-bench --report results/REPORT.md`` (or :func:`write_report`) runs
the requested experiments and renders a single self-contained Markdown
document — title, calibration validation, one section per experiment with
its table, chart, and notes — the artifact a reproduction hand-off wants.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, List, Optional, Union

from repro.bench.charts import render
from repro.bench.parallel import run_session
from repro.bench.registry import EXPERIMENTS
from repro.bench.report import ExperimentReport
from repro.bench.validate import CalibrationValidator
from repro.cache import MemoStore
from repro.errors import BenchmarkError
from repro.machine import SimMachine
from repro.runconfig import RunConfig


def _experiment_section(report: ExperimentReport) -> str:
    lines = [
        f"## {report.experiment_id}: {report.title}",
        "",
        f"*Reproduces {report.paper_reference}.*",
        "",
        "| series | x | value | unit |",
        "|---|---|---|---|",
    ]
    for row in report.rows:
        value = f"{row.value:.4g}"
        if row.std:
            value += f" ± {row.std:.2g}"
        lines.append(f"| {row.series} | {row.x} | {value} | {row.unit} |")
    lines.append("")
    try:
        chart = render(report)
    except BenchmarkError:
        chart = ""
    if chart:
        lines += ["```text", chart, "```", ""]
    for note in report.notes:
        lines.append(f"> {note}")
    if report.notes:
        lines.append("")
    return "\n".join(lines)


def build_report(
    experiment_ids: Optional[Iterable[str]] = None,
    machine: Optional[SimMachine] = None,
    *,
    quick: bool = True,
    csv_dir: Optional[Union[str, pathlib.Path]] = None,
    trace_dir: Optional[Union[str, pathlib.Path]] = None,
    jobs: int = 1,
    cache: Optional[Union[MemoStore, str, pathlib.Path]] = None,
    base_seed: Optional[int] = None,
    run: Optional[RunConfig] = None,
    memo: bool = True,
) -> str:
    """Render the full Markdown report for ``experiment_ids`` (default all).

    ``csv_dir`` additionally writes one CSV per experiment (the same rows
    the report's tables show) from the *same* runs — the report never runs
    an experiment twice.  ``trace_dir`` runs each experiment under a fresh
    tracer and exports its trace as JSON-lines and CSV.

    ``jobs`` fans the experiments out across worker processes and ``cache``
    memoizes their results (see :func:`repro.bench.parallel.run_session`);
    the rendered report is byte-identical for any ``jobs``/``cache``
    combination.  ``run`` applies a session
    :class:`~repro.runconfig.RunConfig` to every run (the ``--faults``,
    ``--planner``, ``--cluster``, ``--storage``, ``--backend`` and
    ``--rewrite`` flags); ``memo=False`` turns off every memo of
    :mod:`repro.reuse` (the ``--no-memo`` channel) — output bytes are
    identical either way, only wall-clock changes.
    """
    ids: List[str] = sorted(experiment_ids or EXPERIMENTS)
    for experiment_id in ids:
        if experiment_id not in EXPERIMENTS:
            raise BenchmarkError(f"unknown experiment {experiment_id!r}")
    csv_dir = pathlib.Path(csv_dir) if csv_dir is not None else None
    if csv_dir is not None:
        csv_dir.mkdir(parents=True, exist_ok=True)
    trace_dir = pathlib.Path(trace_dir) if trace_dir is not None else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
    validator = CalibrationValidator(machine)
    checks = validator.run()
    held = sum(1 for check in checks if check.passed)
    sections = [
        "# SGXv2 analytical query processing — reproduction report",
        "",
        "Regenerated artifacts of *Benchmarking Analytical Query Processing "
        "in Intel SGXv2* (EDBT 2025) on the calibrated simulator.",
        "",
        f"Fidelity: {'quick (3 repetitions)' if quick else 'paper (10 repetitions)'}.",
        "",
        "## Calibration",
        "",
        f"{held}/{len(checks)} anchors hold:",
        "",
        "```text",
        *[check.describe() for check in checks],
        "```",
        "",
    ]
    session = run_session(
        ids,
        machine,
        quick=quick,
        jobs=jobs,
        cache=cache,
        base_seed=base_seed,
        traced=trace_dir is not None,
        run=run,
        memo=memo,
    )
    for result in session.runs:
        if csv_dir is not None:
            (csv_dir / f"{result.experiment_id}.csv").write_text(
                result.report.to_csv()
            )
        if trace_dir is not None and result.trace_jsonl is not None:
            (trace_dir / f"{result.experiment_id}.trace.jsonl").write_text(
                result.trace_jsonl
            )
            (trace_dir / f"{result.experiment_id}.trace.csv").write_text(
                result.trace_csv
            )
        sections.append(_experiment_section(result.report))
    if trace_dir is not None and (cache is not None or jobs > 1):
        # Cache/worker telemetry; wall-clock gauges make it the one trace
        # file outside the byte-determinism guarantee.
        session.write_session_trace(trace_dir)
    return "\n".join(sections)


def write_report(
    path: Union[str, pathlib.Path],
    experiment_ids: Optional[Iterable[str]] = None,
    machine: Optional[SimMachine] = None,
    *,
    quick: bool = True,
    csv_dir: Optional[Union[str, pathlib.Path]] = None,
    trace_dir: Optional[Union[str, pathlib.Path]] = None,
    jobs: int = 1,
    cache: Optional[Union[MemoStore, str, pathlib.Path]] = None,
    base_seed: Optional[int] = None,
    run: Optional[RunConfig] = None,
    memo: bool = True,
) -> pathlib.Path:
    """Build the report and write it to ``path``; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        build_report(
            experiment_ids,
            machine,
            quick=quick,
            csv_dir=csv_dir,
            trace_dir=trace_dir,
            jobs=jobs,
            cache=cache,
            base_seed=base_seed,
            run=run,
            memo=memo,
        )
    )
    return path
