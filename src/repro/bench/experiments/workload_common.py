"""Shared plumbing for the serving-workload experiments (wl01-wl03).

The wl experiments do not use the repetition runner: one serving simulation
already aggregates hundreds of queries, and its metrics are deterministic
given the stream seeds.  Stream seeds derive from the process-wide base
seed (:data:`repro.bench.runner.DEFAULT_BASE_SEED`), so ``--seed`` makes
serving runs reproducible-but-variable exactly like the figure experiments.
"""

from __future__ import annotations

from typing import Mapping

from repro.bench import runner
from repro.bench.report import ExperimentReport
from repro.trace.breakdown import ServingBreakdown
from repro.workload.jobs import JobCost
from repro.workload.metrics import WorkloadMetrics

#: Queries per simulated serving run (per offered-load point).
QUICK_QUERIES = 400
FULL_QUERIES = 1200

#: The latency percentiles every wl experiment reports.
PERCENTILES = (50, 95, 99)


def stream_seed(index: int = 0) -> int:
    """Seed of the ``index``-th stream, derived from the CLI base seed."""
    return runner.DEFAULT_BASE_SEED + index


def target_queries(quick: bool) -> int:
    return QUICK_QUERIES if quick else FULL_QUERIES


def capacity_qps(costs: Mapping[str, JobCost], weights: Mapping[str, float],
                 cores: int) -> float:
    """Saturation throughput of a weighted mix on a ``cores``-sized pool.

    A query of template t occupies ``threads * service_s`` core-seconds;
    the pool supplies ``cores`` core-seconds per second, so the capacity is
    their ratio under the mix distribution.
    """
    total_weight = sum(weights.values())
    mean_core_seconds = sum(
        weight / total_weight * costs[name].threads * costs[name].service_s
        for name, weight in weights.items()
    )
    return cores / mean_core_seconds


def add_latency_rows(
    report: ExperimentReport,
    metrics: WorkloadMetrics,
    series_prefix: str,
    x,
) -> None:
    """Append the standard percentile rows of one serving run."""
    for p in PERCENTILES:
        report.add(
            f"{series_prefix} p{p}",
            x,
            metrics.latency_percentile_s(p) * 1e3,
            "ms",
        )


def add_breakdown_rows(
    report: ExperimentReport,
    breakdown: ServingBreakdown,
    series_prefix: str,
    x,
) -> None:
    """Append a trace-derived time decomposition of one serving run.

    Four shares (queueing / service / EDMM penalty / interference) of the
    total the trace's dispatch events attribute — the generic Fig. 6 style
    decomposition for the serving layer.  They sum to 1 only when no spill,
    degradation or AEX penalty was charged: those terms count in the total
    but get no row.
    """
    shares = breakdown.fractions()
    report.add(f"{series_prefix} queueing share", x, shares["queueing"], "frac")
    report.add(f"{series_prefix} service share", x, shares["service"], "frac")
    report.add(
        f"{series_prefix} EDMM penalty share", x, shares["edmm_penalty"], "frac"
    )
    report.add(
        f"{series_prefix} interference share", x, shares["interference"], "frac"
    )


def counters_note(label: str, metrics: WorkloadMetrics) -> str:
    """One report note summarizing a run's scheduler decisions."""
    c = metrics.counters
    return (
        f"{label}: {c.completed} served, {c.dispatched_immediately} "
        f"dispatched on arrival, {c.queued} queued, {c.bypass_dispatches} "
        f"bypassed, {c.edmm_admissions} EDMM-overflow admissions, "
        f"blocked on cores/EPC {c.blocked_on_cores}/{c.blocked_on_epc}; "
        f"EPC high water {metrics.epc_high_water_bytes / 1e9:.2f} GB"
    )
