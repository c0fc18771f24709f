"""Registry mapping experiment ids to their modules.

``run_experiment("fig08")`` regenerates one figure; the CLI and the
pytest-benchmark suite both resolve experiments through this table.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bench.experiments import (
    fig01_headline,
    fig03_join_overview,
    fig04_pht_random_access,
    fig05_random_access_micro,
    fig06_rho_breakdown,
    fig07_histogram,
    fig08_optimized_joins,
    fig09_numa_joins,
    fig10_queue_contention,
    fig11_edmm,
    fig12_scan_single,
    fig13_scan_scaling,
    fig14_selectivity,
    fig15_linear_micro,
    fig16_numa_scan,
    fig17_tpch,
    tab01_hardware,
    ext01_sgxv1_legacy,
    ext02_packed_scan,
    ext03_aggregation,
    ext04_skew,
    ext05_pipelining,
    ext06_epc_crossover,
    ext07_planner_ablation,
    ext08_engine_vs_operator,
    ext09_rewrite_ablation,
    wl01_latency_throughput,
    wl02_admission_policies,
    wl03_tenant_interference,
    wl04_fault_resilience,
    wl05_adaptive_planner,
    wl06_cluster_scaleout,
    wl07_spill_scaleout,
    wl08_rewrite_serving,
)
from repro.bench.report import ExperimentReport
from repro.errors import BenchmarkError
from repro.machine import SimMachine
from repro.reuse import experiment_scope
from repro.runconfig import RunConfig, current_run_config, use_run_config

EXPERIMENTS: Dict[str, object] = {
    module.EXPERIMENT_ID: module
    for module in (
        fig01_headline,
        fig03_join_overview,
        fig04_pht_random_access,
        fig05_random_access_micro,
        fig06_rho_breakdown,
        fig07_histogram,
        fig08_optimized_joins,
        fig09_numa_joins,
        fig10_queue_contention,
        fig11_edmm,
        fig12_scan_single,
        fig13_scan_scaling,
        fig14_selectivity,
        fig15_linear_micro,
        fig16_numa_scan,
        fig17_tpch,
        tab01_hardware,
        ext01_sgxv1_legacy,
        ext02_packed_scan,
        ext03_aggregation,
        ext04_skew,
        ext05_pipelining,
        ext06_epc_crossover,
        ext07_planner_ablation,
        ext08_engine_vs_operator,
        ext09_rewrite_ablation,
        wl01_latency_throughput,
        wl02_admission_policies,
        wl03_tenant_interference,
        wl04_fault_resilience,
        wl05_adaptive_planner,
        wl06_cluster_scaleout,
        wl07_spill_scaleout,
        wl08_rewrite_serving,
    )
}


def get_experiment(experiment_id: str):
    """The experiment module for ``experiment_id`` (or raise)."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise BenchmarkError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def run_experiment(
    experiment_id: str,
    machine: Optional[SimMachine] = None,
    *,
    quick: bool = True,
    tracer=None,
    base_seed: Optional[int] = None,
    run: Optional[RunConfig] = None,
) -> ExperimentReport:
    """Run one experiment and return its report.

    When ``tracer`` is given it is installed as the current tracer for the
    run, so every instrumented layer (operator phases, enclave charges,
    serving scheduler) records into it.  Tracing is observation-only: the
    report is bit-identical with and without it.

    ``base_seed`` pins the repetition/stream base seed for this run (the
    explicit channel parallel workers use; ``None`` keeps the process
    default).  ``run`` is validated and installed as the ambient
    :class:`~repro.runconfig.RunConfig` for the run's scope (``None``
    keeps the ambient one): serving configs that leave a subsystem field
    ``None`` serve under its value, while experiments that pin their own
    (wl04's fault plans, wl05's planner modes, wl06's clusters) are
    unaffected.  Default fields leave every code path byte-identical to a
    build without that subsystem.

    The run is one :func:`~repro.reuse.experiment_scope`: cells that ask
    for the same seeded dataset or join matches share one read-only copy,
    and the memos are emptied when the run returns or raises.  With memos
    off (``--no-memo``) no scope opens and every cell computes afresh.
    """
    module = get_experiment(experiment_id)
    from repro.bench.runner import use_base_seed

    run = current_run_config() if run is None else run
    with (
        use_base_seed(base_seed),
        use_run_config(run.validate()),
        experiment_scope(),
    ):
        if tracer is None:
            return module.run(machine, quick=quick)
        from repro.trace import use_tracer

        with use_tracer(tracer):
            return module.run(machine, quick=quick)
