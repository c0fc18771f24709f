"""Figure 17: TPC-H Q3/Q10/Q12/Q19 at SF 10 with the RHO join, 16 threads.

Each query runs outside the enclave, inside unoptimized, and inside with
the unroll/reorder optimization.  Expected: the optimization cuts query
runtime by ~7 % (Q19) to ~30 % (Q12); the average in-enclave overhead drops
from ~42 % (unoptimized) to ~15 % (optimized).
"""

from __future__ import annotations

from typing import Optional

from repro.bench.experiments import common
from repro.bench.report import ExperimentReport
from repro.core.queries import QueryExecutor, TPCH_QUERIES
from repro.machine import SimMachine
from repro.memory.access import CodeVariant
from repro.tables import generate_tpch

EXPERIMENT_ID = "fig17"
TITLE = "TPC-H Q3/Q10/Q12/Q19 (SF 10): plain vs SGX vs SGX optimized"
PAPER_REFERENCE = "Figure 17"

SCALE_FACTOR = 10.0

_CASES = (
    ("plain CPU", common.SETTING_PLAIN, CodeVariant.NAIVE),
    ("SGX", common.SETTING_SGX_IN, CodeVariant.NAIVE),
    ("SGX optimized", common.SETTING_SGX_IN, CodeVariant.UNROLLED),
)


def run(
    machine: Optional[SimMachine] = None, *, quick: bool = True
) -> ExperimentReport:
    """Query runtimes (ms) for the three configurations."""
    config = common.BenchConfig(quick)
    report = ExperimentReport(EXPERIMENT_ID, TITLE, PAPER_REFERENCE)
    for query_name, make_plan in TPCH_QUERIES.items():
        for case_label, setting, variant in _CASES:

            def measure(seed: int, _plan=make_plan, _set=setting, _var=variant):
                sim = common.make_machine(machine)
                data = generate_tpch(
                    SCALE_FACTOR, seed=seed, physical_sf_cap=config.tpch_sf_cap
                )
                tables = data.named
                with sim.context(_set, threads=common.SOCKET_THREADS) as ctx:
                    result = QueryExecutor(_var).run(ctx, _plan(), tables)
                return result.seconds(sim.frequency_hz) * 1e3

            report.add(case_label, query_name,
                       common.measure_stats(measure, config), "ms")
    overheads_naive = []
    overheads_opt = []
    for query_name in TPCH_QUERIES:
        plain = report.value("plain CPU", query_name)
        overheads_naive.append(report.value("SGX", query_name) / plain - 1)
        overheads_opt.append(
            report.value("SGX optimized", query_name) / plain - 1
        )
    report.notes.append(
        f"average in-enclave overhead: unoptimized "
        f"{sum(overheads_naive) / len(overheads_naive):+.0%} (paper +42 %), "
        f"optimized {sum(overheads_opt) / len(overheads_opt):+.0%} "
        "(paper +15 %)"
    )
    return report
