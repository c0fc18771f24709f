"""Extension: materializing vs pipelined query execution in the enclave.

The paper's framework fully materializes every operator (Sec. 6, the
MonetDB scheme).  This extension asks what pipelining would buy an enclave
DBMS, in two regimes:

* **Statically sized enclave** (the paper's recommended configuration):
  almost nothing — sequential writes cost SGXv2 only ~2 %, so skipping
  intermediate materialization saves low single digits.  The enclave's
  problem is the join loops, not the materialization.
* **Dynamically sized enclave** (an engine that allocates intermediates
  on demand): a lot — every materialized intermediate grows the enclave
  through EDMM (Fig. 11's per-page cost), which pipelining avoids
  entirely.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.experiments import common
from repro.bench.report import ExperimentReport
from repro.core.queries import QueryExecutor, TPCH_QUERIES
from repro.enclave.enclave import EnclaveConfig
from repro.machine import SimMachine
from repro.memory.access import CodeVariant
from repro.tables import generate_tpch
from repro.units import GiB

EXPERIMENT_ID = "ext05"
TITLE = "Extension: materializing vs pipelined execution, static vs EDMM"
PAPER_REFERENCE = "Sec. 6 design choice (no pipelining) x Fig. 11"

QUERIES = ("Q3", "Q12")


def run(
    machine: Optional[SimMachine] = None, *, quick: bool = True
) -> ExperimentReport:
    """Query runtimes (ms) for the four execution-mode x sizing cases."""
    config = common.BenchConfig(quick)
    report = ExperimentReport(EXPERIMENT_ID, TITLE, PAPER_REFERENCE)
    for query in QUERIES:
        for label, pipelined, dynamic in (
            ("materializing, static enclave", False, False),
            ("pipelined, static enclave", True, False),
            ("materializing, EDMM enclave", False, True),
            ("pipelined, EDMM enclave", True, True),
        ):

            def measure(seed: int, _q=query, _pipe=pipelined, _dyn=dynamic):
                sim = common.make_machine(machine)
                data = generate_tpch(
                    10.0, seed=seed, physical_sf_cap=config.tpch_sf_cap
                )
                tables = data.named
                if _dyn:
                    # Base tables fit statically; every intermediate and
                    # all join scratch grows the enclave via EDMM.
                    enclave_config = EnclaveConfig(
                        heap_bytes=int(data.total_logical_bytes) + (64 << 20),
                        node=0,
                        dynamic=True,
                        max_bytes=64 * GiB,
                    )
                else:
                    enclave_config = EnclaveConfig(heap_bytes=24 * GiB, node=0)
                with sim.context(
                    common.SETTING_SGX_IN,
                    threads=common.SOCKET_THREADS,
                    enclave_config=enclave_config,
                ) as ctx:
                    result = QueryExecutor(
                        CodeVariant.UNROLLED, pipelined=_pipe
                    ).run(ctx, TPCH_QUERIES[_q](), tables)
                return result.seconds(sim.frequency_hz) * 1e3

            report.add(label, query, common.measure_stats(measure, config), "ms")
    for query in QUERIES:
        static_save = 1 - report.value(
            "pipelined, static enclave", query
        ) / report.value("materializing, static enclave", query)
        edmm_save = 1 - report.value(
            "pipelined, EDMM enclave", query
        ) / report.value("materializing, EDMM enclave", query)
        report.notes.append(
            f"{query}: pipelining saves {static_save:.1%} with a static "
            f"enclave but {edmm_save:.1%} with an EDMM-growing one"
        )
    return report
