"""Extension: cost-based planning vs the oracle across the EPC crossover.

The ablation behind :mod:`repro.planner`: on each platform (the paper's
SGXv2 testbed and the SGXv1-style legacy platform) a foreign-key join
grows until its working set overruns the EPC, and three planning policies
pick the join algorithm at every size:

* **oracle** — run every candidate, keep the fastest (the upper bound);
* **cost** — the planner's analytical choice, made *without* executing
  any candidate at scale;
* **native-best** — the choice a SGX-oblivious optimizer makes: the plan
  that is fastest on the plain CPU, forced to run in the enclave (what
  DuckDB-SGX2-style engines with unmodified optimizers do).

On SGXv2 the three mostly agree (64 GB EPC hides the working set).  On
the legacy platform they diverge exactly where the paper says they must:
once RHO's partitioning scratch overruns the ~93 MB EPC, the native-best
plan (RHO-unrolled) collapses into paging while the paging-tolerant
plans take over (MWAY's sequential merges win outright and CrkJoin
overtakes RHO by ~6x — the CrkJoin/RHO crossover the dedicated rows
track) — and the cost-based planner follows, because it prices the same
paging terms the simulator charges.  The match-rate rows quantify how
often cost agrees with oracle (the acceptance bar is >= 90 % per
platform).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.bench import runner
from repro.bench.experiments import common
from repro.bench.report import ExperimentReport
from repro.hardware.platforms import sgxv1_calibration, sgxv1_testbed
from repro.machine import SimMachine
from repro.planner import PlanCandidate, Planner, build_join, enumerate_candidates
from repro.tables import generate_join_relation_pair
from repro.workload.jobs import JobKind, JobTemplate

EXPERIMENT_ID = "ext07"
TITLE = "Extension: planner ablation (oracle vs cost-based vs native-best)"
PAPER_REFERENCE = "operationalizes Fig. 3/8's ranking flip as a planner"

#: Build-side sizes (MB); probes are 4x, the paper's join shape.  The
#: legacy platform's ~93 MB EPC puts the RHO working-set overflow (2 x
#: (build + probe)) between the 4 MB and 16 MB points.
BUILD_SIZES_MB = (4, 8, 16, 32, 64, 128)
PROBE_FACTOR = 4.0

#: The swept platforms: label -> fresh machine factory.
def _sgxv2_machine() -> SimMachine:
    return SimMachine()


def _sgxv1_machine() -> SimMachine:
    return SimMachine(sgxv1_testbed(), sgxv1_calibration())


PLATFORMS = (
    ("SGXv2", _sgxv2_machine),
    ("SGXv1", _sgxv1_machine),
)


def _template(build_mb: float, threads: int) -> JobTemplate:
    return JobTemplate(
        name=f"join-{build_mb:g}mb",
        kind=JobKind.JOIN,
        threads=threads,
        build_bytes=build_mb * 1e6,
        probe_bytes=build_mb * 1e6 * PROBE_FACTOR,
    )


def _measure(
    make_machine, template: JobTemplate, candidate: PlanCandidate, row_cap: int
) -> float:
    """One real in-enclave run of ``candidate``; M rows/s.

    A single run per candidate suffices: join cycle counts are pure
    functions of the logical sizes (the physical sample only carries the
    correctness computation), so repetition seeds cannot move them.
    """
    sim = make_machine()
    build, probe = generate_join_relation_pair(
        template.build_bytes,
        template.probe_bytes,
        seed=runner.DEFAULT_BASE_SEED,
        physical_row_cap=row_cap,
    )
    with sim.context(common.SETTING_SGX_IN, threads=candidate.threads) as ctx:
        result = build_join(candidate).run(ctx, build, probe)
    return common.mrows(result.throughput_rows_per_s(sim.frequency_hz))


def run(
    machine: Optional[SimMachine] = None, *, quick: bool = True
) -> ExperimentReport:
    """Throughput of the three planning policies at each sweep point."""
    del machine  # the sweep builds its own platforms
    config = common.BenchConfig(quick)
    report = ExperimentReport(EXPERIMENT_ID, TITLE, PAPER_REFERENCE)
    for label, make_machine in PLATFORMS:
        proto = make_machine()
        threads = proto.spec.cores_per_socket
        planner = Planner(proto, common.SETTING_SGX_IN, cores=threads)
        native_planner = Planner(proto, common.SETTING_PLAIN, cores=threads)
        matched = 0
        oracle_arms: Dict[float, str] = {}
        for build_mb in BUILD_SIZES_MB:
            template = _template(build_mb, threads)
            measured: Dict[PlanCandidate, float] = {
                candidate: _measure(
                    make_machine, template, candidate, config.row_cap
                )
                for candidate in enumerate_candidates(template)
            }
            oracle = max(measured, key=lambda c: (measured[c], c.label()))
            cost = planner.decide(template).chosen
            native = native_planner.decide(template).chosen
            oracle_arms[build_mb] = oracle.label(threads)
            matched += int(cost == oracle)
            report.add(f"{label} oracle", build_mb, measured[oracle], "M rows/s")
            report.add(f"{label} cost", build_mb, measured[cost], "M rows/s")
            report.add(
                f"{label} native-best", build_mb, measured[native], "M rows/s"
            )
            # The crossover pair: RHO wins small, CrkJoin wins once the
            # working set overruns the EPC (legacy platform only).
            by_label = {c.label(threads): m for c, m in measured.items()}
            report.add(
                f"{label} RHO-unrolled",
                build_mb,
                by_label["RHO-unrolled"],
                "M rows/s",
            )
            report.add(
                f"{label} CrkJoin", build_mb, by_label["CrkJoin"], "M rows/s"
            )
        total = len(BUILD_SIZES_MB)
        report.add(f"{label} match rate", "all", matched / total, "fraction")
        arms = ", ".join(
            f"{mb:g} MB -> {arm}" for mb, arm in oracle_arms.items()
        )
        report.notes.append(
            f"{label}: cost-based picked the oracle arm on {matched}/{total} "
            f"sweep points; oracle arms: {arms}"
        )
    report.notes.append(
        "native-best forces the plain-CPU winner into the enclave (a "
        "SGX-oblivious optimizer); its gap below the oracle on the legacy "
        "platform is the cost of planning without EPC terms"
    )
    return report
