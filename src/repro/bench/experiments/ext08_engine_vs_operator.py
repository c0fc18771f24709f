"""Extension: engine-in-enclave vs operator-in-enclave overhead.

The paper measures hand-built *operators* inside SGXv2; the systems it is
most often compared against (DuckDB-SGX2, Polars-inside-SGX2) run *whole
engines* in the enclave.  This experiment puts both arms on one axis per
platform and template:

* **operator** — the paper's arm: the catalog's real-operator pricing of
  ``SGX (Data in Enclave)`` over ``Plain CPU`` (Fig. 1/17's overheads);
* **engine** — the :mod:`repro.backends` arm: a real SQL engine's
  calibrated profile priced through the SGX cost envelope (enclave heap
  pre-touch at init, penalized in-enclave execution, EPC paging past the
  budget), in-enclave over plain;
* **init share** — the fraction of the engine arm's in-enclave seconds
  spent first-touching the committed heap, the startup term operator
  benchmarks never pay per query.

Before any overhead is reported, every template passes the cross-backend
**equivalence gate**: the operator simulator and each live engine execute
the same query over the same materialized rows and must agree on the
canonical result bag.  On SGXv2 the two arms sit close together (memory
encryption dominates both); on the SGXv1-class platform they diverge in
*both* directions: the operators' static RHO join collapses into
partitioning-scratch paging (its scratch is several times the inputs)
while the engine's compact hash join stays at a few x, and conversely
the TPC-H engine arms pay several-x from buffer-pool working sets where
the operators' tighter footprints stay under 2 x — the quantitative form
of the paper's "overheads of a ported engine are not the overheads of
the primitives" caveat, in both directions.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.backends.config import ENGINE_MODES, missing_reason
from repro.backends.envelope import SgxCostEnvelope, get_profile, load_profiles
from repro.backends.serving import gate_templates
from repro.bench.experiments import common
from repro.bench.experiments.ext07_planner_ablation import PLATFORMS
from repro.bench.report import ExperimentReport
from repro.machine import SimMachine
from repro.runconfig import current_run_config, use_run_config
from repro.trace import current_tracer
from repro.trace.breakdown import BACKEND_ENVELOPE, BACKEND_EQUIVALENCE
from repro.workload.jobs import JobCatalog, serving_templates

EXPERIMENT_ID = "ext08"
TITLE = "Extension: engine-in-enclave vs operator-in-enclave overhead"
PAPER_REFERENCE = (
    "quantifies Sec. 2's engine-vs-primitive caveat against DuckDB-SGX2-"
    "style whole-engine ports"
)

#: The compared serving templates: one streaming scan, one probe-heavy
#: join, and two TPC-H plans (the three access-pattern regimes).
TEMPLATE_NAMES = ("scan-small", "join-medium", "q3", "q12")


def run(
    machine: Optional[SimMachine] = None, *, quick: bool = True
) -> ExperimentReport:
    """Overhead of both arms per platform, behind the equivalence gate."""
    del machine  # the sweep builds its own platforms
    report = ExperimentReport(EXPERIMENT_ID, TITLE, PAPER_REFERENCE)
    templates = serving_templates()
    chosen = [templates[name] for name in TEMPLATE_NAMES]
    artifact = load_profiles()
    tracer = current_tracer()

    skipped: List[str] = []
    modes: List[str] = []
    for mode in ENGINE_MODES:
        reason = missing_reason(mode)
        if reason is not None:
            skipped.append(reason)
        elif any((mode, t.name) not in artifact for t in chosen):
            skipped.append(
                f"backend {mode!r} has no calibrated profile for every "
                "template; capture one with "
                "'python -m repro.backends.calibrate'"
            )
        else:
            modes.append(mode)

    # Gate once, before any timing: result bags are platform-independent
    # (correctness, not cost), so one pass covers both platforms.
    gate_catalog = JobCatalog(quick=quick)
    gated = {
        mode: gate_templates(gate_catalog, chosen, mode) for mode in modes
    }
    digests: Dict[str, str] = {}
    for template in chosen:
        for mode in modes:
            digest = gated[mode][template.name]
            digests[template.name] = digest
            tracer.event(
                BACKEND_EQUIVALENCE,
                {
                    "backend": mode,
                    "template": template.name,
                    "digest": digest,
                    "rows": artifact[(mode, template.name)].rows,
                },
            )

    for label, make_machine in PLATFORMS:
        proto = make_machine()
        catalog = JobCatalog(proto, quick=quick)
        envelope = SgxCostEnvelope(proto)
        for template in chosen:
            # Pin the sim mode: the operator arm must price through the
            # operators even when a session-wide --backend is active.
            sim_only = replace(current_run_config(), backend="sim")
            with use_run_config(sim_only):
                plain = catalog.cost(template, common.SETTING_PLAIN)
                sgx = catalog.cost(template, common.SETTING_SGX_IN)
            report.add(
                f"{label} operator",
                template.name,
                sgx.service_s / plain.service_s,
                "x overhead",
            )
            for mode in modes:
                cost = envelope.price(
                    get_profile(mode, template, artifact), template
                )
                tracer.event(BACKEND_ENVELOPE, cost.as_event_attrs())
                report.add(
                    f"{label} {mode} engine",
                    template.name,
                    cost.overhead,
                    "x overhead",
                )
                report.add(
                    f"{label} {mode} init share",
                    template.name,
                    cost.init_s / cost.in_enclave_s,
                    "fraction",
                )

    if modes:
        gated = ", ".join(
            f"{name} -> {digests[name][:12]}" for name in TEMPLATE_NAMES
        )
        report.notes.append(
            f"equivalence gate passed for sim + {', '.join(modes)} on "
            f"every template before timing; bag digests: {gated}"
        )
    for reason in skipped:
        report.notes.append(f"skipped: {reason}")
    report.notes.append(
        "engine arms price a calibrated profile (checked-in artifact) "
        "through the SGX cost envelope: heap pre-touch at init + access-"
        "penalized execution + EPC paging past the budget; operator arms "
        "are the catalog's real-operator pricing"
    )
    return report
