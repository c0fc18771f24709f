"""wl08: serving with learned rewrites under an EPC squeeze.

wl05's squeeze scenario with a TPC-H-heavy mix and one new arm: the
adaptive planner serving with ``--rewrite learned``.  Four runs share
identical streams, seeds, and a pinned EPC-squeeze fault plan; only the
planning stack differs:

* **static** — the historical hardcoded logical+physical plans;
* **adaptive** — the epsilon-greedy selector over the physical
  candidates only (what wl05 ships);
* **adaptive+learned** — the same selector, but the arm set also holds
  each template's proven rewrite winner.  The learned arms matter here
  for their *footprint*, not just their speed: a rewrite that loads
  fewer base tables (or pipelines away its intermediates) keeps fitting
  inside the squeezed EPC while the reference plans overflow into the
  Fig. 11 penalty;
* **oracle** — the per-dispatch physical upper bound (it sees the
  momentary headroom but not the rewrites, so the learned arm can
  legitimately recover *more* than the physical static-to-oracle gap).

The acceptance bar is that adaptive+learned recovers a measurable share
of the clients' p99 gap between static and oracle — and at least as
much as plain adaptive.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.bench.experiments import common, workload_common
from repro.bench.report import ExperimentReport
from repro.faults import NO_FAULTS, FaultKind, FaultPlan, FaultSpec
from repro.machine import SimMachine
from repro.trace import Tracer, current_tracer, tee, use_tracer
from repro.trace.breakdown import rewrite_breakdown
from repro.workload import (
    JobCatalog,
    OpenLoopStream,
    QueryMix,
    ServingEngine,
    WorkloadConfig,
)
from repro.workload.jobs import JobKind, JobTemplate, serving_templates

EXPERIMENT_ID = "wl08"
TITLE = "Serving with learned rewrites under EPC squeeze"
PAPER_REFERENCE = "serving-layer consequence of the rewrite ablation (ext09)"

#: The TPC-H-heavy mix: the two queries with proven rewrite winners
#: dominate, a small scan keeps the interactive tail honest.
MIX_WEIGHTS = {"q3": 0.45, "q10": 0.35, "scan-small": 0.2}

#: Offered load as a fraction of nominal capacity (see wl05).
LOAD_FRACTION = 0.4

#: Budget pad over the probe run's EPC high water (see wl04/wl05).
BUDGET_PAD = 1.1

#: The squeeze: a co-tenant grabs 65 % of the EPC a quarter into the
#: arrival window and outlives the drain.
SQUEEZE_MAGNITUDE = 0.35
SQUEEZE_START = 0.25
SQUEEZE_END = 4.0

#: Every physical candidate stays available; the learned arm rides on top.
PLAN_TOP_K = 6

PLAN_SEED = 31


def _squeeze_plan(duration_s: float) -> FaultPlan:
    return FaultPlan(
        name="wl08-epc-squeeze",
        seed=PLAN_SEED,
        specs=(
            FaultSpec(
                FaultKind.EPC_SQUEEZE,
                start_s=SQUEEZE_START * duration_s,
                end_s=SQUEEZE_END * duration_s,
                magnitude=SQUEEZE_MAGNITUDE,
            ),
        ),
    )


def run(
    machine: Optional[SimMachine] = None, *, quick: bool = True
) -> ExperimentReport:
    """Latency/goodput of the four arms on one squeezed TPC-H scenario."""
    report = ExperimentReport(EXPERIMENT_ID, TITLE, PAPER_REFERENCE)
    catalog = JobCatalog(machine, quick=quick)
    templates = serving_templates()
    templates["q10"] = JobTemplate(
        name="q10",
        kind=JobKind.TPCH,
        threads=4,
        query="Q10",
        scale_factor=1.0,
    )
    engine = ServingEngine(catalog, templates=templates)
    mix = QueryMix.of(MIX_WEIGHTS)
    queries = workload_common.target_queries(quick)

    costs = {
        name: catalog.cost(engine.templates[name], common.SETTING_SGX_IN)
        for name in MIX_WEIGHTS
    }
    capacity = workload_common.capacity_qps(costs, MIX_WEIGHTS, cores=16)
    qps = LOAD_FRACTION * capacity
    duration = queries / qps

    def scenario(**overrides) -> WorkloadConfig:
        config = WorkloadConfig(
            setting=common.SETTING_SGX_IN,
            open_streams=(
                OpenLoopStream(
                    "clients",
                    qps=qps,
                    mix=mix,
                    seed=workload_common.stream_seed(0),
                ),
            ),
            duration_s=duration,
            cores=16,
            policy="fifo",
            faults=NO_FAULTS,
            planner="static",
            plan_top_k=PLAN_TOP_K,
        )
        return dataclasses.replace(config, **overrides)

    # Deterministic probe: the unsqueezed static scenario's EPC high water
    # sizes the budget so only the squeeze forces overflow.
    probe = engine.run(scenario())
    budget = BUDGET_PAD * probe.epc_high_water_bytes
    plan = _squeeze_plan(duration)

    arms = ("static", "adaptive", "adaptive+learned", "oracle")
    learned_tracer = None
    for label in arms:
        planner = {"static": "static", "oracle": "oracle"}.get(
            label, "adaptive"
        )
        # Pin "off" (not None) on the rewrite-free arms so a session-level
        # --rewrite cannot contaminate the comparison.
        rewrite = "learned" if label == "adaptive+learned" else "off"
        # Only the learned arm's rewrite breakdown is read back.
        run_tracer = None
        if rewrite == "learned":
            run_tracer = learned_tracer = Tracer(label=f"wl08-{label}")
        with use_tracer(tee(current_tracer(), run_tracer)):
            metrics = engine.run(
                scenario(
                    epc_budget_bytes=budget,
                    faults=plan,
                    planner=planner,
                    rewrite=rewrite,
                )
            )
        for p in workload_common.PERCENTILES:
            report.add(
                f"{label} latency",
                p,
                metrics.latency_percentile_s(p, stream="clients") * 1e3,
                "ms",
            )
        report.add("goodput", label, metrics.goodput_qps(), "QPS")
        report.notes.append(workload_common.counters_note(label, metrics))

    static_p99 = report.value("static latency", 99)
    oracle_p99 = report.value("oracle latency", 99)
    adaptive_p99 = report.value("adaptive latency", 99)
    learned_p99 = report.value("adaptive+learned latency", 99)
    gap = static_p99 - oracle_p99

    def recovered(p99: float) -> float:
        return (static_p99 - p99) / gap if gap > 0 else 1.0

    report.notes.append(
        f"clients p99: static {static_p99:.0f} ms, adaptive "
        f"{adaptive_p99:.0f} ms, adaptive+learned {learned_p99:.0f} ms, "
        f"oracle {oracle_p99:.0f} ms — learned rewrites recover "
        f"{recovered(learned_p99):.0%} of the static-to-oracle gap "
        f"(plain adaptive: {recovered(adaptive_p99):.0%}; the oracle is "
        "physical-only, so > 100 % means the logical winner beat its arms)"
    )
    if learned_tracer is not None:
        report.notes.append(
            "learned arm: " + rewrite_breakdown(learned_tracer).describe()
        )
    report.notes.append(
        f"plan {plan.name} (seed {plan.seed}): EPC squeeze to "
        f"{SQUEEZE_MAGNITUDE:.0%} from {SQUEEZE_START * duration:.1f} s "
        f"of a {duration:.1f} s arrival window onward (covers the drain); "
        f"budget {budget / 1e6:.0f} MB ({BUDGET_PAD:.1f}x probe high "
        f"water); top-{PLAN_TOP_K} physical arms per template"
    )
    return report
