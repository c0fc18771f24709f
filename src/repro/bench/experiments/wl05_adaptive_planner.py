"""wl05: serving under an EPC squeeze — adaptive planning vs static plans.

One serving scenario runs four times under the SGX (data-in-enclave)
setting with identical streams, seeds, and a pinned EPC-squeeze fault
plan; only the planner mode differs:

* **static-native** — the historical hardcoded plans (RHO-unrolled
  everywhere): what a SGX-oblivious engine serves, and exactly what every
  run served before :mod:`repro.planner` existed;
* **cost** — the planner's analytical choice, made once per template
  against the *unsqueezed* budget (the cost model cannot see a squeeze
  that has not happened yet);
* **adaptive** — the epsilon-greedy selector over the top-k candidates:
  it starts from the analytical ranking and learns from observed
  latencies that, inside the squeeze, the big-scratch RHO plans overflow
  into the Fig. 11 penalty while smaller-footprint plans (PHT/CrkJoin)
  keep fitting;
* **oracle** — the per-dispatch upper bound that sees the momentary EPC
  headroom.

The EPC budget is sized from a deterministic unsqueezed probe run, so
only the squeeze forces the overflow regime.  The acceptance bar is that
adaptive recovers at least half of the clients' p99 gap between
static-native and oracle.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.bench.experiments import common, workload_common
from repro.bench.report import ExperimentReport
from repro.faults import NO_FAULTS, FaultKind, FaultPlan, FaultSpec
from repro.machine import SimMachine
from repro.trace import Tracer, current_tracer, plan_breakdown, tee, use_tracer
from repro.workload import (
    JobCatalog,
    OpenLoopStream,
    QueryMix,
    ServingEngine,
    WorkloadConfig,
)
from repro.workload.jobs import JobKind, JobTemplate, serving_templates

EXPERIMENT_ID = "wl05"
TITLE = "Serving under EPC squeeze: adaptive planner vs static plans"
PAPER_REFERENCE = "serving-layer consequence of Fig. 3/8/11"

#: The squeezed tenant's join: a probe-heavy foreign-key join.  The shape
#: is chosen so the planner has a real trade to make: RHO-unrolled is
#: fastest with room to breathe but its partitioning scratch doubles the
#: inputs (~820 MB), while PHT streams the probe against a small hash
#: table (~450 MB) at only ~1.13x RHO's base cost.  Inside the squeeze the
#: scheduler's EDMM penalty on RHO's overflow dwarfs that 13 %.
#: Joins take the whole pool: at most one join holds EPC at a time, so
#: the headroom a selector sees is the headroom its query will run with.
JOIN_BUILD_MB = 10.0
JOIN_PROBE_MB = 400.0
JOIN_THREADS = 16

#: The interactive tenants' mix: the squeezed join dominates the tail.
MIX_WEIGHTS = {"scan-small": 0.4, "join-probe-heavy": 0.6}

#: Offered load as a fraction of the mix's nominal capacity — low enough
#: that the well-planned arms stay stable, so the tail is service-driven
#: (the planner's domain) rather than pure queueing backlog.
LOAD_FRACTION = 0.4

#: Budget pad over the probe's EPC high water (see wl04).
BUDGET_PAD = 1.1

#: The squeeze: a co-tenant grabs 65 % of the EPC a quarter into the run
#: and never gives it back (it outlives the arrival window, so drained
#: stragglers are squeezed too).
SQUEEZE_MAGNITUDE = 0.35
SQUEEZE_START = 0.25  # fraction of the arrival window
SQUEEZE_END = 4.0

#: All six join arms stay available to the selectors (the refuge plans —
#: PHT, INL, CrkJoin — rank last analytically but win inside the squeeze).
PLAN_TOP_K = 6

PLAN_SEED = 31


def _squeeze_plan(duration_s: float) -> FaultPlan:
    return FaultPlan(
        name="wl05-epc-squeeze",
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
    """Latency/goodput of the four planner arms on one squeezed scenario."""
    report = ExperimentReport(EXPERIMENT_ID, TITLE, PAPER_REFERENCE)
    catalog = JobCatalog(machine, quick=quick)
    templates = serving_templates()
    templates["join-probe-heavy"] = JobTemplate(
        name="join-probe-heavy",
        kind=JobKind.JOIN,
        threads=JOIN_THREADS,
        build_bytes=JOIN_BUILD_MB * 1e6,
        probe_bytes=JOIN_PROBE_MB * 1e6,
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

    arms = ("static-native", "cost", "adaptive", "oracle")
    for label in arms:
        mode = "static" if label == "static-native" else label
        # Only the planner arms' choices are read back.
        run_tracer = Tracer(label=f"wl05-{label}") if mode != "static" else None
        with use_tracer(tee(current_tracer(), run_tracer)):
            metrics = engine.run(
                scenario(
                    epc_budget_bytes=budget,
                    faults=plan,
                    planner=mode,
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
        if mode != "static":
            choices = plan_breakdown(run_tracer)
            report.notes.append(choices.describe())

    static_p99 = report.value("static-native latency", 99)
    oracle_p99 = report.value("oracle latency", 99)
    adaptive_p99 = report.value("adaptive latency", 99)
    cost_p99 = report.value("cost latency", 99)
    gap = static_p99 - oracle_p99
    recovered = (static_p99 - adaptive_p99) / gap if gap > 0 else 1.0
    report.notes.append(
        f"clients p99: static-native {static_p99:.0f} ms, cost "
        f"{cost_p99:.0f} ms, adaptive {adaptive_p99:.0f} ms, oracle "
        f"{oracle_p99:.0f} ms — adaptive recovers {recovered:.0%} of the "
        f"static-to-oracle gap under the squeeze"
    )
    report.notes.append(
        f"plan {plan.name} (seed {plan.seed}): EPC squeeze to "
        f"{SQUEEZE_MAGNITUDE:.0%} from {SQUEEZE_START * duration:.1f} s "
        f"of a {duration:.1f} s arrival window onward (covers the drain); "
        f"budget {budget / 1e6:.0f} MB ({BUDGET_PAD:.1f}x probe high "
        f"water); top-{PLAN_TOP_K} arms per template"
    )
    return report
