"""wl06: sharded multi-enclave scale-out serving across sockets.

The paper benchmarks one enclave owning one socket; this experiment asks
what the same calibrated cost model implies for a *cluster* of enclaves
(:mod:`repro.cluster`).  Thousands of small tenant streams offer ~1.35x
one socket's saturation throughput, and four arm groups probe the shard
map:

* **scale-out sweep** — the same offered load against 1, 2, 4, and 8
  shards (``1x1`` .. ``2x4``): the single-enclave baseline saturates
  (goodput plateaus below the offered rate, p99 blows through the SLO)
  while the sharded pools sustain >=10k simulated QPS inside it;
* **skew** — a hot tenant worth ~1.6x one shard's capacity: consistent
  hashing pins it to its home shard (hot-shard tail), load-aware routing
  spreads it but pays the UPI-priced cross-socket shuffle on every
  off-home placement — the routing trade, quantified;
* **shard crash** — a mid-window crash of shard 0 with failover on vs
  off: failover re-routes the victims (availability recovers), without
  it every query homed to the dead shard is lost for the outage window;
* **elastic pool** — a diurnal peak over a 2-shard floor: the EDMM-grown
  pool absorbs the peak that a pinned 2-shard pool cannot.

Queries are single-threaded lookup joins (a small dimension build
against a short fact probe) sized so one query is ~1 ms under SGX — the
interactive regime where an SLO is meaningful and routing/queueing, not
operator choice, dominates — while the working set a shuffle must move
is small enough that off-home placement costs ~15 % of service time,
not multiples of it.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.bench.experiments import common, workload_common
from repro.bench.report import ExperimentReport
from repro.cluster import (
    ClusterConfig,
    ClusterFaultPlan,
    ClusterSpec,
    ElasticPolicy,
    ShardFaultKind,
    ShardFaultSpec,
)
from repro.faults import NO_FAULTS
from repro.machine import SimMachine
from repro.trace import Tracer, cluster_breakdown, current_tracer, tee, use_tracer
from repro.workload import (
    JobCatalog,
    OpenLoopStream,
    QueryMix,
    ServingEngine,
    WorkloadConfig,
)
from repro.workload.jobs import JobKind, JobTemplate, serving_templates

EXPERIMENT_ID = "wl06"
TITLE = "Cluster scale-out: sharded enclaves, routing, failover, elasticity"
PAPER_REFERENCE = "multi-enclave extrapolation of Table 1 + Figs. 3/9"

#: The tenant query: a single-threaded lookup join, ~1 ms under SGX.
#: Its working set (build + probe) is what a shuffle moves when a query
#: runs off its home shard; at this size the UPI-priced transfer is a
#: noticeable tax (~15 % of service), not a dominating one — a pure
#: scan would invert that (the model scans faster than the UPI moves
#: bytes), making any off-home placement a loss.
JOIN_BUILD_MB = 0.25
JOIN_PROBE_MB = 1.0

MIX_WEIGHTS = {"lookup-join": 1.0}

#: Offered load of the sweep and skew groups as a multiple of one
#: socket's (16-core) saturation throughput: past what one enclave can
#: serve, inside what two sockets can.
OVERLOAD_FACTOR = 1.35

#: The shard-count sweep: 1 enclave on 1 socket up to 4 per socket.
SWEEP_SPECS = ("1x1", "2x1", "2x2", "2x4")

#: The serving SLO for the point-scan tenants.
SLO_MS = 25.0

#: Skew group: uniform background plus one hot tenant offering ~1.6x a
#: single 4-core shard's capacity — beyond what its hash-home can serve.
SKEW_BACKGROUND_FRACTION = 0.55
SKEW_HOT_FACTOR = 1.6

#: Crash group: moderate uniform load (still >=10k QPS), shard 0 down
#: for the middle 30 % of the arrival window.
CRASH_LOAD_FRACTION = 0.85
CRASH_START = 0.35
CRASH_END = 0.65
CRASH_SEED = 61

#: Elastic group: a low base with a peak worth 0.75x a socket in the
#: middle third, over a pool that floats between 2 and 8 shards.
BASE_LOAD_FRACTION = 0.25
PEAK_LOAD_FRACTION = 0.75
PEAK_START = 1.0 / 3.0
PEAK_END = 2.0 / 3.0
ELASTIC_FLOOR = 2

#: Tenant-stream counts (background / elastic base / elastic peak).
TENANTS_QUICK = (200, 50, 150)
TENANTS_FULL = (2000, 500, 1500)

#: Queries per arm (sets each group's arrival-window length).
QUERIES_QUICK = 4000
QUERIES_FULL = 20000


def _tenants(
    prefix: str,
    count: int,
    total_qps: float,
    mix: QueryMix,
    *,
    seed0: int = 0,
    start_s: float = 0.0,
    end_s: Optional[float] = None,
) -> Tuple[OpenLoopStream, ...]:
    """``count`` identical tenants splitting ``total_qps`` evenly."""
    return tuple(
        OpenLoopStream(
            f"{prefix}-{i:04d}",
            qps=total_qps / count,
            mix=mix,
            seed=workload_common.stream_seed(seed0 + i),
            start_s=start_s,
            end_s=end_s,
        )
        for i in range(count)
    )


def run(
    machine: Optional[SimMachine] = None, *, quick: bool = True
) -> ExperimentReport:
    """Latency/goodput/availability of the four cluster arm groups."""
    report = ExperimentReport(EXPERIMENT_ID, TITLE, PAPER_REFERENCE)
    catalog = JobCatalog(machine, quick=quick)
    templates = serving_templates()
    templates["lookup-join"] = JobTemplate(
        name="lookup-join",
        kind=JobKind.JOIN,
        threads=1,
        build_bytes=JOIN_BUILD_MB * 1e6,
        probe_bytes=JOIN_PROBE_MB * 1e6,
    )
    engine = ServingEngine(catalog, templates=templates)
    mix = QueryMix.of(MIX_WEIGHTS)
    n_tenants, n_base, n_peak = TENANTS_QUICK if quick else TENANTS_FULL
    queries = QUERIES_QUICK if quick else QUERIES_FULL
    slo_s = SLO_MS * 1e-3

    costs = {
        name: catalog.cost(engine.templates[name], common.SETTING_SGX_IN)
        for name in MIX_WEIGHTS
    }
    cap_socket = workload_common.capacity_qps(costs, MIX_WEIGHTS, cores=16)
    cap_shard = workload_common.capacity_qps(costs, MIX_WEIGHTS, cores=4)
    offered = OVERLOAD_FACTOR * cap_socket

    def scenario(streams, duration_s, cluster) -> WorkloadConfig:
        return WorkloadConfig(
            setting=common.SETTING_SGX_IN,
            open_streams=streams,
            duration_s=duration_s,
            policy="fifo",
            faults=NO_FAULTS,
            planner="static",
            cluster=cluster,
        )

    def serve(label: str, config: WorkloadConfig, *, traced: bool = False):
        # Only the skew arms' cluster breakdown is read back.
        run_tracer = Tracer(label=f"wl06-{label}") if traced else None
        with use_tracer(tee(current_tracer(), run_tracer)):
            result = engine.run_cluster(config)
        report.notes.append(f"{label}: {result.describe()}")
        return result, run_tracer

    # --- scale-out sweep: fixed offered load, growing shard count -------
    duration = queries / offered
    uniform = _tenants("tenant", n_tenants, offered, mix)
    for spec_text in SWEEP_SPECS:
        spec = ClusterSpec.parse(spec_text)
        shards = spec.shard_count
        cluster = ClusterConfig(spec=spec)
        result, _ = serve(
            f"sweep-{spec_text}", scenario(uniform, duration, cluster)
        )
        metrics = result.metrics
        for p in workload_common.PERCENTILES:
            report.add(
                "scale-out p%d" % p,
                shards,
                metrics.latency_percentile_s(p) * 1e3,
                "ms",
            )
        report.add("scale-out achieved", shards, metrics.achieved_qps(), "QPS")
        report.add("scale-out goodput", shards, metrics.goodput_qps(), "QPS")
        report.add(
            "scale-out SLO attainment",
            shards,
            metrics.slo_attainment(slo_s),
            "frac",
        )
        report.notes.append(
            workload_common.counters_note(f"sweep-{spec_text}", metrics)
        )

    # --- skew: hot tenant vs routing policy -----------------------------
    hot_qps = SKEW_HOT_FACTOR * cap_shard
    skew_offered = SKEW_BACKGROUND_FRACTION * cap_socket + hot_qps
    skew_duration = queries / skew_offered
    skew_streams = _tenants(
        "tenant", n_tenants, SKEW_BACKGROUND_FRACTION * cap_socket, mix
    ) + (
        OpenLoopStream(
            "hot-tenant",
            qps=hot_qps,
            mix=mix,
            seed=workload_common.stream_seed(n_tenants),
        ),
    )
    spec_2x4 = ClusterSpec.parse("2x4")
    skew_results = {}
    for routing in ("hash", "load-aware"):
        cluster = ClusterConfig(spec=spec_2x4, routing=routing)
        result, run_tracer = serve(
            f"skew-{routing}",
            scenario(skew_streams, skew_duration, cluster),
            traced=True,
        )
        metrics = result.metrics
        skew_results[routing] = result
        report.add(
            "skew p99", routing, metrics.latency_percentile_s(99) * 1e3, "ms"
        )
        report.add(
            "skew hot-tenant p99",
            routing,
            metrics.latency_percentile_s(99, stream="hot-tenant") * 1e3,
            "ms",
        )
        report.add(
            "skew SLO attainment", routing, metrics.slo_attainment(slo_s),
            "frac",
        )
        report.add(
            "skew shuffle time", routing, result.shuffle_s, "s"
        )
        report.notes.append(cluster_breakdown(run_tracer).describe())

    # --- shard crash: failover on vs off --------------------------------
    crash_offered = CRASH_LOAD_FRACTION * cap_socket
    crash_duration = queries / crash_offered
    crash_streams = _tenants("tenant", n_tenants, crash_offered, mix)
    crash_plan = ClusterFaultPlan(
        name="wl06-shard-crash",
        seed=CRASH_SEED,
        specs=(
            ShardFaultSpec(
                ShardFaultKind.SHARD_CRASH,
                start_s=CRASH_START * crash_duration,
                end_s=CRASH_END * crash_duration,
                shard=0,
            ),
        ),
    )
    for label, failover in (("failover", True), ("no-failover", False)):
        cluster = ClusterConfig(
            spec=spec_2x4, failover=failover, faults=crash_plan
        )
        result, _ = serve(
            f"crash-{label}",
            scenario(crash_streams, crash_duration, cluster),
        )
        metrics = result.metrics
        report.add("crash availability", label, metrics.availability, "frac")
        report.add(
            "crash p99", label, metrics.latency_percentile_s(99) * 1e3, "ms"
        )
        report.add("crash goodput", label, metrics.goodput_qps(), "QPS")

    # --- elastic pool under a diurnal peak ------------------------------
    base_qps = BASE_LOAD_FRACTION * cap_socket
    peak_qps = PEAK_LOAD_FRACTION * cap_socket
    mean_offered = base_qps + peak_qps * (PEAK_END - PEAK_START)
    elastic_duration = queries / mean_offered
    diurnal = _tenants("base", n_base, base_qps, mix) + _tenants(
        "peak",
        n_peak,
        peak_qps,
        mix,
        seed0=n_base,
        start_s=PEAK_START * elastic_duration,
        end_s=PEAK_END * elastic_duration,
    )
    for label, ceiling in (("elastic", spec_2x4.shard_count),
                           ("static-2", ELASTIC_FLOOR)):
        cluster = ClusterConfig(
            spec=spec_2x4,
            elastic=ElasticPolicy(
                min_shards=ELASTIC_FLOOR,
                max_shards=ceiling,
                interval_s=elastic_duration / 50.0,
            ),
        )
        result, _ = serve(
            label, scenario(diurnal, elastic_duration, cluster)
        )
        metrics = result.metrics
        report.add(
            "elastic p99", label, metrics.latency_percentile_s(99) * 1e3, "ms"
        )
        report.add(
            "elastic SLO attainment", label, metrics.slo_attainment(slo_s),
            "frac",
        )
        report.add("elastic peak shards", label, result.peak_active, "shards")

    # --- headline summary ----------------------------------------------
    base_attain = report.value("scale-out SLO attainment", 1)
    full_attain = report.value("scale-out SLO attainment", 8)
    full_achieved = report.value("scale-out achieved", 8)
    report.notes.append(
        f"offered {offered:.0f} QPS ({OVERLOAD_FACTOR:.2f}x one socket's "
        f"{cap_socket:.0f} QPS): 1 shard attains the {SLO_MS:.0f} ms SLO "
        f"for {base_attain:.0%} of queries (saturated), 8 shards sustain "
        f"{full_achieved:.0f} QPS at {full_attain:.0%} attainment"
    )
    report.notes.append(
        f"crash arm availability: failover "
        f"{report.value('crash availability', 'failover'):.4f} vs "
        f"no-failover "
        f"{report.value('crash availability', 'no-failover'):.4f} "
        f"(shard 0 down {CRASH_START:.0%}-{CRASH_END:.0%} of the window)"
    )
    report.notes.append(
        f"skew: hash hot-tenant p99 "
        f"{report.value('skew hot-tenant p99', 'hash'):.1f} ms vs "
        f"load-aware "
        f"{report.value('skew hot-tenant p99', 'load-aware'):.1f} ms at "
        f"{skew_results['load-aware'].shuffle_s:.2f} s total shuffle "
        f"(hot tenant {hot_qps:.0f} QPS vs one shard's {cap_shard:.0f})"
    )
    return report
