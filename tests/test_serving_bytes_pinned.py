"""Pinned outputs of small served runs, one per dispatch branch.

Each config serves a few hundred queries from synthetic priced costs (no
operator runs) under a :class:`~repro.trace.Tracer`.  Its digest covers
every scheduler counter, p50/p99 latency, goodput, every query and
failure record, and the traced JSON-lines export, so any change to what
the event loop decides, counts or emits — on the bypass lane, closed-loop
resubmission, graceful degradation, sealed spills under storage faults,
timed-out attempts under an AEX storm, cluster crash/failover/elastic
control, or the adaptive planner — fails
here.  The digests were computed before the event loop's per-event
overhead was cut; the test uses only public entry points so it runs
unchanged against older checkouts.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterFaultPlan,
    ClusterScheduler,
    ClusterSpec,
    ElasticPolicy,
    ShardFaultKind,
    ShardFaultSpec,
)
from repro.cluster.scheduler import QUERY_ID_STRIDE
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    get_fault_plan,
    make_injector,
)
from repro.hardware import paper_calibration, paper_testbed
from repro.planner.adaptive import ArmCost, EpsilonGreedySelector
from repro.planner.candidates import PlanCandidate
from repro.storage.sealed import SealedStore, SpillModel
from repro.trace import Tracer, to_jsonl, use_tracer
from repro.workload import (
    ClosedLoopStream,
    JobCost,
    OpenLoopStream,
    QueryMix,
    WorkloadScheduler,
    make_policy,
)

MB = 1_000_000

#: Synthetic priced costs: ``q3`` is the chaos plan's poisoned template.
COSTS = {
    "small": JobCost("small", threads=1, service_s=0.01,
                     working_set_bytes=10 * MB),
    "big": JobCost("big", threads=4, service_s=0.10,
                   working_set_bytes=200 * MB),
    "q3": JobCost("q3", threads=2, service_s=0.05,
                  working_set_bytes=120 * MB),
}
MIX = QueryMix.of({"small": 0.6, "big": 0.3, "q3": 0.1})
CORES = 8
EPC = 400 * MB


def _open(qps, seed=5, name="tenant"):
    return OpenLoopStream(name, qps=qps, mix=MIX, seed=seed)


def _closed(clients=4, think_s=0.05, seed=9, name="interactive"):
    return ClosedLoopStream(name, clients=clients, think_s=think_s, mix=MIX,
                            seed=seed)


def _scheduler(policy="fifo", *, bypass=None, epc=EPC, **kwargs):
    return WorkloadScheduler(
        COSTS,
        make_policy(policy, bypass_bytes=bypass),
        cores=CORES,
        epc_budget_bytes=epc,
        setting_label="test",
        **kwargs,
    )


#: Per-query fields, read by name so the digest does not depend on how
#: the record types are implemented.
RECORD_FIELDS = (
    "query_id", "stream", "template", "client", "arrival_s", "start_s",
    "finish_s", "working_set_bytes", "overflow_bytes", "bypassed",
    "attempts",
)
FAILURE_FIELDS = (
    "query_id", "stream", "template", "client", "arrival_s", "failed_s",
    "attempts", "outcome",
)


def _summary(metrics, **extra):
    summary = {
        "counters": dataclasses.asdict(metrics.counters),
        "p50": metrics.latency_percentile_s(50),
        "p99": metrics.latency_percentile_s(99),
        "goodput": metrics.goodput_qps(),
        "records": [[getattr(r, f) for f in RECORD_FIELDS]
                    for r in metrics.records],
        "failures": [[getattr(f, name) for name in FAILURE_FIELDS]
                     for f in metrics.failures],
        **extra,
    }
    return json.dumps(summary, sort_keys=True)


def _bypass(policy):
    return _scheduler(policy, bypass=20 * MB).run(
        open_streams=(_open(90.0),), duration_s=3.0
    )


def _closed_loop():
    return _scheduler("fifo").run(
        open_streams=(_open(30.0),),
        closed_streams=(_closed(),),
        duration_s=3.0,
    )


def _chaos_degrade():
    plan = dataclasses.replace(get_fault_plan("chaos"), seed=31)
    resilience = ResiliencePolicy(degrade_on_squeeze=True, timeout_s=0.6,
                                  seed=7)
    return _scheduler(
        "fifo", injector=make_injector(plan), resilience=resilience
    ).run(
        open_streams=(_open(35.0),),
        closed_streams=(_closed(clients=2, think_s=0.2),),
        duration_s=9.0,
    )


def _storage_chaos():
    params = paper_calibration()
    spill = SpillModel(SealedStore(params), paper_testbed().base_frequency_hz)
    plan = dataclasses.replace(get_fault_plan("storage-chaos"), seed=37)
    return _scheduler(
        "fifo",
        epc=250 * MB,
        injector=make_injector(plan),
        resilience=ResiliencePolicy(seed=11),
        storage=spill,
    ).run(open_streams=(_open(40.0),), duration_s=9.0)


def _aex_timeout():
    # A 6x AEX storm inflates ``big`` (0.1 s) and ``q3`` (0.05 s) past
    # the 0.25 s timeout: attempts time out, retry, and some fail for good.
    plan = FaultPlan(
        name="aex-timeout",
        seed=41,
        specs=(FaultSpec(FaultKind.AEX_STORM, start_s=0.5, end_s=2.5,
                         magnitude=6.0),),
    )
    resilience = ResiliencePolicy(max_retries=1, timeout_s=0.25,
                                  breaker_threshold=1000, seed=5)
    return _scheduler(
        "fifo", injector=make_injector(plan), resilience=resilience
    ).run(open_streams=(_open(40.0),), duration_s=3.0)


def _cluster(failover):
    spec = paper_testbed()
    config = ClusterConfig(
        spec=ClusterSpec.parse("2x4"),
        failover=failover,
        faults=ClusterFaultPlan(
            name="pinned",
            seed=3,
            specs=(
                ShardFaultSpec(ShardFaultKind.SHARD_CRASH, start_s=0.6,
                               end_s=1.4, shard=1),
                ShardFaultSpec(ShardFaultKind.REBALANCE_STORM, start_s=1.0,
                               end_s=1.8, probability=0.3),
            ),
        ),
        elastic=ElasticPolicy(min_shards=4, max_shards=8, interval_s=0.25,
                              high_watermark=0.6, low_watermark=0.2),
    )
    shards = config.spec.shards(spec)
    schedulers = [
        WorkloadScheduler(
            COSTS,
            make_policy("epc-aware"),
            cores=shard.cores,
            epc_budget_bytes=EPC,
            setting_label="test",
            shard=shard.label,
            query_id_base=shard.shard_id * QUERY_ID_STRIDE,
        )
        for shard in shards
    ]
    result = ClusterScheduler(
        cluster=config,
        shards=shards,
        schedulers=schedulers,
        costs=COSTS,
        spec=spec,
        params=paper_calibration(),
    ).run(
        open_streams=tuple(_open(30.0, seed=20 + i, name=f"t{i}")
                           for i in range(4)),
        closed_streams=(_closed(clients=3),),
        duration_s=2.5,
    )
    return result.metrics, result.describe()


def _adaptive():
    def arm(algorithm, threads, service_s, working_set_bytes):
        candidate = PlanCandidate(algorithm, threads=threads)
        return ArmCost(candidate=candidate, label=f"{algorithm}-{threads}t",
                       service_s=service_s,
                       working_set_bytes=working_set_bytes)

    arms = {
        "small": (arm("SCAN", 1, 0.01, 10 * MB),
                  arm("SCAN", 2, 0.006, 12 * MB)),
        "big": (arm("RHO", 4, 0.10, 200 * MB), arm("PHT", 4, 0.08, 320 * MB),
                arm("CrkJoin", 2, 0.16, 90 * MB)),
        "q3": (arm("RHO", 2, 0.05, 120 * MB), arm("PHT", 2, 0.045, 180 * MB)),
    }
    selector = EpsilonGreedySelector(arms, seed=13)
    return _scheduler("fifo", selector=selector).run(
        open_streams=(_open(70.0),), duration_s=4.0
    )


def _solo(run):
    return lambda: (run(), None)


#: name -> zero-argument run returning (metrics, extra summary field)
RUNS = {
    "fifo+bypass": _solo(lambda: _bypass("fifo+bypass")),
    "epc-aware+bypass": _solo(lambda: _bypass("epc-aware+bypass")),
    "closed-loop": _solo(_closed_loop),
    "chaos-degrade": _solo(_chaos_degrade),
    "storage-chaos": _solo(_storage_chaos),
    "aex-timeout": _solo(_aex_timeout),
    "cluster-2x4-failover": lambda: _cluster(True),
    "cluster-2x4-no-failover": lambda: _cluster(False),
    "adaptive": _solo(_adaptive),
}

#: sha256 of each run's summary, records and traced JSON-lines export.
PINNED = {
    "fifo+bypass":
        "eacd30482d2d65e901e7e17e05b611306b3d26c6d9f42c6a75593b30856fac8d",
    "epc-aware+bypass":
        "8f607f74f0d5a1dd2c240ee00c11e9eec6c786eb3ffbb05e2de3f0b627f84cf0",
    "closed-loop":
        "50adc251154d5afd39e2a4f8eb9a7ebd50dd34bd80b1d347c6460ad0b3d13deb",
    "chaos-degrade":
        "ff003d35d855135088ce658b09efbcdc61072d6709df472f92d7e54f29b2568b",
    "storage-chaos":
        "27c63de45d42357614b7184525b487bb6afc2f34195847a77d75d86442042ee2",
    "aex-timeout":
        "e7aeb6f24bc97e4bffe69aa457d953e28c0e83a0d2321bb9d60d65a1632f3858",
    "cluster-2x4-failover":
        "ede24b12bb7a57b8d46b85c74fc0507908a7b90e23b68903da3655a6e535945f",
    "cluster-2x4-no-failover":
        "a388718b2a47af8f3f4c23a08823923274b42a48e6776699a52b858c98a142f9",
    "adaptive":
        "0ff9935121879f6e8384ee439ceb661f9cf388bc77ad942e06c73ca66a00fc9d",
}


def served_digest(name):
    """sha256 over the run's summary, records and traced JSON-lines."""
    tracer = Tracer()
    with use_tracer(tracer):
        metrics, extra = RUNS[name]()
    sha = hashlib.sha256()
    for text in (_summary(metrics, extra=extra), to_jsonl(tracer)):
        sha.update(text.encode())
        sha.update(b"\0")
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_served_bytes_pinned(name):
    assert served_digest(name) == PINNED[name]
