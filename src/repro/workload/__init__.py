"""Concurrent multi-tenant query serving on the SGXv2 simulator.

The figure experiments run one query at a time with exclusive ownership of
the machine; this package turns the same simulator into a *serving system*:
workload generators produce concurrent query streams, an enclave-aware
scheduler admits them against a shared EPC budget and core pool, and a
metrics layer reports the latency/throughput quantities a production
deployment cares about.  The ``wl01``-``wl05`` experiments in
:mod:`repro.bench.experiments` are built entirely on this package.

Physical plan choices come from :mod:`repro.planner`: templates describe
logical work (plus optional ``plan_hints``), and a
:class:`~repro.workload.engine.WorkloadConfig`'s ``planner`` mode decides
whether the scheduler serves the historical static plans, the cost-based
choice, or an adaptive bandit refining from observed latencies.
"""

from repro.workload.engine import ServingEngine, WorkloadConfig
from repro.workload.generators import (
    Arrival,
    ClosedLoopStream,
    OpenLoopStream,
    QueryMix,
)
from repro.workload.jobs import (
    JobCatalog,
    JobCost,
    JobKind,
    JobProfile,
    JobTemplate,
    serving_templates,
)
from repro.workload.metrics import (
    FailureRecord,
    MetricsRegistry,
    QueryRecord,
    SchedulerCounters,
    WorkloadMetrics,
    percentile,
)
from repro.workload.policies import (
    AdmissionPolicy,
    EpcAwarePolicy,
    FifoPolicy,
    make_policy,
)
from repro.workload.scheduler import (
    EDMM_OVERFLOW_SLOWDOWN,
    INTERFERENCE_FACTOR,
    WorkloadScheduler,
)

__all__ = [
    "Arrival",
    "AdmissionPolicy",
    "ClosedLoopStream",
    "EDMM_OVERFLOW_SLOWDOWN",
    "EpcAwarePolicy",
    "FailureRecord",
    "FifoPolicy",
    "INTERFERENCE_FACTOR",
    "JobCatalog",
    "JobCost",
    "JobKind",
    "JobProfile",
    "JobTemplate",
    "MetricsRegistry",
    "OpenLoopStream",
    "QueryMix",
    "QueryRecord",
    "SchedulerCounters",
    "ServingEngine",
    "WorkloadConfig",
    "WorkloadMetrics",
    "WorkloadScheduler",
    "make_policy",
    "percentile",
    "serving_templates",
]
