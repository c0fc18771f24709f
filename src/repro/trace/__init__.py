"""End-to-end tracing & metrics: one substrate for every breakdown.

The paper's contribution is *diagnosable* benchmarks — run time explained,
not just measured (Fig. 6 phase breakdowns, Fig. 11 EDMM attribution).
This package is the repo-wide version of that idea: a :class:`Tracer`
collects typed span/event records from the cost model's phase executor,
the enclave's page ledger, and the serving scheduler, plus a
counters/gauges registry; exporters write deterministic JSON-lines and
CSV; and the breakdown reporter turns any trace into queueing vs. service
vs. EDMM-penalty vs. interference time (or a per-phase operator split).

Tracing is opt-in and observation-only: the default current tracer is a
no-op, and an enabled tracer never perturbs simulated time or RNG state,
so traced and untraced runs produce bit-identical experiment results.
"""

from repro.trace.breakdown import (
    BackendBreakdown,
    ClusterBreakdown,
    FaultBreakdown,
    PlanBreakdown,
    RewriteBreakdown,
    ServingBreakdown,
    StorageBreakdown,
    backend_breakdown,
    cluster_breakdown,
    fault_breakdown,
    phase_breakdown,
    plan_breakdown,
    rewrite_breakdown,
    serving_breakdown,
    storage_breakdown,
    serving_runs,
)
from repro.trace.exporters import (
    read_jsonl,
    to_csv,
    to_jsonl,
    write_csv,
    write_jsonl,
)
from repro.trace.records import (
    Counter,
    Event,
    Gauge,
    Span,
    record_from_dict,
)
from repro.trace.tracer import (
    NULL_TRACER,
    NullTracer,
    TeeTracer,
    Tracer,
    current_tracer,
    tee,
    use_tracer,
)

__all__ = [
    "BackendBreakdown",
    "ClusterBreakdown",
    "Counter",
    "Event",
    "FaultBreakdown",
    "Gauge",
    "NULL_TRACER",
    "NullTracer",
    "PlanBreakdown",
    "RewriteBreakdown",
    "ServingBreakdown",
    "StorageBreakdown",
    "Span",
    "TeeTracer",
    "Tracer",
    "backend_breakdown",
    "cluster_breakdown",
    "current_tracer",
    "fault_breakdown",
    "phase_breakdown",
    "plan_breakdown",
    "read_jsonl",
    "record_from_dict",
    "rewrite_breakdown",
    "serving_breakdown",
    "storage_breakdown",
    "serving_runs",
    "tee",
    "to_csv",
    "to_jsonl",
    "use_tracer",
    "write_csv",
    "write_jsonl",
]
