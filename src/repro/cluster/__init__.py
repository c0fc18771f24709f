"""``repro.cluster``: sharded multi-enclave serving across sockets.

The first layer *above* the scheduler: a shard map of N enclaves spanning
both sockets (and M simulated machines), consistent-hash or load-aware
tenant routing, per-shard EPC budgets and admission policies, cross-socket
shuffles priced through the calibrated UPI bandwidth model, shard-level
faults with failover re-routing, and an elastic pool grown/shrunk through
the EDMM model.  See ``docs/architecture.md`` ("Cluster serving").
"""

from repro.cluster.config import ClusterConfig
from repro.cluster.elastic import ElasticPolicy
from repro.cluster.faults import (
    NO_SHARD_FAULTS,
    ClusterFaultPlan,
    ShardFaultKind,
    ShardFaultSpec,
)
from repro.cluster.routing import HashRouter, LoadAwareRouter, make_router
from repro.cluster.scheduler import (
    ClusterResult,
    ClusterScheduler,
    ShardRuntime,
)
from repro.cluster.spec import ClusterSpec, ShardSpec

__all__ = [
    "ClusterConfig",
    "ClusterFaultPlan",
    "ClusterResult",
    "ClusterScheduler",
    "ClusterSpec",
    "ElasticPolicy",
    "HashRouter",
    "LoadAwareRouter",
    "NO_SHARD_FAULTS",
    "ShardFaultKind",
    "ShardFaultSpec",
    "ShardRuntime",
    "ShardSpec",
    "make_router",
]
