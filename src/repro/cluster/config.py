"""Cluster configuration: topology, routing, failover, faults, elasticity.

A :class:`ClusterConfig` bundles the topology (:class:`ClusterSpec`), the
routing policy, the failover switch, the shard-level fault plan, and the
optional elastic policy.  The session's cluster is the ``cluster`` field
of the ambient :class:`~repro.runconfig.RunConfig`, so ``--cluster 2x4``
reshapes every serving run in a session; experiments that pin topologies
explicitly are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.cluster.elastic import ElasticPolicy
from repro.cluster.faults import NO_SHARD_FAULTS, ClusterFaultPlan
from repro.cluster.spec import ClusterSpec

#: Routing policies :func:`repro.cluster.routing.make_router` accepts.
ROUTING_POLICIES = ("hash", "load-aware")


@dataclass(frozen=True)
class ClusterConfig:
    """One cluster serving setup: shape, routing, failover, faults."""

    spec: ClusterSpec
    routing: str = "hash"
    failover: bool = True
    faults: ClusterFaultPlan = NO_SHARD_FAULTS
    elastic: Optional[ElasticPolicy] = None

    def __post_init__(self) -> None:
        if self.routing not in ROUTING_POLICIES:
            known = ", ".join(ROUTING_POLICIES)
            raise ConfigurationError(
                f"unknown routing policy {self.routing!r}; known: {known}"
            )
        if (
            self.elastic is not None
            and self.elastic.max_shards > self.spec.shard_count
        ):
            raise ConfigurationError(
                f"elastic max_shards {self.elastic.max_shards} exceeds the "
                f"cluster's {self.spec.shard_count} shards"
            )

    @classmethod
    def parse(cls, text: str) -> "ClusterConfig":
        """``--cluster SPEC``: a shape string with default policies.

        ``SPEC`` is a :meth:`ClusterSpec.parse` shape (``"2x4"``,
        ``"2x2x4"``), optionally followed by ``:ROUTING`` to pick the
        routing policy (``"2x4:load-aware"``).
        """
        shape, _, routing = text.partition(":")
        if not routing:
            return cls(spec=ClusterSpec.parse(shape))
        return cls(spec=ClusterSpec.parse(shape), routing=routing)

    def describe(self) -> str:
        """One-line summary for notes and logs."""
        parts = [self.spec.canonical(), self.routing]
        if not self.failover:
            parts.append("no-failover")
        if self.faults.active:
            parts.append(f"faults={self.faults.name}")
        if self.elastic is not None:
            parts.append(
                f"elastic[{self.elastic.min_shards}"
                f"-{self.elastic.max_shards}]"
            )
        return " ".join(parts)
