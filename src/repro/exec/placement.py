"""Thread placement: which cores execute an operator.

The paper pins threads to physical cores from the (trusted) OS before they
enter the enclave, because SGX itself exposes no affinity control (Sec. 3,
Sec. 4.3).  A :class:`Placement` is an ordered list of core ids; helpers
construct the configurations the NUMA experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.hardware.topology import Topology


@dataclass(frozen=True)
class Placement:
    """An ordered assignment of simulated threads to physical cores."""

    core_ids: Tuple[int, ...]
    topology: Topology

    def __post_init__(self) -> None:
        if not self.core_ids:
            raise ConfigurationError("a placement needs at least one core")
        if len(set(self.core_ids)) != len(self.core_ids):
            raise ConfigurationError(
                "threads must be pinned to distinct physical cores "
                "(the paper avoids hyper-thread sharing)"
            )
        for core_id in self.core_ids:
            self.topology.core(core_id)  # validates existence

    @property
    def threads(self) -> int:
        return len(self.core_ids)

    def node_of(self, thread_index: int) -> int:
        """NUMA node of the ``thread_index``-th thread."""
        if not 0 <= thread_index < len(self.core_ids):
            raise ConfigurationError(f"no thread {thread_index} in placement")
        return self.topology.node_of_core(self.core_ids[thread_index])

    def nodes(self) -> List[int]:
        """Per-thread NUMA node list."""
        return [self.topology.node_of_core(c) for c in self.core_ids]

    @classmethod
    def on_node(cls, topology: Topology, node: int, threads: int) -> "Placement":
        """All threads on one socket (the paper's default: 16 on node 0)."""
        return cls(tuple(topology.cores_on_node(node, threads)), topology)

    @classmethod
    def all_cores(cls, topology: Topology) -> "Placement":
        """Every physical core of the machine (the 32-thread NUMA case)."""
        cores: Sequence[int] = range(topology.spec.total_cores)
        return cls(tuple(cores), topology)

    @classmethod
    def single(cls, topology: Topology, core: int = 0) -> "Placement":
        """One pinned thread (the single-threaded experiments)."""
        return cls((core,), topology)
