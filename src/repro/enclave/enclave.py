"""Enclave lifecycle and (dynamic) enclave memory management.

An :class:`Enclave` owns a statically pre-allocated EPC heap (the size the
SGX SDK reserves at ``ECREATE``/``EINIT`` time from the ``HeapMaxSize``
configuration) and optionally grows via SGXv2's EDMM (``EAUG`` +
``EACCEPT``) in 4 KiB pages.  Section 4.4 / Fig. 11 of the paper shows that
growing the enclave during a join collapses throughput to 4.5 % of the
statically-sized enclave; the page ledger kept here is what lets operators
charge those costs to their access profiles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List

from repro.errors import CapacityError, ConfigurationError, EnclaveStateError
from repro.memory.access import AccessProfile
from repro.memory.allocator import MemoryAllocator, Region
from repro.trace.tracer import current_tracer
from repro.units import PAGE_BYTES


class EnclaveState(enum.Enum):
    """Lifecycle states (simplified ECREATE/EINIT/destroy protocol)."""

    CREATED = "created"
    INITIALIZED = "initialized"
    DESTROYED = "destroyed"


@dataclass(frozen=True)
class EnclaveConfig:
    """Build-time configuration of an enclave.

    ``heap_bytes`` is the statically committed EPC heap; ``dynamic`` enables
    EDMM growth up to ``max_bytes``.  A well-configured OLAP enclave sizes
    ``heap_bytes`` for the whole query (the paper's recommendation); the
    dynamic path exists to reproduce Fig. 11.
    """

    heap_bytes: int
    node: int = 0
    dynamic: bool = False
    max_bytes: int = 0

    def __post_init__(self) -> None:
        if self.heap_bytes < 0:
            raise ConfigurationError("heap_bytes must be non-negative")
        if self.dynamic and self.max_bytes < self.heap_bytes:
            raise ConfigurationError(
                "a dynamic enclave needs max_bytes >= heap_bytes"
            )


class Enclave:
    """A running enclave: EPC heap accounting plus the EDMM page ledger."""

    def __init__(self, config: EnclaveConfig, allocator: MemoryAllocator) -> None:
        self.config = config
        self._allocator = allocator
        self.state = EnclaveState.CREATED
        self._heap_region = allocator.allocate(
            "enclave-heap", config.heap_bytes, node=config.node, in_enclave=True
        )
        self._heap_used = 0
        self._dynamic_bytes = 0
        self._regions: List[Region] = []
        self.pages_added_total = 0

    # -- lifecycle -------------------------------------------------------

    def initialize(self) -> None:
        """EINIT: the enclave becomes usable."""
        if self.state is not EnclaveState.CREATED:
            raise EnclaveStateError(f"cannot initialize enclave in state {self.state}")
        self.state = EnclaveState.INITIALIZED
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                "enclave.init",
                {
                    "heap_bytes": self.config.heap_bytes,
                    "dynamic": self.config.dynamic,
                    "max_bytes": self.config.max_bytes,
                    "node": self.config.node,
                },
            )

    def destroy(self) -> None:
        """Tear the enclave down and release all EPC (idempotent).

        Crash-recovery paths tear enclaves down from error handlers that
        cannot know whether a previous handler already ran; a second
        ``destroy`` must therefore be a no-op, never an error.
        """
        if self.state is EnclaveState.DESTROYED:
            return
        for region in self._regions:
            if not region.freed:
                self._allocator.free(region)
        if not self._heap_region.freed:
            self._allocator.free(self._heap_region)
        self.state = EnclaveState.DESTROYED

    def _require_initialized(self) -> None:
        if self.state is not EnclaveState.INITIALIZED:
            raise EnclaveStateError(
                f"enclave must be initialized (state is {self.state.value})"
            )

    # -- memory ----------------------------------------------------------

    @property
    def heap_free_bytes(self) -> int:
        return self.config.heap_bytes - self._heap_used

    @property
    def total_bytes(self) -> int:
        """Committed EPC: static heap plus dynamically added pages."""
        return self.config.heap_bytes + self._dynamic_bytes

    def allocate(
        self, name: str, size_bytes: int, profile: AccessProfile = None
    ) -> Region:
        """Allocate enclave memory, growing via EDMM when the heap is full.

        When ``profile`` is given, the page costs (static first-touch or
        EAUG/EACCEPT) are recorded on it so the cost model can price them.
        """
        self._require_initialized()
        if size_bytes < 0:
            raise ConfigurationError("allocation size must be non-negative")
        pages = math.ceil(size_bytes / PAGE_BYTES) if size_bytes else 0
        from_heap = min(size_bytes, self.heap_free_bytes)
        overflow = size_bytes - from_heap
        dynamic_pages = math.ceil(overflow / PAGE_BYTES) if overflow else 0
        if dynamic_pages:
            if not self.config.dynamic:
                raise CapacityError(
                    f"enclave heap exhausted allocating {name!r}: "
                    f"{self.heap_free_bytes} B free, {size_bytes} B requested "
                    "(enclave is statically sized)"
                )
            if self.total_bytes + overflow > self.config.max_bytes:
                raise CapacityError(
                    f"dynamic enclave limit exceeded allocating {name!r}"
                )
        # Dynamically added pages occupy EPC beyond the pre-reserved heap.
        if dynamic_pages:
            region = self._commit_dynamic(name, dynamic_pages)
        else:
            # Heap-backed allocations reuse the big heap region; hand out a
            # zero-cost view with the heap's placement.
            region = Region(
                region_id=-len(self._regions) - 1,
                name=name,
                size_bytes=size_bytes,
                node=self.config.node,
                in_enclave=True,
            )
        self._heap_used += from_heap
        if profile is not None:
            profile.sync.pages_touched_statically += pages - dynamic_pages
            profile.sync.pages_added_dynamically += dynamic_pages
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                "enclave.alloc",
                {
                    "region": name,
                    "bytes": size_bytes,
                    "pages_static": pages - dynamic_pages,
                    "pages_dynamic": dynamic_pages,
                    "heap_free_bytes": self.heap_free_bytes,
                },
            )
            tracer.count("enclave.allocations")
            if dynamic_pages:
                tracer.count("enclave.pages_added_dynamically", dynamic_pages)
        return region

    def grow(self, name: str, size_bytes: int, profile: AccessProfile = None) -> Region:
        """EDMM growth (``EAUG`` + ``EACCEPT``): commit new EPC pages.

        The public growth primitive the mid-query EDMM path uses: rounds
        ``size_bytes`` up to whole pages, charges them to ``profile`` when
        given, and raises :class:`~repro.errors.CapacityError` when the
        enclave is statically sized or the dynamic limit is exceeded —
        the failure the EDMM_DENIED fault injects at the serving layer.
        """
        self._require_initialized()
        if size_bytes <= 0:
            raise ConfigurationError("growth size must be positive")
        if not self.config.dynamic:
            raise CapacityError(
                f"cannot grow {name!r}: enclave is statically sized"
            )
        pages = math.ceil(size_bytes / PAGE_BYTES)
        if self.total_bytes + pages * PAGE_BYTES > self.config.max_bytes:
            raise CapacityError(
                f"dynamic enclave limit exceeded growing {name!r}"
            )
        region = self._commit_dynamic(name, pages)
        if profile is not None:
            profile.sync.pages_added_dynamically += pages
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                "enclave.grow",
                {
                    "region": name,
                    "bytes": size_bytes,
                    "pages": pages,
                    "total_bytes": self.total_bytes,
                },
            )
            tracer.count("enclave.pages_added_dynamically", pages)
        return region

    def _commit_dynamic(self, name: str, pages: int) -> Region:
        """Ledger bookkeeping shared by ``allocate`` overflow and ``grow``."""
        region = self._allocator.allocate(
            name,
            pages * PAGE_BYTES,
            node=self.config.node,
            in_enclave=True,
        )
        self._regions.append(region)
        self._dynamic_bytes += pages * PAGE_BYTES
        self.pages_added_total += pages
        return region

    def release_heap(self, size_bytes: int) -> None:
        """Return heap bytes (simplified free for reusable scratch space)."""
        self._require_initialized()
        if size_bytes < 0 or size_bytes > self._heap_used:
            raise ConfigurationError("invalid heap release size")
        self._heap_used -= size_bytes
