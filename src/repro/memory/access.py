"""Access profiles: the structured trace an operator hands to the cost model.

Operators in this library do their work twice over, in a single pass: they
compute the *real* result with numpy, and they record *what the equivalent
C++ implementation would have done to memory* as a list of
:class:`AccessBatch` objects.  A batch summarizes a homogeneous group of
accesses ("12.5 M independent random 8-byte writes into a 256 MB region on
node 0, from naive code").  The cost model prices batches; it never sees
individual addresses, which keeps simulation cost independent of data size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, List, Optional

from repro.errors import ConfigurationError


class PatternKind(enum.Enum):
    """The memory access patterns distinguished by the cost model."""

    #: Pure computation; ``count`` is a cycle count, no memory traffic.
    COMPUTE = "compute"
    #: Streaming reads of ``count`` elements of ``element_bytes`` each.
    SEQ_READ = "seq_read"
    #: Streaming writes.
    SEQ_WRITE = "seq_write"
    #: Independent random reads (out-of-order execution can overlap them).
    RANDOM_READ = "random_read"
    #: Independent random writes.
    RANDOM_WRITE = "random_write"
    #: Dependent random reads — each address depends on the previous value
    #: (pointer chasing); no memory-level parallelism is possible.
    DEPENDENT_READ = "dependent_read"
    #: A fused read-modify-write loop (histogram building, hash-table
    #: inserts): sequential reads of the input interleaved with random
    #: read-modify-writes into a table of ``table_bytes``.
    RMW_LOOP = "rmw_loop"


class CodeVariant(enum.Enum):
    """How the inner loop is written; Sec. 4.2 of the paper.

    Inside an SGXv2 enclave the CPU's dynamic instruction reordering is
    restricted, so dependent loops run at a fraction of their native speed
    unless the *source code* is manually unrolled and reordered.
    """

    #: The straightforward loop (Listing 1).
    NAIVE = "naive"
    #: Manually unrolled 8x with index computations hoisted (Listing 2).
    UNROLLED = "unrolled"
    #: AVX-512-assisted unrolling with up to 32 indexes in registers.
    SIMD = "simd"


@dataclass(frozen=True)
class Locality:
    """Where the touched data lives: NUMA node and protection domain."""

    node: int
    in_enclave: bool

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigurationError(f"node must be non-negative, got {self.node}")


@dataclass(frozen=True)
class AccessBatch:
    """A homogeneous group of memory accesses (see module docstring).

    ``working_set_bytes`` is the region size random accesses are spread
    over; it drives cache residency and the size-dependent SGX penalties.
    ``parallelism`` is the memory-level parallelism the access stream
    exhibits on the plain CPU (1 for fully dependent chains, ~8 for
    independent accesses); the enclave-mode code-execution restriction
    reduces it for :attr:`CodeVariant.NAIVE` code.
    ``table_bytes``/``table_locality`` describe the RMW target of fused
    :attr:`PatternKind.RMW_LOOP` batches; ``table_writes`` distinguishes
    updating loops (histogram build, hash insert) from read-only probing
    loops, which pay the lighter random-read penalty.
    """

    kind: PatternKind
    count: float
    element_bytes: int
    working_set_bytes: float
    locality: Locality
    variant: CodeVariant = CodeVariant.NAIVE
    parallelism: float = 8.0
    compute_cycles_per_item: float = 1.0
    table_bytes: float = 0.0
    table_locality: Optional[Locality] = None
    table_writes: bool = True
    #: How exposed the loop body is to the enclave-mode reordering
    #: restriction (Sec. 4.2).  1.0 = a tight dependent loop like the radix
    #: histogram (full 3.25x); values < 1 model loops with enough inherent
    #: instruction-level parallelism that the restriction bites less (the
    #: in-cache probe loops of Fig. 6 barely slow down).
    reorder_sensitivity: float = 1.0
    #: How strongly the restriction throttles the loop's *memory-level
    #: parallelism* (the dynamic unrolling the CPU loses in enclave mode).
    #: Defaults to ``reorder_sensitivity``; PHT-style loops have cheap
    #: bodies (low reorder_sensitivity) yet lose their overlapping of DRAM
    #: misses entirely (mlp_sensitivity 1.0) — that is why PHT is unhurt
    #: in-cache (Fig. 4, 95 %) but collapses once the table exceeds cache.
    mlp_sensitivity: Optional[float] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigurationError("count must be non-negative")
        if self.kind is not PatternKind.COMPUTE:
            if self.element_bytes <= 0:
                raise ConfigurationError("element_bytes must be positive")
            if self.working_set_bytes < 0:
                raise ConfigurationError("working_set_bytes must be non-negative")
        if self.parallelism < 1.0:
            raise ConfigurationError("parallelism must be >= 1")
        if not 0.0 <= self.reorder_sensitivity <= 1.0:
            raise ConfigurationError("reorder_sensitivity must be within [0, 1]")
        if self.mlp_sensitivity is not None and not 0.0 <= self.mlp_sensitivity <= 1.0:
            raise ConfigurationError("mlp_sensitivity must be within [0, 1]")
        if self.kind is PatternKind.RMW_LOOP:
            if self.table_bytes <= 0:
                raise ConfigurationError("RMW_LOOP batches need table_bytes > 0")
            if self.table_locality is None:
                raise ConfigurationError("RMW_LOOP batches need a table_locality")

    @property
    def bytes_touched(self) -> float:
        """Total bytes moved by the batch (input side for RMW loops)."""
        if self.kind is PatternKind.COMPUTE:
            return 0.0
        return self.count * self.element_bytes

    def scaled(self, factor: float) -> "AccessBatch":
        """A copy with ``count`` multiplied by ``factor`` (work splitting)."""
        if factor < 0:
            raise ConfigurationError("scale factor must be non-negative")
        return replace(self, count=self.count * factor)


@dataclass
class SyncCosts:
    """Non-memory events an operator incurs: transitions, locks, pages.

    These are accumulated separately from access batches because their cost
    depends on enclave state rather than on data placement.
    """

    transitions: int = 0
    mutex_acquisitions: int = 0
    mutex_contention_ratio: float = 0.0
    spinlock_acquisitions: int = 0
    atomic_ops: int = 0
    barriers: int = 0
    pages_added_dynamically: int = 0
    pages_touched_statically: int = 0

    def merge(self, other: "SyncCosts") -> None:
        """Accumulate ``other`` into self (contention ratio is count-weighted)."""
        total_mutex = self.mutex_acquisitions + other.mutex_acquisitions
        if total_mutex > 0:
            self.mutex_contention_ratio = (
                self.mutex_contention_ratio * self.mutex_acquisitions
                + other.mutex_contention_ratio * other.mutex_acquisitions
            ) / total_mutex
        self.transitions += other.transitions
        self.mutex_acquisitions += other.mutex_acquisitions
        self.spinlock_acquisitions += other.spinlock_acquisitions
        self.atomic_ops += other.atomic_ops
        self.barriers += other.barriers
        self.pages_added_dynamically += other.pages_added_dynamically
        self.pages_touched_statically += other.pages_touched_statically


class AccessProfile:
    """An ordered collection of access batches plus synchronization costs."""

    def __init__(self, batches: Optional[Iterable[AccessBatch]] = None) -> None:
        self._batches: List[AccessBatch] = list(batches or [])
        self.sync = SyncCosts()

    def __iter__(self) -> Iterator[AccessBatch]:
        return iter(self._batches)

    def __len__(self) -> int:
        return len(self._batches)

    @property
    def batches(self) -> List[AccessBatch]:
        return list(self._batches)

    def add(self, batch: AccessBatch) -> None:
        """Append one batch."""
        self._batches.append(batch)

    def merge(self, other: "AccessProfile") -> None:
        """Append all of ``other``'s batches and sync costs into self."""
        self._batches.extend(other._batches)
        self.sync.merge(other.sync)

    # -- convenience constructors used throughout the operators ---------

    def compute(self, cycles: float, label: str = "") -> None:
        """Record ``cycles`` of pure computation."""
        self.add(
            AccessBatch(
                kind=PatternKind.COMPUTE,
                count=cycles,
                element_bytes=1,
                working_set_bytes=0,
                locality=Locality(node=0, in_enclave=False),
                label=label,
            )
        )

    def seq_read(
        self,
        count: float,
        element_bytes: int,
        locality: Locality,
        *,
        variant: CodeVariant = CodeVariant.SIMD,
        working_set_bytes: Optional[float] = None,
        label: str = "",
    ) -> None:
        """Record a streaming read of ``count`` elements.

        ``working_set_bytes`` defaults to the streamed bytes; pass the
        *aggregate* stream size when this profile is one thread's stripe of
        a larger stream — per-thread stripes can look cache-resident even
        though the threads jointly blow through the shared L3.
        """
        self.add(
            AccessBatch(
                kind=PatternKind.SEQ_READ,
                count=count,
                element_bytes=element_bytes,
                working_set_bytes=(
                    count * element_bytes
                    if working_set_bytes is None
                    else working_set_bytes
                ),
                locality=locality,
                variant=variant,
                label=label,
            )
        )

    def seq_write(
        self,
        count: float,
        element_bytes: int,
        locality: Locality,
        *,
        variant: CodeVariant = CodeVariant.SIMD,
        working_set_bytes: Optional[float] = None,
        label: str = "",
    ) -> None:
        """Record a streaming write of ``count`` elements (see seq_read)."""
        self.add(
            AccessBatch(
                kind=PatternKind.SEQ_WRITE,
                count=count,
                element_bytes=element_bytes,
                working_set_bytes=(
                    count * element_bytes
                    if working_set_bytes is None
                    else working_set_bytes
                ),
                locality=locality,
                variant=variant,
                label=label,
            )
        )

    def total_bytes(self) -> float:
        """Sum of bytes touched over all batches."""
        return sum(batch.bytes_touched for batch in self._batches)
