"""Pointer chasing à la pmbw (Sec. 4.1, Fig. 5 left).

An array of pointers forms one closed cycle through random positions; each
load depends on the previous one, defeating out-of-order overlap and
exposing the full random-read latency.  This is the worst case for SGXv2's
memory decryption: with a 16 GB array the paper measures 53 % of the
plain-CPU throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.machine import ExecutionContext
from repro.memory.access import AccessBatch, AccessProfile, CodeVariant, PatternKind

#: Bytes per chain slot (one 64-bit pointer).
SLOT_BYTES = 8


def build_pointer_cycle(slots: int, rng: np.random.Generator) -> np.ndarray:
    """A permutation array forming a single cycle over all slots.

    ``chain[i]`` is the next index after ``i``; following it visits every
    slot exactly once before returning to the start (a Sattolo-style cycle,
    built vectorized: visit the slots in shuffled order).
    """
    if slots < 1:
        raise ConfigurationError("need at least one slot")
    visit_order = rng.permutation(slots)
    chain = np.empty(slots, dtype=np.int64)
    chain[visit_order] = np.roll(visit_order, -1)
    return chain


def chase(chain: np.ndarray, steps: int, start: int = 0) -> int:
    """Follow the chain ``steps`` times; returns the final position.

    The real dependent-load loop; used to verify chain integrity in tests
    and to keep the benchmark honest (the work actually happens).
    """
    position = start
    for _ in range(steps):
        position = int(chain[position])
    return position


@dataclass
class MicroResult:
    """Outcome of a micro-benchmark run."""

    name: str
    setting: str
    operations: float
    cycles: float
    checksum: int = 0



class PointerChaseBenchmark:
    """Dependent random reads over an array of ``array_bytes``."""

    name = "pointer-chase"

    def __init__(self, array_bytes: float, *, physical_cap_slots: int = 1 << 20):
        if array_bytes < SLOT_BYTES:
            raise ConfigurationError("array must hold at least one pointer")
        self.array_bytes = float(array_bytes)
        self.physical_slots = min(int(array_bytes // SLOT_BYTES), physical_cap_slots)

    def run(
        self,
        ctx: ExecutionContext,
        *,
        steps: float = 1e6,
        verify_steps: int = 10_000,
        seed: int = 3,
    ) -> MicroResult:
        """Chase ``steps`` (logical) pointers; a capped physical chase runs
        for real to exercise the dependent-load path."""
        rng = np.random.default_rng(seed)
        chain = build_pointer_cycle(self.physical_slots, rng)
        checksum = chase(chain, min(verify_steps, int(steps)))

        ctx.allocate("chase-array", int(self.array_bytes))
        executor = ctx.executor()
        profile = AccessProfile()
        profile.add(
            AccessBatch(
                kind=PatternKind.DEPENDENT_READ,
                count=steps / ctx.threads,
                element_bytes=SLOT_BYTES,
                working_set_bytes=self.array_bytes,
                locality=ctx.data_locality,
                variant=CodeVariant.NAIVE,
                parallelism=1.0,
                compute_cycles_per_item=1.0,
                label="chase",
            )
        )
        executor.run_uniform_phase("chase", profile)
        return MicroResult(
            name=self.name,
            setting=ctx.setting.label,
            operations=steps,
            cycles=executor.total_cycles(),
            checksum=checksum,
        )
