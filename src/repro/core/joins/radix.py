"""RHO — the Radix Hash Optimized join (Sec. 4, join 2).

Both inputs are partitioned by the least-significant key bits in two
parallel passes (histogram + scatter per pass) until each partition fits in
cache; partitions are then joined with the optimized bucket-chain hash
table.  Cache-sized partitions make the build/probe phases cache-resident,
which is why RHO tops Fig. 3 — and why its remaining in-enclave overhead
comes from the *loop-execution* effect of Sec. 4.2 (histogram creation up
to 4x slower) rather than from memory encryption.  The ``variant``
parameter selects the naive loops (Listing 1) or the manually
unrolled-and-reordered ones (Listing 2), the paper's headline optimization.

The passes and the per-partition build/probe exist only as priced
``AccessProfile``s; the matches come from one global hash table over the
build side (:func:`partitioned_match`), which yields exactly the
partition-wise result.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.joins.base import JoinAlgorithm, JoinResult
from repro.core.structures.hashtable import match_first, table_bytes_for
from repro.enclave.sync import LockKind, record_lock_ops
from repro.exec.queue import TaskQueueModel
from repro.machine import ExecutionContext
from repro.memory.access import AccessBatch, AccessProfile, CodeVariant, PatternKind
from repro.tables.generator import JOIN_TUPLE_BYTES
from repro.tables.table import Table

#: Target logical partition size: half the private L2, leaving room for the
#: partition's hash table next to its data.
_TARGET_PARTITION_BYTES = 640 * 1024

#: Per-tuple loop-body cycles (index computation, cursor bookkeeping, ...).
_HIST_COMPUTE = 1.3
_COPY_COMPUTE = 2.5
_BUILD_COMPUTE = 5.0
_PROBE_COMPUTE = 5.0

#: Exposure of each phase to the enclave reordering restriction, shaped to
#: the Fig. 6 breakdown: histograms suffer the full effect, the scatter and
#: build loops roughly half, the probe loop barely.
_HIST_SENSITIVITY = 1.0
_COPY_SENSITIVITY = 0.55
_BUILD_SENSITIVITY = 0.5
_PROBE_SENSITIVITY = 0.15

#: Modelled bytes of scatter state per partition during a copy pass (write
#: cursor plus one cache line of write-combining buffer).
_SCATTER_STATE_BYTES = 256


def partitioned_match(build: Table, probe: Table) -> Tuple[np.ndarray, np.ndarray]:
    """Matches of the partitioned in-cache join, from one global table.

    Returns ``(build_index, hit_mask)`` aligned to the probe table's
    original row order: ``build_index[i]`` is the matching build row of
    probe row ``i`` (foreign-key joins have at most one).  Shared by RHO
    and CrkJoin, which use the same in-cache join method (Sec. 4).

    The partition passes are priced, not executed.  Joining partition by
    partition gives the same ``build_index`` as one table over the whole
    build side: equal keys share their low bits and so one partition, a
    partition keeps its rows in ascending order, and a chain walk's first
    hit is therefore the highest build row with the probe's key either way.
    """
    return match_first(build["key"], probe["key"])


class RadixJoin(JoinAlgorithm):
    """Two-pass parallel radix join with in-cache hash join per partition."""

    name = "RHO"

    def __init__(
        self,
        variant: CodeVariant = CodeVariant.NAIVE,
        *,
        radix_bits: Optional[int] = None,
        queue_kind: LockKind = LockKind.LOCK_FREE,
    ) -> None:
        super().__init__(variant)
        self.radix_bits = radix_bits
        self.queue_kind = queue_kind

    def choose_radix_bits(self, build: Table) -> int:
        """Bits so each logical build partition fits the cache target."""
        if self.radix_bits is not None:
            return self.radix_bits
        partitions = build.logical_bytes / _TARGET_PARTITION_BYTES
        return max(1, math.ceil(math.log2(max(partitions, 2.0))))

    # ------------------------------------------------------------------

    def _pass_profiles(
        self,
        ctx: ExecutionContext,
        table: Table,
        bits: int,
    ) -> Tuple[AccessProfile, AccessProfile]:
        """(histogram, scatter) per-thread profiles for one partition pass."""
        locality = ctx.data_locality
        share = self.split_rows(table.logical_rows, ctx.threads)
        hist = AccessProfile()
        hist.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=share,
                element_bytes=JOIN_TUPLE_BYTES,
                working_set_bytes=table.logical_bytes,
                locality=locality,
                variant=self.variant,
                parallelism=8.0,
                compute_cycles_per_item=_HIST_COMPUTE,
                table_bytes=max(1.0, (1 << bits) * 4.0),
                table_locality=locality,
                table_writes=True,
                reorder_sensitivity=_HIST_SENSITIVITY,
                label="histogram",
            )
        )
        copy = AccessProfile()
        copy.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=share,
                element_bytes=JOIN_TUPLE_BYTES,
                working_set_bytes=table.logical_bytes,
                locality=locality,
                variant=self.variant,
                parallelism=8.0,
                compute_cycles_per_item=_COPY_COMPUTE,
                table_bytes=max(1.0, (1 << bits) * _SCATTER_STATE_BYTES),
                table_locality=locality,
                table_writes=True,
                reorder_sensitivity=_COPY_SENSITIVITY,
                label="scatter-state",
            )
        )
        # The scatter output itself goes through streaming (non-temporal)
        # stores in every code variant; the unroll variant only changes the
        # loop body and the flush overlap below.
        copy.seq_write(
            share,
            JOIN_TUPLE_BYTES,
            locality,
            variant=CodeVariant.SIMD,
            working_set_bytes=table.logical_bytes,
            label="scatter-out",
        )
        # Every filled write-combining buffer flushes one cache line to its
        # partition's cursor — sequential per partition but scattered across
        # the whole output region, so the flushes pay the random-write
        # penalty of Sec. 4.1 (the paper attributes the optimized join's
        # remaining gap to exactly this).
        copy.add(
            AccessBatch(
                kind=PatternKind.RANDOM_WRITE,
                count=share * JOIN_TUPLE_BYTES / 64.0,
                element_bytes=64,
                working_set_bytes=table.logical_bytes,
                locality=locality,
                variant=self.variant,
                parallelism=16.0,
                compute_cycles_per_item=0.0,
                label="scatter-flush",
            )
        )
        return hist, copy

    def _execute(
        self,
        ctx: ExecutionContext,
        build: Table,
        probe: Table,
        materialize: bool,
    ) -> JoinResult:
        executor = ctx.executor()
        locality = ctx.data_locality
        threads = ctx.threads
        total_bits = self.choose_radix_bits(build)
        bits_pass1 = (total_bits + 1) // 2
        bits_pass2 = total_bits - bits_pass1
        num_partitions = 1 << total_bits

        # ---- real computation -------------------------------------------
        build_index, hit_mask = partitioned_match(build, probe)
        matches = int(hit_mask.sum())

        # Scratch space for the out-of-place partition passes (pre-sized,
        # per the paper's recommendation to avoid dynamic enclave growth).
        scratch_bytes = int(build.logical_bytes + probe.logical_bytes)
        ctx.allocate("rho-scratch", scratch_bytes)

        # ---- cost: partition passes --------------------------------------
        pass_bits = [bits_pass1] + ([bits_pass2] if bits_pass2 > 0 else [])
        for pass_no, bits in enumerate(pass_bits, start=1):
            hist_r, copy_r = self._pass_profiles(ctx, build, bits)
            hist_s, copy_s = self._pass_profiles(ctx, probe, bits)
            hist_r.merge(hist_s)
            copy_r.merge(copy_s)
            executor.run_uniform_phase(f"hist{pass_no}", hist_r)
            executor.run_uniform_phase(f"copy{pass_no}", copy_r)

        # ---- cost: per-partition build ------------------------------------
        build_share = self.split_rows(build.logical_rows, threads)
        probe_share = self.split_rows(probe.logical_rows, threads)
        partition_rows = max(1, int(build.logical_rows / num_partitions))
        partition_table_bytes = table_bytes_for(partition_rows)
        build_profile = AccessProfile()
        build_profile.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=build_share,
                element_bytes=JOIN_TUPLE_BYTES,
                working_set_bytes=build.logical_bytes,
                locality=locality,
                variant=self.variant,
                parallelism=8.0,
                compute_cycles_per_item=_BUILD_COMPUTE,
                table_bytes=partition_table_bytes,
                table_locality=locality,
                table_writes=True,
                reorder_sensitivity=_BUILD_SENSITIVITY,
                label="partition-build",
            )
        )

        # ---- cost: per-partition probe ------------------------------------
        probe_profile = AccessProfile()
        probe_profile.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=probe_share,
                element_bytes=JOIN_TUPLE_BYTES,
                working_set_bytes=probe.logical_bytes,
                locality=locality,
                variant=self.variant,
                parallelism=8.0,
                compute_cycles_per_item=_PROBE_COMPUTE,
                table_bytes=partition_table_bytes,
                table_locality=locality,
                table_writes=False,
                reorder_sensitivity=_PROBE_SENSITIVITY,
                label="partition-probe",
            )
        )

        # ---- cost: task-queue traffic --------------------------------------
        # One task per partition in the build/join stage; granularity sets
        # the contention (Fig. 10 forces tiny partitions to stress this).
        per_task_rows = (build.logical_rows + probe.logical_rows) / num_partitions
        task_cycles = per_task_rows * (_BUILD_COMPUTE + _PROBE_COMPUTE)
        queue = TaskQueueModel(self.queue_kind, ctx.machine.params)
        usage = queue.resolve(
            tasks=num_partitions,
            threads=threads,
            task_cycles=task_cycles,
            enclave_mode=ctx.setting.enclave_mode,
        )
        record_lock_ops(
            probe_profile,
            self.queue_kind,
            usage.operations_per_thread,
            usage.contention_ratio,
        )

        output = None
        if materialize:
            output = self.materialize_output(
                ctx,
                build,
                probe,
                build_index,
                hit_mask,
                probe_profile,
                sim_scale=probe.sim_scale,
            )
        executor.run_uniform_phase("build", build_profile)
        executor.run_uniform_phase("join", probe_profile)

        return JoinResult(
            algorithm=self.name,
            setting=ctx.setting.label,
            variant=self.variant,
            threads=threads,
            build_rows=build.logical_rows,
            probe_rows=probe.logical_rows,
            matches=matches,
            matches_logical=matches * probe.sim_scale,
            cycles=executor.total_cycles(),
            phase_cycles=executor.trace.breakdown(),
            output=output,
            match_index=build_index,
        )
