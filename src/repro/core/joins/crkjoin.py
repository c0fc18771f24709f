"""CrkJoin — the SGXv1-optimized cracking join of Maliszewski et al.

CrkJoin partitions *in place*, one radix bit per pass: two pointers walk
from both ends of the table swapping out-of-order tuples until they meet,
then recurse on both halves.  This avoids random memory access and extra
buffers entirely — exactly right for SGXv1, whose tiny EPC made every
random access a potential page-in/page-out — at the cost of ``log2(P)``
full, branchy read-write passes over both inputs.  On SGXv2, where the EPC
bottleneck is gone, those passes are pure overhead: CrkJoin lands at
~60 M rows/s in Fig. 1/3, 12x slower than RHO and 20x slower than the
SGXv2-optimized RHO.  After partitioning it joins each partition with the
same in-cache hash method as RHO.

As in RHO, the cracking passes and the per-partition joins are priced but
not executed: cracking ends in the same low-bit grouping as radix
partitioning, so the matches come from RHO's one global hash table
(:func:`~repro.core.joins.radix.partitioned_match`) and are identical.
"""

from __future__ import annotations

import math

from repro.core.joins.base import JoinAlgorithm, JoinResult
from repro.core.joins.radix import partitioned_match
from repro.core.structures.hashtable import table_bytes_for
from repro.machine import ExecutionContext
from repro.memory.access import AccessBatch, AccessProfile, CodeVariant, PatternKind
from repro.tables.generator import JOIN_TUPLE_BYTES
from repro.tables.table import Table

#: Target partition size: CrkJoin was tuned for SGXv1, where keeping the
#: working set tiny was everything — it cracks far deeper than RHO needs.
_TARGET_PARTITION_BYTES = 32 * 1024

#: Per-tuple cycles of one cracking pass: compare, branch (heavily
#: mispredicted — the bit test is a coin flip), and conditional swap.
#: Calibrated so the full join lands at the ~60 M rows/s of Fig. 3.
_CRACK_COMPUTE = 16.0

#: The cracking loop is branchy but mostly sequential; mild exposure to
#: the enclave reordering restriction (CrkJoin loses little inside SGX).
_CRACK_SENSITIVITY = 0.15

#: In-cache join phases (same constants as RHO's build/probe).
_BUILD_COMPUTE = 5.0
_PROBE_COMPUTE = 5.0
_BUILD_SENSITIVITY = 0.5
_PROBE_SENSITIVITY = 0.15


class CrkJoin(JoinAlgorithm):
    """In-place one-bit-per-pass radix cracking + in-cache hash join."""

    name = "CrkJoin"

    def __init__(self, variant: CodeVariant = CodeVariant.NAIVE, radix_bits=None):
        super().__init__(variant)
        self.radix_bits = radix_bits

    def choose_radix_bits(self, build: Table) -> int:
        """One bit per cracking pass until partitions are cache-sized."""
        if self.radix_bits is not None:
            return self.radix_bits
        partitions = build.logical_bytes / _TARGET_PARTITION_BYTES
        return max(1, math.ceil(math.log2(max(partitions, 2.0))))

    def _crack_pass_profile(
        self, ctx: ExecutionContext, table: Table, pass_no: int, active_threads: int
    ) -> AccessProfile:
        """Per-thread cost of one in-place cracking pass.

        Pass ``k`` splits 2**k independent sub-tables, so at most 2**k
        threads can work: the first passes of CrkJoin are inherently
        under-parallelized, a large part of why it cannot compete on
        SGXv2's many cores.
        """
        locality = ctx.data_locality
        share = table.logical_rows / active_threads
        # Pass k cracks independent sub-tables of 1/2**k of the input: the
        # *active* working set shrinks every pass.  This is CrkJoin's whole
        # point on SGXv1 — after a few bits the sub-table fits the tiny EPC
        # and the remaining passes run without paging.
        pass_working_set = max(
            table.logical_bytes / (1 << pass_no), JOIN_TUPLE_BYTES
        )
        profile = AccessProfile()
        # Each pass streams the whole (sub)table once; roughly half the
        # tuples are swapped, i.e. rewritten in place.
        profile.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=share,
                element_bytes=JOIN_TUPLE_BYTES,
                working_set_bytes=pass_working_set,
                locality=locality,
                variant=self.variant,
                parallelism=4.0,
                compute_cycles_per_item=_CRACK_COMPUTE,
                table_bytes=4096.0,  # the two cursors' working lines
                table_locality=locality,
                table_writes=True,
                reorder_sensitivity=_CRACK_SENSITIVITY,
                label=f"crack-bit-{pass_no}",
            )
        )
        swaps = AccessBatch(
            kind=PatternKind.SEQ_WRITE,
            count=share / 2.0,
            element_bytes=2 * JOIN_TUPLE_BYTES,  # a swap rewrites two tuples
            working_set_bytes=pass_working_set,
            locality=locality,
            variant=CodeVariant.NAIVE,
            label=f"crack-swaps-{pass_no}",
        )
        profile.add(swaps)
        return profile

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
        bits = self.choose_radix_bits(build)
        num_partitions = 1 << bits

        # ---- real computation (in-place cracking ends in the same
        # grouping as radix partitioning by the low bits, so RHO's global
        # table gives the partition-wise matches) -----------------------
        build_index, hit_mask = partitioned_match(build, probe)
        matches = int(hit_mask.sum())

        # ---- cost: cracking passes (one per radix bit, both inputs);
        # pass k has only 2**k independent sub-ranges to parallelize over.
        for pass_no in range(bits):
            active = min(1 << pass_no, threads)
            pass_profile = self._crack_pass_profile(ctx, build, pass_no, active)
            pass_profile.merge(
                self._crack_pass_profile(ctx, probe, pass_no, active)
            )
            executor.run_phase(f"crack-{pass_no}", [pass_profile] * active)

        # ---- cost: in-cache join per partition (as in RHO) ----------------
        partition_rows = max(1, int(build.logical_rows / num_partitions))
        partition_table_bytes = table_bytes_for(partition_rows)
        build_profile = AccessProfile()
        build_profile.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=self.split_rows(build.logical_rows, threads),
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
        probe_profile = AccessProfile()
        probe_profile.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=self.split_rows(probe.logical_rows, threads),
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
