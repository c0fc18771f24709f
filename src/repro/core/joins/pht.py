"""PHT — the Parallel Hash Table join of Blanas et al. (Sec. 4, join 1).

Threads build one shared bucket-chaining hash table over the smaller input
(latching buckets for parallel inserts), then probe it with partitions of
the larger input.  The table for the paper's 100 MB build side is ~256 MB,
far beyond L3, so both phases are dominated by random DRAM access — which
is exactly why PHT shows the largest in-enclave slowdown in Fig. 3 and why
the build phase degrades hardest (Sec. 4.1 / Fig. 4).
"""

from __future__ import annotations

import numpy as np

from repro.core.joins.base import JoinAlgorithm, JoinResult
from repro.core.joins.skew import skew_gain
from repro.core.structures.hashtable import match_first, table_bytes_for
from repro.machine import ExecutionContext
from repro.memory.access import AccessBatch, AccessProfile, CodeVariant, PatternKind
from repro.tables.generator import JOIN_TUPLE_BYTES
from repro.tables.table import Table

#: The insert loop is a partially dependent chain (hash, latch, link write):
#: moderate memory-level parallelism even on the plain CPU.
_BUILD_PARALLELISM = 6.0
_PROBE_PARALLELISM = 6.0

#: Cycles of pure loop body work per tuple, including the (uncontended)
#: bucket latch on the build side.
_BUILD_COMPUTE = 10.0
_PROBE_COMPUTE = 6.0

#: The insert/probe loop bodies carry enough ILP that the enclave-mode
#: restriction barely slows the instructions themselves — Fig. 4 shows 95 %
#: relative throughput while the table is cache-resident.  What the
#: restriction does destroy is the overlapping of DRAM misses, hence the
#: full mlp sensitivity: once the table exceeds cache, the naive build runs
#: its (penalized) random writes nearly serially.  Manual unrolling
#: (Sec. 4.2) restores the overlap, the +94 % of Fig. 8.
_BUILD_REORDER_SENSITIVITY = 0.02
_PROBE_REORDER_SENSITIVITY = 0.02
_BUILD_MLP_SENSITIVITY = 1.0
_PROBE_MLP_SENSITIVITY = 0.55


class ParallelHashJoin(JoinAlgorithm):
    """Shared-table hash join (no partitioning)."""

    name = "PHT"

    def __init__(
        self, variant: CodeVariant = CodeVariant.NAIVE, load_factor: float = 1.0
    ) -> None:
        super().__init__(variant)
        self.load_factor = load_factor

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

        # ---- real computation ------------------------------------------
        build_index, hit_mask = match_first(
            build["key"], probe["key"], self.load_factor
        )
        matches = int(hit_mask.sum())

        # ---- cost: build phase ------------------------------------------
        logical_table_bytes = table_bytes_for(
            int(build.logical_rows), self.load_factor
        )
        ctx.allocate("pht-hash-table", logical_table_bytes)
        build_share = self.split_rows(build.logical_rows, threads)
        build_profile = AccessProfile()
        build_profile.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=build_share,
                element_bytes=JOIN_TUPLE_BYTES,
                working_set_bytes=build.logical_bytes,
                locality=locality,
                variant=self.variant,
                parallelism=_BUILD_PARALLELISM,
                compute_cycles_per_item=_BUILD_COMPUTE,
                table_bytes=logical_table_bytes,
                table_locality=locality,
                table_writes=True,
                reorder_sensitivity=_BUILD_REORDER_SENSITIVITY,
                mlp_sensitivity=_BUILD_MLP_SENSITIVITY,
                label="build-insert",
            )
        )
        executor.run_uniform_phase("build", build_profile)

        # ---- cost: probe phase -------------------------------------------
        # Skewed probe streams concentrate on few hash-table entries; the
        # hot set stays cached, shrinking the effective working set (and,
        # in the enclave, the SGX random-access penalty with it).  The
        # estimate comes from the *measured* per-entry access frequencies;
        # near-uniform streams keep the nominal size (the estimator is
        # noisy at small physical scale, so mild shrinkage is ignored).
        hits = build_index if matches == len(hit_mask) else build_index[hit_mask]
        frequencies = np.bincount(hits, minlength=build.num_rows)
        entry_bytes = logical_table_bytes / max(build.logical_rows, 1.0)
        gain = skew_gain(
            frequencies,
            entry_bytes,
            ctx.machine.spec.l3.capacity_bytes,
            sim_scale=build.sim_scale,
        )
        probe_table_ws = logical_table_bytes
        if gain > 1.5:
            probe_table_ws = max(
                ctx.machine.spec.l3.capacity_bytes,
                logical_table_bytes / gain,
            )
        probe_share = self.split_rows(probe.logical_rows, threads)
        probe_profile = AccessProfile()
        probe_profile.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=probe_share,
                element_bytes=JOIN_TUPLE_BYTES,
                working_set_bytes=probe.logical_bytes,
                locality=locality,
                variant=self.variant,
                parallelism=_PROBE_PARALLELISM,
                compute_cycles_per_item=_PROBE_COMPUTE,
                table_bytes=probe_table_ws,
                table_locality=locality,
                table_writes=False,
                reorder_sensitivity=_PROBE_REORDER_SENSITIVITY,
                mlp_sensitivity=_PROBE_MLP_SENSITIVITY,
                label="probe",
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
        executor.run_uniform_phase("probe", probe_profile)

        breakdown = executor.trace.breakdown()
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
            phase_cycles=breakdown,
            output=output,
            match_index=build_index,
        )
