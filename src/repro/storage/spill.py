"""Spill-aware operator variants: partition to sealed runs, join/aggregate
partition-at-a-time.

The grace-partitioned join is the classical larger-than-memory hash join:
one pass hash-partitions both inputs into P sealed partitions such that
each partition's build side (tuples + hash table) fits the storage budget,
then each partition is unsealed and joined in-memory.  Every partitioned
byte pays seal + I/O on the way out and unseal + I/O on the way back
(:class:`~repro.storage.sealed.SealedStore`), so the in-EPC vs. spill
crossover is a priced trade the planner can reason about, not a free
escape hatch.

Results are **bag-identical** to the in-memory variants: a hash partition
never splits a key group across partitions.  The join's partition pass and
partition-wise build/probe are priced but not executed; its matches come
from one global hash table, which gives exactly the partition-wise result.
The aggregate runs the same numpy aggregation per partition.  When the
working set already fits the budget, both operators skip the partition
pass entirely and degenerate to their in-memory counterparts (zero sealed
bytes) — the property the planner's crossover pricing relies on.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.joins.base import JoinAlgorithm, JoinResult
from repro.core.ops.aggregate import AggFunc, AggregateResult, HashAggregate
from repro.core.structures.hashtable import match_first, table_bytes_for
from repro.errors import ConfigurationError
from repro.machine import ExecutionContext
from repro.memory.access import (
    AccessBatch,
    AccessProfile,
    CodeVariant,
    PatternKind,
)
from repro.storage.sealed import SealedStore
from repro.tables.generator import JOIN_TUPLE_BYTES
from repro.tables.table import Table

#: Fibonacci-hash partitioning multiplier (64-bit golden ratio); unrelated
#: to the hash table's Knuth multiplier so partition skew does not
#: correlate with bucket skew.
_PARTITION_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

#: Ceiling on the partition fan-out: beyond this the partition buffers
#: themselves thrash and a real system would recurse instead.
MAX_PARTITIONS = 1024

#: Share of the budget one partition's working set may occupy: headroom
#: for partition buffers, the probe stream, and the output.
_BUDGET_FILL = 0.5

#: Per-tuple cycles of the partition pass (hash + scatter append).
_PARTITION_COMPUTE = 4.0

# The per-partition build/probe loops reuse PHT's cost signature: once a
# partition fits the budget (and thus the EPC), its random accesses are
# cache-to-DRAM resident like any small hash join.
_BUILD_PARALLELISM = 6.0
_PROBE_PARALLELISM = 6.0
_BUILD_COMPUTE = 10.0
_PROBE_COMPUTE = 6.0
_BUILD_REORDER_SENSITIVITY = 0.02
_PROBE_REORDER_SENSITIVITY = 0.02
_BUILD_MLP_SENSITIVITY = 1.0
_PROBE_MLP_SENSITIVITY = 0.55


def _partition_of(keys: np.ndarray, partitions: int) -> np.ndarray:
    """Deterministic hash partition id per key (``partitions`` a power of 2)."""
    if partitions == 1:
        return np.zeros(len(keys), dtype=np.int64)
    hashed = keys.astype(np.uint64) * _PARTITION_MULTIPLIER
    shift = np.uint64(64 - max(1, (partitions - 1).bit_length()))
    return (hashed >> shift).astype(np.int64) % partitions


def partition_count(
    build_bytes: float, budget_bytes: float, *, tuple_bytes: int = JOIN_TUPLE_BYTES
) -> int:
    """Smallest power-of-two fan-out whose partitions fit the budget.

    A partition's in-memory footprint is its build share plus the chained
    hash table over it (~3x the raw tuples); it must fit inside
    ``_BUDGET_FILL`` of the budget.  Returns 1 when no partitioning is
    needed (the in-memory fast path).
    """
    if budget_bytes <= 0:
        raise ConfigurationError("storage budget must be positive")
    partitions = 1
    while partitions < MAX_PARTITIONS:
        share = build_bytes / partitions
        footprint = share + table_bytes_for(max(1, int(share / tuple_bytes)))
        if footprint <= _BUDGET_FILL * budget_bytes:
            break
        partitions *= 2
    return partitions


class GraceHashJoin(JoinAlgorithm):
    """Grace hash join: sealed hash partitioning, then partition-wise PHT."""

    name = "GRACE"

    def __init__(
        self,
        variant: CodeVariant = CodeVariant.NAIVE,
        *,
        store: SealedStore,
        budget_bytes: float,
        load_factor: float = 1.0,
    ) -> None:
        super().__init__(variant)
        if budget_bytes <= 0:
            raise ConfigurationError("storage budget must be positive")
        self.store = store
        self.budget_bytes = float(budget_bytes)
        self.load_factor = load_factor

    def run(
        self,
        ctx: ExecutionContext,
        build: Table,
        probe: Table,
        *,
        materialize: bool = False,
    ) -> JoinResult:
        """Like :meth:`JoinAlgorithm.run`, but only budget-bounded state is
        enclave-resident: inputs stream through sealed partitions, so the
        enclave allocation is the budget, not the working set."""
        for table, role in ((build, "build"), (probe, "probe")):
            for column in ("key", "payload"):
                if column not in table:
                    raise ConfigurationError(
                        f"{role} table {table.name!r} lacks a {column!r} column"
                    )
        resident = min(
            float(build.logical_bytes + probe.logical_bytes),
            _BUDGET_FILL * self.budget_bytes,
        )
        ctx.allocate(f"{self.name}-staging", int(resident))
        return self._execute(ctx, build, probe, materialize)

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

        partitions = partition_count(float(build.logical_bytes), self.budget_bytes)
        build_keys = build["key"]
        probe_keys = probe["key"]

        # ---- partition pass (skipped entirely on the in-memory path) ----
        if partitions > 1:
            spilled_bytes = float(build.logical_bytes + probe.logical_bytes)
            share = self.split_rows(
                build.logical_rows + probe.logical_rows, threads
            )
            profile = AccessProfile()
            profile.seq_read(
                share,
                JOIN_TUPLE_BYTES,
                locality,
                working_set_bytes=spilled_bytes,
                label="partition-scan",
            )
            profile.seq_write(
                share,
                JOIN_TUPLE_BYTES,
                locality,
                working_set_bytes=spilled_bytes,
                label="partition-out",
            )
            profile.compute(share * _PARTITION_COMPUTE, label="partition-hash")
            self.store.charge_seal(
                profile, spilled_bytes, threads=threads, label="partition-seal"
            )
            executor.run_uniform_phase("partition", profile)
        else:
            spilled_bytes = 0.0

        # ---- partition-wise build + probe -------------------------------
        # Only the largest probed partition's table is sized: a partition
        # with no probe rows is never built.
        build_counts = np.bincount(
            _partition_of(build_keys, partitions), minlength=partitions
        )
        probed = np.bincount(
            _partition_of(probe_keys, partitions), minlength=partitions
        ) > 0
        logical_table_bytes = 0.0
        if probed.any():
            largest = int(build_counts[probed].max())
            logical_table_bytes = float(
                table_bytes_for(
                    max(1, int(largest * build.sim_scale)), self.load_factor
                )
            )
        # The matches come from one global table: a hash partition holds
        # every row of its keys in ascending row order, so the first chain
        # hit (the highest build row with the key) is the same either way.
        build_index, hit_mask = match_first(build_keys, probe_keys, self.load_factor)
        matches = int(hit_mask.sum())
        ctx.allocate("grace-hash-table", int(logical_table_bytes))

        build_share = self.split_rows(build.logical_rows, threads)
        build_profile = AccessProfile()
        if partitions > 1:
            self.store.charge_unseal(
                build_profile,
                float(build.logical_bytes),
                threads=threads,
                label="build-unseal",
            )
        build_profile.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=build_share,
                element_bytes=JOIN_TUPLE_BYTES,
                working_set_bytes=float(build.logical_bytes) / partitions,
                locality=locality,
                variant=self.variant,
                parallelism=_BUILD_PARALLELISM,
                compute_cycles_per_item=_BUILD_COMPUTE,
                table_bytes=max(1.0, logical_table_bytes),
                table_locality=locality,
                table_writes=True,
                reorder_sensitivity=_BUILD_REORDER_SENSITIVITY,
                mlp_sensitivity=_BUILD_MLP_SENSITIVITY,
                label="build-insert",
            )
        )
        executor.run_uniform_phase("build", build_profile)

        probe_share = self.split_rows(probe.logical_rows, threads)
        probe_profile = AccessProfile()
        if partitions > 1:
            self.store.charge_unseal(
                probe_profile,
                float(probe.logical_bytes),
                threads=threads,
                label="probe-unseal",
            )
        probe_profile.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=probe_share,
                element_bytes=JOIN_TUPLE_BYTES,
                working_set_bytes=float(probe.logical_bytes) / partitions,
                locality=locality,
                variant=self.variant,
                parallelism=_PROBE_PARALLELISM,
                compute_cycles_per_item=_PROBE_COMPUTE,
                table_bytes=max(1.0, logical_table_bytes),
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


class ExternalGroupAggregate:
    """Hash aggregate that partitions to sealed runs past the budget.

    Partitioning by key hash keeps every group within one partition, so
    per-partition in-memory aggregation followed by a key-sorted merge is
    bag-identical to :class:`~repro.core.ops.aggregate.HashAggregate`.
    """

    name = "external-aggregate"

    def __init__(
        self,
        variant: CodeVariant = CodeVariant.NAIVE,
        *,
        store: SealedStore,
        budget_bytes: float,
    ) -> None:
        if budget_bytes <= 0:
            raise ConfigurationError("storage budget must be positive")
        self.variant = variant
        self.store = store
        self.budget_bytes = float(budget_bytes)

    def run(
        self,
        ctx: ExecutionContext,
        keys: np.ndarray,
        values: np.ndarray,
        functions: Sequence[AggFunc] = (AggFunc.COUNT,),
        *,
        sim_scale: float = 1.0,
    ) -> AggregateResult:
        keys = np.asarray(keys)
        values = np.asarray(values)
        if len(keys) != len(values):
            raise ConfigurationError("keys and values must have equal length")
        logical_rows = len(keys) * sim_scale
        input_bytes = logical_rows * 8.0
        partitions = partition_count(
            input_bytes, self.budget_bytes, tuple_bytes=8
        )
        inner = HashAggregate(self.variant)
        if partitions == 1:
            return inner.run(
                ctx, keys, values, functions, sim_scale=sim_scale
            )

        # ---- partition pass, priced like the join's ----------------------
        executor = ctx.executor()
        locality = ctx.data_locality
        share = logical_rows / ctx.threads
        profile = AccessProfile()
        profile.seq_read(
            share, 8, locality, working_set_bytes=input_bytes, label="partition-scan"
        )
        profile.seq_write(
            share, 8, locality, working_set_bytes=input_bytes, label="partition-out"
        )
        profile.compute(share * _PARTITION_COMPUTE, label="partition-hash")
        self.store.charge_seal(
            profile, input_bytes, threads=ctx.threads, label="partition-seal"
        )
        self.store.charge_unseal(
            profile, input_bytes, threads=ctx.threads, label="partition-unseal"
        )
        executor.run_uniform_phase("partition", profile)
        partition_cycles = executor.total_cycles()

        # ---- per-partition in-memory aggregation -------------------------
        part_of = _partition_of(keys, partitions)
        group_chunks = []
        agg_chunks: Dict[str, list] = {}
        total_cycles = partition_cycles
        for part in range(partitions):
            rows = np.flatnonzero(part_of == part)
            if len(rows) == 0:
                continue
            result = inner.run(
                ctx,
                keys[rows],
                values[rows],
                functions,
                sim_scale=sim_scale,
            )
            total_cycles += result.cycles
            group_chunks.append(result.group_keys)
            for name, column in result.aggregates.items():
                agg_chunks.setdefault(name, []).append(column)

        group_keys = np.concatenate(group_chunks) if group_chunks else np.empty(0)
        order = np.argsort(group_keys, kind="stable")
        aggregates = {
            name: np.concatenate(chunks)[order]
            for name, chunks in agg_chunks.items()
        }
        return AggregateResult(
            group_keys=group_keys[order],
            aggregates=aggregates,
            input_rows=logical_rows,
            cycles=total_cycles,
        )
