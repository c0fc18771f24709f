"""Hash-based group-by aggregation under the SGXv2 cost model.

The paper's queries replace final aggregations with ``count(*)``; this
operator restores the real thing for users who want full query answers.
Its cost signature is the natural extension of the histogram study
(Sec. 4.2): a grouped aggregation *is* a value-carrying histogram, so the
enclave-mode loop-execution penalty applies with full force while the
group table stays cache-resident, and the random-write penalties take over
once the group count pushes the table past L3 — both mitigated by the same
manual unroll/reorder optimization.

Groups are found with :func:`group_rows`: ``np.unique`` in general, and a
``bincount`` in O(n) when the keys are small non-negative integers (every
generated group key is); both give the same groups and row mapping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.machine import ExecutionContext
from repro.memory.access import AccessBatch, AccessProfile, CodeVariant, PatternKind

#: Bytes per group-table entry: key, count, and one accumulator per agg.
_ENTRY_BASE_BYTES = 16
_ENTRY_PER_AGG_BYTES = 8

#: Loop-body cycles per input row (hash, probe-or-insert, accumulate).
_ROW_COMPUTE = 6.0

#: Like the radix histogram, the accumulate loop is fully exposed to the
#: enclave reordering restriction.
_REORDER_SENSITIVITY = 0.9


def group_rows(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)``: sorted distinct keys, and
    each row's group index.

    For 1-D non-negative integer keys below ``4 * len(keys)`` the groups
    are the occupied slots of a ``bincount`` and the indexes their ranks,
    equal in values and dtypes to ``np.unique``'s.
    """
    if keys.ndim == 1 and len(keys) and keys.dtype.kind in "iu":
        if keys.min() >= 0 and keys.max() < 4 * len(keys):
            occupied = np.bincount(keys) > 0
            ranks = np.cumsum(occupied, dtype=np.intp)
            ranks -= 1
            return np.flatnonzero(occupied).astype(keys.dtype), ranks[keys]
    return np.unique(keys, return_inverse=True)


class AggFunc(enum.Enum):
    """Supported aggregate functions."""

    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"


@dataclass
class AggregateResult:
    """Grouped aggregates plus the simulated execution cost."""

    group_keys: np.ndarray
    aggregates: Dict[str, np.ndarray]
    input_rows: float
    cycles: float

    @property
    def num_groups(self) -> int:
        return len(self.group_keys)

    def throughput_rows_per_s(self, frequency_hz: float) -> float:
        if self.cycles <= 0:
            raise ConfigurationError("aggregation consumed no simulated time")
        return self.input_rows / (self.cycles / frequency_hz)


class HashAggregate:
    """``SELECT key, agg(value), ... GROUP BY key`` over numpy columns."""

    name = "hash-aggregate"

    def __init__(self, variant: CodeVariant = CodeVariant.NAIVE) -> None:
        self.variant = variant

    def run(
        self,
        ctx: ExecutionContext,
        keys: np.ndarray,
        values: np.ndarray,
        functions: Sequence[AggFunc] = (AggFunc.COUNT,),
        *,
        sim_scale: float = 1.0,
    ) -> AggregateResult:
        """Group ``values`` by ``keys`` and compute ``functions``."""
        if len(keys) != len(values):
            raise ConfigurationError("keys and values must have equal length")
        if not functions:
            raise ConfigurationError("need at least one aggregate function")
        keys = np.asarray(keys)
        values = np.asarray(values)

        # ---- real computation -------------------------------------------
        group_keys, inverse = group_rows(keys)
        aggregates: Dict[str, np.ndarray] = {}
        for function in functions:
            if function is AggFunc.COUNT:
                aggregates["count"] = np.bincount(
                    inverse, minlength=len(group_keys)
                )
            elif function is AggFunc.SUM:
                aggregates["sum"] = np.bincount(
                    inverse, weights=values, minlength=len(group_keys)
                )
            elif function is AggFunc.MIN:
                out = np.full(len(group_keys), np.inf)
                np.minimum.at(out, inverse, values)
                aggregates["min"] = out
            elif function is AggFunc.MAX:
                out = np.full(len(group_keys), -np.inf)
                np.maximum.at(out, inverse, values)
                aggregates["max"] = out
            else:  # pragma: no cover - exhaustive enum
                raise ConfigurationError(f"unknown aggregate {function}")

        # ---- cost ---------------------------------------------------------
        executor = ctx.executor()
        locality = ctx.data_locality
        logical_rows = len(keys) * sim_scale
        logical_groups = max(1.0, len(group_keys) * sim_scale)
        entry_bytes = _ENTRY_BASE_BYTES + _ENTRY_PER_AGG_BYTES * len(functions)
        table_bytes = logical_groups * entry_bytes
        ctx.allocate("agg-input", int(logical_rows * 8))
        ctx.allocate("agg-table", int(table_bytes))
        share = logical_rows / ctx.threads
        profile = AccessProfile()
        profile.add(
            AccessBatch(
                kind=PatternKind.RMW_LOOP,
                count=share,
                element_bytes=8,  # key + value per row
                working_set_bytes=logical_rows * 8,
                locality=locality,
                variant=self.variant,
                parallelism=8.0,
                compute_cycles_per_item=_ROW_COMPUTE,
                table_bytes=table_bytes,
                table_locality=locality,
                table_writes=True,
                reorder_sensitivity=_REORDER_SENSITIVITY,
                label="group-accumulate",
            )
        )
        # Per-thread partial tables are merged at the end.
        profile.seq_write(
            logical_groups / ctx.threads, entry_bytes, locality, label="merge"
        )
        executor.run_uniform_phase("aggregate", profile)

        return AggregateResult(
            group_keys=group_keys,
            aggregates=aggregates,
            input_rows=logical_rows,
            cycles=executor.total_cycles(),
        )
