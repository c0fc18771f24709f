"""Common join machinery: results, the algorithm interface, materialization.

Join conventions follow the paper (Sec. 4, "Join data"): equi-joins of a
primary-key *build* relation against a foreign-key *probe* relation, both
with <32-bit key, 32-bit payload> tuples; throughput is the sum of the input
cardinalities divided by the join time; results are not materialized unless
requested (materialization is studied separately in Sec. 4.4 / Fig. 11 and
in the full queries of Sec. 6).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.machine import ExecutionContext
from repro.memory.access import AccessProfile, CodeVariant
from repro.tables.table import Column, Table

#: Bytes of one materialized join output tuple: key + both payloads.
OUTPUT_TUPLE_BYTES = 12


@dataclass
class JoinResult:
    """Outcome of one join execution: correctness data plus simulated time."""

    algorithm: str
    setting: str
    variant: CodeVariant
    threads: int
    build_rows: float
    probe_rows: float
    matches: int
    matches_logical: float
    cycles: float
    phase_cycles: Dict[str, float] = field(default_factory=dict)
    output: Optional[Table] = None
    #: Per probe row, the matching build row (or -1); set by all joins.
    match_index: Optional[np.ndarray] = None

    @property
    def input_rows(self) -> float:
        """Sum of input cardinalities (the paper's throughput numerator)."""
        return self.build_rows + self.probe_rows

    def seconds(self, frequency_hz: float) -> float:
        return self.cycles / frequency_hz

    def throughput_rows_per_s(self, frequency_hz: float) -> float:
        """M rows/s metric of the paper's join figures."""
        seconds = self.seconds(frequency_hz)
        if seconds <= 0:
            raise ConfigurationError("join consumed no simulated time")
        return self.input_rows / seconds


class JoinAlgorithm(abc.ABC):
    """Base class: validates inputs, runs the algorithm, prices the phases."""

    #: Short name used in figures (e.g. "RHO").
    name: str = "join"

    def __init__(self, variant: CodeVariant = CodeVariant.NAIVE) -> None:
        self.variant = variant

    # -- hooks -------------------------------------------------------------

    @abc.abstractmethod
    def _execute(
        self,
        ctx: ExecutionContext,
        build: Table,
        probe: Table,
        materialize: bool,
    ) -> JoinResult:
        """Algorithm-specific execution; returns a complete result."""

    # -- public API ----------------------------------------------------------

    def run(
        self,
        ctx: ExecutionContext,
        build: Table,
        probe: Table,
        *,
        materialize: bool = False,
    ) -> JoinResult:
        """Join ``build`` against ``probe`` under ``ctx``.

        Both tables need ``key``/``payload`` columns.  Input allocation and
        initialization happen *before* timing starts, per the paper's
        measurement methodology (Sec. 3); only the join itself (and, if
        requested, result materialization including any dynamic enclave
        growth) is charged.
        """
        for table, role in ((build, "build"), (probe, "probe")):
            for column in ("key", "payload"):
                if column not in table:
                    raise ConfigurationError(
                        f"{role} table {table.name!r} lacks a {column!r} column"
                    )
        # Inputs are resident (and, for SGX-data-in settings, EPC-backed)
        # before the measured section begins.
        ctx.allocate(f"{self.name}-build-input", int(build.logical_bytes))
        ctx.allocate(f"{self.name}-probe-input", int(probe.logical_bytes))
        return self._execute(ctx, build, probe, materialize)

    # -- shared helpers ------------------------------------------------------

    @staticmethod
    def reference_match_count(build: Table, probe: Table) -> int:
        """Ground-truth number of matches (for tests and sanity checks)."""
        build_keys = np.sort(build["key"])
        if len(build_keys) == 0:
            return 0
        positions = np.searchsorted(build_keys, probe["key"])
        positions = np.clip(positions, 0, len(build_keys) - 1)
        return int((build_keys[positions] == probe["key"]).sum())

    @staticmethod
    def materialize_output(
        ctx: ExecutionContext,
        build: Table,
        probe: Table,
        build_index: np.ndarray,
        probe_mask: np.ndarray,
        profile: AccessProfile,
        *,
        sim_scale: float,
    ) -> Table:
        """Gather matched tuples into an output table and charge its cost.

        ``build_index[i]`` is the matching build row for probe row ``i``
        (where ``probe_mask`` is set).  The allocation is routed through the
        context so a dynamically-sized enclave pays EDMM per page (Fig. 11);
        the writes themselves are charged to ``profile``.

        ``profile`` is a *per-thread* profile (it is replicated across the
        executor's threads), so both the output writes and the paging costs
        are charged as per-thread shares — threads materialize their own
        output stripes, and enclave page additions happen on whichever
        thread first touches the page.
        """
        matched_probe = np.flatnonzero(probe_mask)
        matched_build = build_index[matched_probe]
        output = Table(
            "join_output",
            [
                Column("key", probe["key"][matched_probe]),
                Column("r_payload", build["payload"][matched_build]),
                Column("s_payload", probe["payload"][matched_probe]),
            ],
            sim_scale=sim_scale,
        )
        logical_matches = len(matched_probe) * sim_scale
        out_bytes = int(logical_matches * OUTPUT_TUPLE_BYTES)
        threads = ctx.threads
        paging = AccessProfile()
        ctx.allocate("join-output", out_bytes, paging)
        # EDMM growth (EAUG by the kernel + EACCEPT inside the enclave)
        # serializes on the enclave's page table: every thread observes the
        # full page-add latency, so the per-thread profile carries the whole
        # count.  Ordinary first touches of pre-committed pages parallelize.
        profile.sync.pages_added_dynamically += paging.sync.pages_added_dynamically
        profile.sync.pages_touched_statically += (
            paging.sync.pages_touched_statically + threads - 1
        ) // threads
        profile.seq_write(
            logical_matches / threads,
            OUTPUT_TUPLE_BYTES,
            ctx.data_locality,
            working_set_bytes=logical_matches * OUTPUT_TUPLE_BYTES,
            label="materialize",
        )
        return output

    @staticmethod
    def split_rows(logical_rows: float, threads: int) -> float:
        """Per-thread share of ``logical_rows`` under even partitioning."""
        if threads < 1:
            raise ConfigurationError("threads must be >= 1")
        return logical_rows / threads
