"""SimBackend: the operator-level simulator behind the backend protocol.

Executes the template's query through the *same* operator implementations
the catalog's pricing runs use (static plan, catalog variant, pricing
caps), but additionally surfaces the real result rows so the equivalence
gate can compare the simulator against the engines.  The profile's
seconds come from :meth:`~repro.workload.jobs.JobCatalog.cost` — fully
simulated and byte-deterministic.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple

import numpy as np

from repro.backends.base import (
    Backend,
    BackendHandle,
    BackendQuery,
    MeasuredProfile,
    Rows,
)
from repro.backends.dataset import Dataset
from repro.core.queries.executor import QueryExecutor
from repro.core.queries.tpch_queries import TPCH_QUERIES
from repro.core.scans.predicate import RangePredicate
from repro.core.scans.simd_scan import BitvectorScan
from repro.enclave.runtime import ExecutionSetting
from repro.errors import ConfigurationError
from repro.memory.access import CodeVariant
from repro.planner.candidates import build_join, static_candidate
from repro.runconfig import current_run_config, use_run_config
from repro.trace import NullTracer, use_tracer
from repro.workload.jobs import JobCatalog, JobKind

_PLAIN = ExecutionSetting.plain_cpu()
_SGX_IN = ExecutionSetting.sgx_data_in_enclave()


class SimBackend(Backend):
    """The operator simulator as a backend (always available)."""

    name = "sim"

    def __init__(self, catalog: JobCatalog = None) -> None:
        self.catalog = catalog if catalog is not None else JobCatalog()

    def prepare(self, dataset: Dataset) -> BackendHandle:
        # The simulator queries numpy tables in place: nothing to load.
        return BackendHandle(backend=self.name, dataset=dataset)

    def execute(
        self, handle: BackendHandle, query: BackendQuery
    ) -> Tuple[Rows, MeasuredProfile]:
        template = query.template
        dataset = handle.dataset
        rows = self.compute_rows(dataset)
        # Pin the sim mode: under an ambient engine mode the catalog
        # would otherwise delegate right back to the engine bridge (and
        # the bridge's equivalence gate runs this backend — recursion).
        sim_only = replace(current_run_config(), backend="sim")
        with use_run_config(sim_only):
            plain = self.catalog.cost(template, _PLAIN)
            enclave = self.catalog.cost(template, _SGX_IN)
        profile = MeasuredProfile(
            backend=self.name,
            template=template.name,
            prepare_s=0.0,
            execute_s=plain.service_s,
            rows=len(rows),
            physical_bytes=dataset.physical_bytes,
            logical_bytes=dataset.logical_bytes,
            working_set_bytes=enclave.working_set_bytes,
            simulated=True,
        )
        return rows, profile

    # -- row computation -------------------------------------------------

    def compute_rows(self, dataset: Dataset) -> Rows:
        """The result bag, computed by the real operator kernels.

        Columns follow the SQL rendering's projection
        (:func:`~repro.backends.sqlgen.output_columns`).  Runs silently
        (``NullTracer``) under a plain-CPU context: the row computation is
        gate bookkeeping, not priced serving work — the priced seconds
        come from the catalog's memoized pricing runs.
        """
        template = dataset.template
        candidate = static_candidate(template, self.catalog.variant)
        sim = self.catalog.machine_prototype()
        with use_tracer(NullTracer()), sim.context(
            _PLAIN, threads=candidate.threads
        ) as ctx:
            if template.kind is JobKind.JOIN:
                build, probe = dataset.tables["r"], dataset.tables["s"]
                result = build_join(candidate).run(ctx, build, probe)
                if result.match_index is None:  # pragma: no cover
                    raise ConfigurationError(
                        f"{result.algorithm} returned no match index"
                    )
                matched = result.match_index >= 0
                s_payload = probe["payload"][matched]
                r_payload = build["payload"][result.match_index[matched]]
                # tolist() yields Python ints already.
                return list(zip(s_payload.tolist(), r_payload.tolist()))
            if template.kind is JobKind.SCAN:
                table = dataset.tables["scan_values"]
                column = table.column("v")
                predicate = RangePredicate(
                    dataset.params["scan_lower"], dataset.params["scan_upper"]
                )
                result = BitvectorScan(CodeVariant.SIMD).run(
                    ctx, column, predicate
                )
                mask = np.unpackbits(result.bitvector)[: len(column)].astype(
                    bool
                )
                return list(zip(column.data[mask].tolist()))
            if template.kind is JobKind.TPCH:
                plan = TPCH_QUERIES[template.query]()
                result = QueryExecutor(
                    candidate.variant,
                    join_factory=lambda: build_join(candidate),
                ).run(ctx, plan, dict(dataset.tables))
                return [(int(result.count),)]
        raise ConfigurationError(  # pragma: no cover - enum is exhaustive
            f"unknown job kind {template.kind!r}"
        )
