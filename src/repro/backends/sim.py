"""SimBackend: the operator-level simulator behind the backend protocol.

Executes the template's query through the silent run the catalog's
pricing uses (:func:`~repro.planner.standin.run_silently`: static plan,
catalog variant, the dataset's stand-in tables) and surfaces the real
result rows, so the equivalence gate can compare the simulator against
the engines.  The rows stay columns: the result bag is a
:class:`~repro.backends.equivalence.ColumnBag` of the operator's own
arrays (a join's matched payload pairs, a scan's qualifying values, a
TPC-H plan's count), never a list of Python row tuples.  The profile's
seconds come from
:meth:`~repro.workload.jobs.JobCatalog.cost` — fully simulated and
byte-deterministic.
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
)
from repro.backends.dataset import Dataset
from repro.backends.equivalence import ColumnBag
from repro.enclave.runtime import ExecutionSetting
from repro.errors import ConfigurationError
from repro.planner.candidates import static_candidate
from repro.planner.standin import run_silently
from repro.runconfig import current_run_config, use_run_config
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
    ) -> Tuple[ColumnBag, MeasuredProfile]:
        template = query.template
        dataset = handle.dataset
        bag = self.compute_rows(dataset)
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
            rows=len(bag),
            physical_bytes=dataset.physical_bytes,
            logical_bytes=dataset.logical_bytes,
            working_set_bytes=enclave.working_set_bytes,
            simulated=True,
        )
        return bag, profile

    # -- row computation -------------------------------------------------

    def compute_rows(self, dataset: Dataset) -> ColumnBag:
        """The result bag, computed by the real operator kernels.

        Columns follow the SQL rendering's projection
        (:func:`~repro.backends.sqlgen.output_columns`).  One
        :func:`~repro.planner.standin.run_silently` run of the catalog's
        static plan under a plain-CPU context: the row computation is
        gate bookkeeping, not priced serving work — the priced seconds
        come from the catalog's memoized pricing runs.
        """
        template = dataset.template
        tables = dataset.tables
        result = run_silently(
            self.catalog.machine_prototype(),
            _PLAIN,
            template,
            static_candidate(template, self.catalog.variant),
            tables,
        ).result
        if template.kind is JobKind.JOIN:
            if result.match_index is None:  # pragma: no cover
                raise ConfigurationError(
                    f"{result.algorithm} returned no match index"
                )
            matched = result.match_index >= 0
            return ColumnBag(
                [
                    tables["s"]["payload"][matched],
                    tables["r"]["payload"][result.match_index[matched]],
                ]
            )
        if template.kind is JobKind.SCAN:
            column = tables["scan_values"].column("v")
            mask = np.unpackbits(result.bitvector)[: len(column)].astype(bool)
            return ColumnBag([column.data[mask]])
        return ColumnBag([np.array([int(result.count)], dtype=np.int64)])
