"""The backend protocol: prepare a dataset, execute a query, return a bag.

A :class:`Backend` is one way of running a job template's logical query:
the operator-level simulator (:class:`~repro.backends.sim.SimBackend`) or
a real SQL engine (:mod:`repro.backends.engines`).  All implementations
share one contract:

* ``prepare(dataset) -> handle`` loads the template's materialized data
  (same physical rows for every backend — see
  :mod:`repro.backends.dataset`);
* ``execute(handle, query) -> (bag, MeasuredProfile)`` runs one query
  and returns the *result bag* (the equivalence gate's input: a
  :class:`~repro.backends.equivalence.ColumnBag`, or a list of row
  tuples for a result that is not all integers) plus a measured profile;
* ``close(handle)`` releases what ``prepare`` loaded.

Profiles are explicit about their epistemic status: the simulator's
seconds are **simulated** (byte-deterministic, reportable); an engine's
seconds are **wall-clock** (nondeterministic, only ever consumed through
the checked-in calibration artifact — see
:mod:`repro.backends.calibrate`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.backends.dataset import Dataset, materialize
from repro.backends.equivalence import Bag
from repro.backends.sqlgen import render_sql
from repro.workload.jobs import JobTemplate


@dataclass(frozen=True)
class BackendQuery:
    """One executable query: the template plus its SQL rendering."""

    template: JobTemplate
    sql: str


def dataset_query(dataset: Dataset) -> BackendQuery:
    """The query of ``dataset``'s template, rendered against it."""
    return BackendQuery(
        template=dataset.template, sql=render_sql(dataset.template, dataset)
    )


@dataclass(frozen=True)
class MeasuredProfile:
    """What one backend execution measured.

    ``simulated`` distinguishes deterministic simulated seconds (the sim
    backend) from wall-clock measurements (real engines).  Wall-clock
    values must never reach a report or trace directly; they enter the
    deterministic path only via the calibration artifact.
    """

    backend: str
    template: str
    prepare_s: float
    execute_s: float
    rows: int
    physical_bytes: int
    logical_bytes: float
    working_set_bytes: int
    simulated: bool


@dataclass(frozen=True)
class BackendHandle:
    """An opaque prepared dataset (engines add their connection)."""

    backend: str
    dataset: Dataset
    prepare_s: float = 0.0
    state: Any = None


class Backend(abc.ABC):
    """One execution backend for job templates."""

    #: Mode string (matches :data:`repro.backends.config.BACKEND_MODES`).
    name: str = "backend"

    @classmethod
    def available(cls) -> bool:
        """Whether this backend can run in the current environment."""
        return cls.missing_reason() is None

    @classmethod
    def missing_reason(cls) -> Optional[str]:
        """Why the backend cannot run (``None``: it can)."""
        return None

    @abc.abstractmethod
    def prepare(self, dataset: Dataset) -> BackendHandle:
        """Load ``dataset`` and return a handle for :meth:`execute`."""

    @abc.abstractmethod
    def execute(
        self, handle: BackendHandle, query: BackendQuery
    ) -> Tuple[Bag, MeasuredProfile]:
        """Run ``query`` against the prepared data; result bag + profile."""

    def close(self, handle: BackendHandle) -> None:
        """Release ``handle``'s prepared data (its connection, if any)."""
        close = getattr(handle.state, "close", None)
        if close is not None:
            close()

    # -- convenience -----------------------------------------------------

    def run_template(
        self, template: JobTemplate, *, seed: int, row_cap: int, sf_cap: float
    ) -> Tuple[Bag, MeasuredProfile]:
        """Materialize, prepare, and execute ``template`` in one call."""
        return self.run_dataset(
            materialize(template, seed=seed, row_cap=row_cap, sf_cap=sf_cap)
        )

    def run_dataset(self, dataset: Dataset) -> Tuple[Bag, MeasuredProfile]:
        """Prepare ``dataset`` and execute its template's query."""
        handle = self.prepare(dataset)
        try:
            return self.execute(handle, dataset_query(dataset))
        finally:
            self.close(handle)
