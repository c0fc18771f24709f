"""Multi-backend confidential engines: sim, SQLite, and DuckDB.

The paper benchmarks *operators* inside SGXv2; its nearest neighbours run
*whole engines* (DuckDB, Polars) in enclaves.  This package runs both
arms over the same materialized rows so they can be compared:

* one engine class, :class:`~repro.backends.engines.SqlEngineBackend` —
  prepare a materialized dataset, execute a SQL rendering of a job
  template, return the result bag (columns, or rows for a non-integer
  result) plus the measured seconds — with two connection factories:
  CPython's bundled SQLite (:class:`~repro.backends.engines.SQLiteBackend`,
  always available) and DuckDB
  (:class:`~repro.backends.engines.DuckDBBackend`, optional: the
  ``repro[backends]`` extra);
* the operator simulator's side of a comparison,
  :func:`~repro.backends.serving.sim_rows`: the result bag of the
  catalog's static plan over the same tables;
* a **cross-backend equivalence gate**
  (:mod:`repro.backends.equivalence`): result bags must hold the same
  rows, column by column, before any backend's timing is reported;
* an **SGX cost envelope** (:mod:`repro.backends.envelope`) that prices
  engine-in-enclave arms from checked-in calibrated profiles
  (:mod:`repro.backends.calibrate`), keeping engine-priced experiments
  byte-deterministic.

Backend selection is the ``backend`` field of the ambient
:class:`~repro.runconfig.RunConfig`: ``--backend`` unset (or ``sim``)
leaves every existing code path — and its output bytes — untouched.
"""

from repro.backends.config import (
    BACKEND_MODES,
    BACKENDS_EXTRA,
    ENGINE_MODES,
    missing_reason,
    require_available,
    validate_mode,
)
from repro.backends.dataset import Dataset, materialize
from repro.backends.engines import (
    BackendHandle,
    DuckDBBackend,
    ENGINE_BACKENDS,
    MeasuredProfile,
    SQLiteBackend,
    SqlEngineBackend,
    make_engine,
)
from repro.backends.envelope import (
    EngineProfile,
    EnvelopeCost,
    SgxCostEnvelope,
    get_profile,
    load_profiles,
)
from repro.backends.equivalence import (
    Bag,
    ColumnBag,
    EquivalenceError,
    assert_equivalent,
    bag_digest,
    canonical_bag,
)
from repro.backends.serving import (
    engine_profile,
    gate_template,
    gate_templates,
    sim_rows,
)
from repro.backends.sqlgen import render_sql

__all__ = [
    "BACKEND_MODES",
    "BACKENDS_EXTRA",
    "BackendHandle",
    "Bag",
    "ColumnBag",
    "Dataset",
    "DuckDBBackend",
    "ENGINE_BACKENDS",
    "ENGINE_MODES",
    "EngineProfile",
    "EnvelopeCost",
    "EquivalenceError",
    "MeasuredProfile",
    "SQLiteBackend",
    "SgxCostEnvelope",
    "SqlEngineBackend",
    "assert_equivalent",
    "bag_digest",
    "canonical_bag",
    "engine_profile",
    "gate_template",
    "gate_templates",
    "get_profile",
    "load_profiles",
    "make_engine",
    "materialize",
    "missing_reason",
    "render_sql",
    "require_available",
    "sim_rows",
    "validate_mode",
]
