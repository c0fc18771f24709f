"""Multi-backend confidential engines: sim, SQLite, and DuckDB.

The paper benchmarks *operators* inside SGXv2; its nearest neighbours run
*whole engines* (DuckDB, Polars) in enclaves.  This package holds both
arms to one contract so they can be compared:

* a :class:`~repro.backends.base.Backend` protocol — prepare a
  materialized dataset, execute a SQL rendering of a job template, return
  the result bag (columns, or rows for a non-integer result) plus a
  measured profile;
* three implementations — the operator-level simulator
  (:class:`~repro.backends.sim.SimBackend`), CPython's bundled SQLite
  (:class:`~repro.backends.engines.SQLiteBackend`, always available), and
  DuckDB (:class:`~repro.backends.engines.DuckDBBackend`, optional: the
  ``repro[backends]`` extra);
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

from repro.backends.base import (
    Backend,
    BackendHandle,
    BackendQuery,
    MeasuredProfile,
)
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
    DuckDBBackend,
    ENGINE_BACKENDS,
    SQLiteBackend,
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
)
from repro.backends.sim import SimBackend
from repro.backends.sqlgen import render_sql

__all__ = [
    "BACKEND_MODES",
    "BACKENDS_EXTRA",
    "Backend",
    "BackendHandle",
    "BackendQuery",
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
    "SimBackend",
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
    "validate_mode",
]
