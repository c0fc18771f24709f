"""Real SQL engines: SQLite and DuckDB.

An engine runs a job template's logical query: ``prepare(dataset) ->
handle`` loads the template's materialized data (the same physical rows
the operator simulator queries — see :mod:`repro.backends.dataset`),
``execute(handle, sql) -> (bag, MeasuredProfile)`` runs the rendered SQL
and returns the *result bag* (the equivalence gate's input: a
:class:`~repro.backends.equivalence.ColumnBag`, or a list of row tuples
for a result that is not all integers) plus the measured seconds, and
``close(handle)`` releases what ``prepare`` loaded.

Both engines implement the DB-API surface this module needs (``execute``
/ ``executemany`` / ``fetchmany``), so one class covers both; only the
connection factory differs.  SQLite ships with CPython and is therefore
always available — it is the engine the CI equivalence gate runs
against.  DuckDB is optional:
:func:`~repro.backends.config.missing_reason` names the
``repro[backends]`` extra when the wheel is absent, and every caller is
expected to skip (not crash) in that case.

Tables load in streamed multi-row batches: one ``INSERT ... VALUES
(?, ...), (?, ...), ...`` statement of :data:`MAX_BOUND_PARAMS` // width
rows runs through ``executemany`` once per full batch, and one shorter
statement inserts the leftover rows.  Each batch's values are converted
to Python only when it is bound — column by column with the column's own
``tolist()``, so no dtype is promoted to another — and a whole table is
never held as Python ints at once.  Rows keep their insertion order, and
the DDL declares every column ``INTEGER`` with no index.

Results come back in :data:`FETCH_ROWS`-row ``fetchmany`` batches, each
turned into one int64 block as it arrives, so an all-integer result is
returned as a :class:`~repro.backends.equivalence.ColumnBag` and never
held as Python rows at once.  The first batch holding anything else (a
float, a NULL, a text, an integer past int64) turns the whole result
back into the list of row tuples the cursor would have fetched.

Engine timings are **wall-clock**.  They never enter reports or traces
directly; the deterministic path consumes them only through the
checked-in calibration artifact (:mod:`repro.backends.calibrate`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.backends.config import require_available
from repro.backends.dataset import Dataset, materialize
from repro.backends.equivalence import Bag, ColumnBag
from repro.backends.sqlgen import render_sql
from repro.errors import ConfigurationError
from repro.tables.table import Table
from repro.workload.jobs import JobTemplate

#: Bound parameters per ``INSERT`` statement: SQLite's historical default
#: limit (``SQLITE_MAX_VARIABLE_NUMBER``), which DuckDB accepts too.
MAX_BOUND_PARAMS = 999

#: Rows per ``fetchmany`` batch of a result.
FETCH_ROWS = 4096


def _flat_rows(columns: List[np.ndarray], start: int, stop: int) -> List:
    """Rows ``start:stop`` of ``columns`` as one flat row-major list of
    each column's own ``tolist()`` values."""
    width = len(columns)
    values = [None] * ((stop - start) * width)
    for offset, column in enumerate(columns):
        values[offset::width] = column[start:stop].tolist()
    return values


def _insert_sql(name: str, width: int, rows: int) -> str:
    row = "(" + ", ".join(["?"] * width) + ")"
    return f'INSERT INTO "{name}" VALUES ' + ", ".join([row] * rows)


def _load_table(conn, name: str, table: Table) -> None:
    """Create ``name`` and insert ``table``'s rows in streamed batches."""
    columns = [table[column] for column in table.column_names]
    width, rows = len(columns), table.num_rows
    conn.execute(
        f'CREATE TABLE "{name}" ('
        + ", ".join(f'"{column}" INTEGER' for column in table.column_names)
        + ")"
    )
    batch = max(1, MAX_BOUND_PARAMS // width)
    full = rows - rows % batch
    if full:
        conn.executemany(
            _insert_sql(name, width, batch),
            (
                _flat_rows(columns, start, start + batch)
                for start in range(0, full, batch)
            ),
        )
    if full < rows:
        conn.execute(
            _insert_sql(name, width, rows - full),
            _flat_rows(columns, full, rows),
        )


def _int_block(batch: List[tuple]) -> Optional[np.ndarray]:
    """``batch``'s rows as one int64 block when every value is an int or a
    bool that fits; ``None`` otherwise."""
    try:
        block = np.array(batch)
    except ValueError:  # rows of unequal widths
        return None
    if block.ndim != 2 or block.dtype.kind not in "bi":
        return None
    return block.astype(np.int64, copy=False)


def _fetch(cursor) -> Bag:
    """The cursor's result, fetched in :data:`FETCH_ROWS`-row batches: a
    column bag when all of it is integers, a list of row tuples if not."""
    blocks: List[np.ndarray] = []
    while True:
        batch = cursor.fetchmany(FETCH_ROWS)
        if not batch:
            break
        block = _int_block(batch)
        if block is None:
            rows = [tuple(row) for b in blocks for row in b.tolist()]
            return rows + batch + cursor.fetchall()
        blocks.append(block)
    if not blocks:
        return ColumnBag(
            [np.empty(0, dtype=np.int64)] * len(cursor.description)
        )
    return ColumnBag(list(np.concatenate(blocks).T))


@dataclass(frozen=True)
class MeasuredProfile:
    """The wall-clock seconds one engine execution measured."""

    prepare_s: float
    execute_s: float


@dataclass(frozen=True)
class BackendHandle:
    """A dataset loaded into an engine: its connection and load time."""

    state: Any
    prepare_s: float


class SqlEngineBackend:
    """One SQL engine for job templates (subclasses provide the
    connection)."""

    #: Mode string (one of :data:`repro.backends.config.ENGINE_MODES`).
    name: str = "engine"

    def _connect(self):  # pragma: no cover - abstract hook
        raise NotImplementedError

    def prepare(self, dataset: Dataset) -> BackendHandle:
        """Load ``dataset`` and return a handle for :meth:`execute`."""
        require_available(self.name)
        start = time.perf_counter()
        conn = self._connect()
        try:
            for name, table in dataset.tables.items():
                _load_table(conn, name, table)
            commit = getattr(conn, "commit", None)
            if commit is not None:
                commit()
        except BaseException:
            conn.close()
            raise
        return BackendHandle(conn, time.perf_counter() - start)

    def execute(
        self, handle: BackendHandle, sql: str
    ) -> Tuple[Bag, MeasuredProfile]:
        """Run ``sql`` against the prepared data; result bag + profile."""
        start = time.perf_counter()
        bag = _fetch(handle.state.execute(sql))
        elapsed = time.perf_counter() - start
        return bag, MeasuredProfile(handle.prepare_s, elapsed)

    def close(self, handle: BackendHandle) -> None:
        """Release ``handle``'s prepared data (its connection)."""
        handle.state.close()

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
            return self.execute(handle, render_sql(dataset.template, dataset))
        finally:
            self.close(handle)


class SQLiteBackend(SqlEngineBackend):
    """CPython's bundled SQLite: the always-available reference engine."""

    name = "sqlite"

    def _connect(self):
        import sqlite3

        return sqlite3.connect(":memory:")


class DuckDBBackend(SqlEngineBackend):
    """DuckDB, when its wheel is installed (the ``backends`` extra)."""

    name = "duckdb"

    def _connect(self):
        import duckdb

        return duckdb.connect(":memory:")


#: Engine classes by mode name.
ENGINE_BACKENDS = {
    SQLiteBackend.name: SQLiteBackend,
    DuckDBBackend.name: DuckDBBackend,
}


def make_engine(mode: str) -> SqlEngineBackend:
    """Instantiate the engine backend for ``mode`` (or raise)."""
    try:
        cls = ENGINE_BACKENDS[mode]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine backend {mode!r}; "
            f"known: {', '.join(sorted(ENGINE_BACKENDS))}"
        ) from None
    require_available(mode)
    return cls()
