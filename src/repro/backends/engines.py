"""Real SQL engines behind the backend protocol: SQLite and DuckDB.

Both engines implement the DB-API surface this module needs (``execute``
/ ``executemany`` / ``fetchmany``), so one implementation covers both;
only the connection factory differs.  SQLite ships with CPython and is
therefore always available — it is the engine the CI equivalence gate
runs against.  DuckDB is optional: :meth:`DuckDBBackend.missing_reason`
names the ``repro[backends]`` extra when the wheel is absent, and every
caller is expected to skip (not crash) in that case.

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

Engine timings are **wall-clock** (``MeasuredProfile.simulated=False``).
They never enter reports or traces directly; the deterministic path
consumes them only through the checked-in calibration artifact
(:mod:`repro.backends.calibrate`).
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.backends.base import (
    Backend,
    BackendHandle,
    BackendQuery,
    Bag,
    MeasuredProfile,
)
from repro.backends.config import missing_reason as _config_missing_reason
from repro.backends.dataset import Dataset
from repro.backends.equivalence import ColumnBag
from repro.errors import ConfigurationError
from repro.tables.table import Table

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


class SqlEngineBackend(Backend):
    """Shared DB-API implementation (subclasses provide the connection)."""

    def _connect(self):  # pragma: no cover - abstract hook
        raise NotImplementedError

    def prepare(self, dataset: Dataset) -> BackendHandle:
        reason = self.missing_reason()
        if reason is not None:
            raise ConfigurationError(reason)
        start = time.perf_counter()
        conn = self._connect()
        try:
            for name, table in dataset.tables.items():
                _load_table(conn, name, table)
            self._commit(conn)
        except BaseException:
            conn.close()
            raise
        return BackendHandle(
            backend=self.name,
            dataset=dataset,
            prepare_s=time.perf_counter() - start,
            state=conn,
        )

    @staticmethod
    def _commit(conn) -> None:
        commit = getattr(conn, "commit", None)
        if commit is not None:
            commit()

    def execute(
        self, handle: BackendHandle, query: BackendQuery
    ) -> Tuple[Bag, MeasuredProfile]:
        if handle.state is None:
            raise ConfigurationError(
                f"backend {self.name!r}: execute() needs a prepared handle"
            )
        start = time.perf_counter()
        bag = _fetch(handle.state.execute(query.sql))
        elapsed = time.perf_counter() - start
        dataset = handle.dataset
        profile = MeasuredProfile(
            backend=self.name,
            template=query.template.name,
            prepare_s=handle.prepare_s,
            execute_s=elapsed,
            rows=len(bag),
            physical_bytes=dataset.physical_bytes,
            logical_bytes=dataset.logical_bytes,
            working_set_bytes=0,  # engines do not expose EPC footprints
            simulated=False,
        )
        return bag, profile


class SQLiteBackend(SqlEngineBackend):
    """CPython's bundled SQLite: the always-available reference engine."""

    name = "sqlite"

    def _connect(self):
        import sqlite3

        return sqlite3.connect(":memory:")


class DuckDBBackend(SqlEngineBackend):
    """DuckDB, when its wheel is installed (the ``backends`` extra)."""

    name = "duckdb"

    @classmethod
    def missing_reason(cls) -> Optional[str]:
        return _config_missing_reason("duckdb")

    def _connect(self):
        import duckdb

        return duckdb.connect(":memory:")


#: Backend classes by mode name (the sim backend registers in
#: :mod:`repro.backends.__init__` to avoid importing operator modules
#: from here).
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
    reason = cls.missing_reason()
    if reason is not None:
        raise ConfigurationError(reason)
    return cls()
