"""Columnar tables backed by numpy arrays.

Operators compute their *results* on the physical numpy data but price
their *costs* against logical sizes: a table can represent a larger logical
relation through ``sim_scale`` (physical rows x scale = logical rows), so
benchmarks over paper-sized inputs (e.g. the 400 MB probe table, 50 M rows)
run in milliseconds while the cost model still sees the full working set.
Correctness is unaffected because all per-row logic is exercised on the
physical rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.ndim != 1:
            raise ConfigurationError(f"column {self.name!r} must be 1-dimensional")

    def __len__(self) -> int:
        return len(self.data)

    @property
    def element_bytes(self) -> int:
        return int(self.data.dtype.itemsize)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)


class Table:
    """A named collection of equal-length columns."""

    def __init__(
        self,
        name: str,
        columns: Iterable[Column],
        *,
        sim_scale: float = 1.0,
    ) -> None:
        cols: List[Column] = list(columns)
        if not cols:
            raise ConfigurationError(f"table {name!r} needs at least one column")
        length = len(cols[0])
        for col in cols:
            if len(col) != length:
                raise ConfigurationError(
                    f"table {name!r}: column {col.name!r} has {len(col)} rows, "
                    f"expected {length}"
                )
        if sim_scale <= 0:
            raise ConfigurationError("sim_scale must be positive")
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"table {name!r} has duplicate column names")
        self.name = name
        self._columns: Dict[str, Column] = {c.name: c for c in cols}
        self._order: List[str] = names
        self.num_rows = length
        self.sim_scale = float(sim_scale)

    # -- structure -------------------------------------------------------

    @property
    def column_names(self) -> List[str]:
        return list(self._order)

    def column(self, name: str) -> Column:
        """Return the column or raise ``ConfigurationError``."""
        try:
            return self._columns[name]
        except KeyError:
            raise ConfigurationError(
                f"table {self.name!r} has no column {name!r} "
                f"(have {self._order})"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name).data

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self.num_rows

    # -- sizes -----------------------------------------------------------

    @property
    def row_bytes(self) -> int:
        """Bytes of one row across all columns."""
        return sum(c.element_bytes for c in self._columns.values())

    @property
    def physical_bytes(self) -> int:
        return sum(c.nbytes for c in self._columns.values())

    @property
    def logical_rows(self) -> float:
        """Row count the cost model should price (physical x sim_scale)."""
        return self.num_rows * self.sim_scale

    @property
    def logical_bytes(self) -> float:
        return self.logical_rows * self.row_bytes

    # -- derivation ------------------------------------------------------

    def select(self, mask: np.ndarray, name: Optional[str] = None) -> "Table":
        """A new table containing the rows where ``mask`` is true."""
        if len(mask) != self.num_rows:
            raise ConfigurationError("selection mask length mismatch")
        rows = mask
        if len(self._order) > 1 and getattr(mask, "dtype", None) == np.bool_:
            # One pass over the mask, then a cheaper gather per column.
            rows = np.flatnonzero(mask)
        return Table(
            name or f"{self.name}_sel",
            [Column(c.name, c.data[rows]) for c in self._columns.values()],
            sim_scale=self.sim_scale,
        )

    def take(self, indexes: np.ndarray, name: Optional[str] = None) -> "Table":
        """A new table containing the rows at ``indexes`` (gather)."""
        return Table(
            name or f"{self.name}_take",
            [Column(c.name, c.data[indexes]) for c in self._columns.values()],
            sim_scale=self.sim_scale,
        )

    def with_columns(self, extra: Iterable[Column], name: Optional[str] = None) -> "Table":
        """A new table with ``extra`` columns appended."""
        cols = [self._columns[n] for n in self._order]
        return Table(name or self.name, cols + list(extra), sim_scale=self.sim_scale)

    @classmethod
    def from_arrays(
        cls, name: str, *, sim_scale: float = 1.0, **arrays: np.ndarray
    ) -> "Table":
        """Convenience constructor from keyword arrays (insertion order)."""
        return cls(
            name,
            [Column(col_name, data) for col_name, data in arrays.items()],
            sim_scale=sim_scale,
        )
