"""Materialize one job template's physical data for every backend.

All backends — the operator simulator and the real engines — must query
*the same physical rows*, or bag equivalence would be vacuous.  A
:class:`Dataset` bundles the stand-in tables of
:func:`~repro.planner.standin.standin_tables`, the one builder the
catalog's pricing runs use too, with the logical sizes the cost envelope
scales measured profiles up to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.planner.standin import standin_tables
from repro.tables.table import Table
from repro.workload.jobs import JobTemplate


@dataclass(frozen=True)
class Dataset:
    """One template's materialized tables plus its sizing metadata."""

    template: JobTemplate
    seed: int
    row_cap: int
    sf_cap: float
    tables: Mapping[str, Table]
    #: Query parameters derived during materialization (e.g. the scan
    #: range bounds, which depend on the physical row count).
    params: Dict[str, int] = field(default_factory=dict)

    @property
    def physical_bytes(self) -> int:
        """Bytes actually materialized (what an engine holds in memory)."""
        return int(sum(t.physical_bytes for t in self.tables.values()))

    @property
    def logical_bytes(self) -> float:
        """The template's full logical size (what the cost model prices)."""
        return float(sum(t.logical_bytes for t in self.tables.values()))


def materialize(
    template: JobTemplate, *, seed: int, row_cap: int, sf_cap: float
) -> Dataset:
    """The physical stand-in data of ``template`` at the given caps.

    :func:`~repro.planner.standin.standin_tables` builds the tables, so
    at the catalog's seed and caps they are the rows its pricing runs
    execute.
    """
    tables, params = standin_tables(template, seed, row_cap, sf_cap)
    return Dataset(
        template=template,
        seed=seed,
        row_cap=row_cap,
        sf_cap=sf_cap,
        tables=tables,
        params=params,
    )
