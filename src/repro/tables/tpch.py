"""TPC-H subset generator for the full-query experiments (Sec. 6, Fig. 17).

The paper evaluates TPC-H Q3, Q10, Q12, and Q19 at scale factor 10, with
the setup simplifications of the CrkJoin evaluation: dates and categorical
strings are represented as integers, all operators materialize, and the
final aggregation is replaced by ``count(*)``.  We generate exactly the
columns those queries touch, integer-coded, with TPC-H's cardinalities and
uniform value distributions:

* ``customer``  — 150,000 x SF rows
* ``orders``    — 1,500,000 x SF rows
* ``lineitem``  — ~4 per order (1..7 uniform, per the TPC-H spec)
* ``part``      — 200,000 x SF rows

Large scale factors are generated at a capped *physical* scale and carry
the remainder in ``sim_scale`` (see :mod:`repro.tables.table`).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.reuse import reused_within_scope
from repro.tables.table import Column, Table

#: TPC-H dates span 1992-01-01 .. 1998-12-31; encoded as days since epoch.
_DATE_EPOCH = datetime.date(1992, 1, 1)
DATE_MIN = 0
DATE_MAX = (datetime.date(1998, 12, 31) - _DATE_EPOCH).days

#: Categorical encodings (alphabetical, as a dictionary encoder would emit).
MKTSEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
SHIPMODES = ("AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK")
RETURNFLAGS = ("A", "N", "R")
SHIPINSTRUCTS = (
    "COLLECT COD",
    "DELIVER IN PERSON",
    "NONE",
    "TAKE BACK RETURN",
)
BRAND_COUNT = 25
CONTAINER_COUNT = 40

#: Default physical cap: lineitem stays below ~1.2 M rows.
DEFAULT_PHYSICAL_SF_CAP = 0.2

#: Datasets an experiment scope keeps: fig17 and ext05 loop query -> case
#: -> seed over the three quick seeds.
REUSED_DATASETS = 3


def date_code(year: int, month: int, day: int) -> int:
    """Integer encoding of a date (days since 1992-01-01)."""
    return (datetime.date(year, month, day) - _DATE_EPOCH).days


def segment_code(segment: str) -> int:
    """Dictionary code of a market segment string."""
    try:
        return MKTSEGMENTS.index(segment)
    except ValueError:
        raise ConfigurationError(f"unknown market segment {segment!r}") from None


def shipmode_code(mode: str) -> int:
    """Dictionary code of a ship mode string."""
    try:
        return SHIPMODES.index(mode)
    except ValueError:
        raise ConfigurationError(f"unknown ship mode {mode!r}") from None


def returnflag_code(flag: str) -> int:
    """Dictionary code of a return flag."""
    try:
        return RETURNFLAGS.index(flag)
    except ValueError:
        raise ConfigurationError(f"unknown return flag {flag!r}") from None


def shipinstruct_code(instruct: str) -> int:
    """Dictionary code of a ship instruction."""
    try:
        return SHIPINSTRUCTS.index(instruct)
    except ValueError:
        raise ConfigurationError(f"unknown ship instruction {instruct!r}") from None


@dataclass(frozen=True)
class TpchData:
    """The four generated relations plus their scale factor."""

    scale_factor: float
    customer: Table
    orders: Table
    lineitem: Table
    part: Table

    @property
    def tables(self):
        return (self.customer, self.orders, self.lineitem, self.part)

    @property
    def named(self) -> Dict[str, Table]:
        """The four relations by table name, in :attr:`tables` order."""
        return {table.name: table for table in self.tables}

    @property
    def total_logical_bytes(self) -> float:
        return sum(t.logical_bytes for t in self.tables)


@reused_within_scope(REUSED_DATASETS, tables=lambda data: data.tables)
def generate_tpch(
    scale_factor: float,
    *,
    seed: int = 7,
    physical_sf_cap: Optional[float] = DEFAULT_PHYSICAL_SF_CAP,
) -> TpchData:
    """Generate the TPC-H subset at ``scale_factor``.

    When ``scale_factor`` exceeds ``physical_sf_cap``, data is generated at
    the cap and the tables carry the ratio in ``sim_scale`` so the cost
    model prices the full logical size.  Inside a
    :func:`~repro.reuse.experiment_scope` a repeated
    call returns the same, read-only dataset.
    """
    if scale_factor <= 0:
        raise ConfigurationError("scale_factor must be positive")
    physical_sf = scale_factor
    if physical_sf_cap is not None and scale_factor > physical_sf_cap:
        physical_sf = physical_sf_cap
    sim_scale = scale_factor / physical_sf
    rng = np.random.default_rng(seed)

    n_customer = max(1, int(150_000 * physical_sf))
    n_orders = max(1, int(1_500_000 * physical_sf))
    n_part = max(1, int(200_000 * physical_sf))

    customer = Table(
        "customer",
        [
            Column("c_custkey", np.arange(n_customer, dtype=np.int32)),
            Column(
                "c_mktsegment",
                rng.integers(0, len(MKTSEGMENTS), n_customer, dtype=np.int32),
            ),
        ],
        sim_scale=sim_scale,
    )

    o_orderdate = rng.integers(
        DATE_MIN, date_code(1998, 8, 2), n_orders, dtype=np.int32
    )
    orders = Table(
        "orders",
        [
            Column("o_orderkey", np.arange(n_orders, dtype=np.int32)),
            Column(
                "o_custkey", rng.integers(0, n_customer, n_orders, dtype=np.int32)
            ),
            Column("o_orderdate", o_orderdate),
        ],
        sim_scale=sim_scale,
    )

    # 1..7 lineitems per order, as in the TPC-H spec.
    items_per_order = rng.integers(1, 8, n_orders)
    l_orderkey = np.repeat(
        np.arange(n_orders, dtype=np.int32), items_per_order
    )
    n_lineitem = len(l_orderkey)
    # Ship within 1..121 days of the order, receipt 1..30 days after ship,
    # commit 30..90 days after the order (the spec's generation rules).
    order_dates = o_orderdate[l_orderkey]
    l_shipdate = order_dates + rng.integers(1, 122, n_lineitem)
    l_receiptdate = l_shipdate + rng.integers(1, 31, n_lineitem)
    l_commitdate = order_dates + rng.integers(30, 91, n_lineitem)
    lineitem = Table(
        "lineitem",
        [
            Column("l_orderkey", l_orderkey),
            Column(
                "l_partkey", rng.integers(0, n_part, n_lineitem, dtype=np.int32)
            ),
            Column("l_shipdate", l_shipdate.astype(np.int32)),
            Column("l_commitdate", l_commitdate.astype(np.int32)),
            Column("l_receiptdate", l_receiptdate.astype(np.int32)),
            Column(
                "l_shipmode",
                rng.integers(0, len(SHIPMODES), n_lineitem, dtype=np.int32),
            ),
            Column(
                "l_returnflag",
                rng.integers(0, len(RETURNFLAGS), n_lineitem, dtype=np.int32),
            ),
            Column(
                "l_shipinstruct",
                rng.integers(0, len(SHIPINSTRUCTS), n_lineitem, dtype=np.int32),
            ),
            Column("l_quantity", rng.integers(1, 51, n_lineitem, dtype=np.int32)),
        ],
        sim_scale=sim_scale,
    )

    part = Table(
        "part",
        [
            Column("p_partkey", np.arange(n_part, dtype=np.int32)),
            Column("p_brand", rng.integers(0, BRAND_COUNT, n_part, dtype=np.int32)),
            Column(
                "p_container",
                rng.integers(0, CONTAINER_COUNT, n_part, dtype=np.int32),
            ),
            Column("p_size", rng.integers(1, 51, n_part, dtype=np.int32)),
        ],
        sim_scale=sim_scale,
    )

    return TpchData(
        scale_factor=scale_factor,
        customer=customer,
        orders=orders,
        lineitem=lineitem,
        part=part,
    )
