"""Render job templates as SQL over the materialized datasets.

One rendering serves every engine: the queries use only portable SQL-92
constructs (integer literals, inner joins, ``COUNT(*)``, ``BETWEEN``), so
SQLite and DuckDB execute byte-identical statements.  The TPC-H texts are
the paper's simplified forms (integer-coded dates/categoricals, all
aggregates replaced by ``count(*)``) with constants taken from the same
encoders :mod:`repro.core.queries.tpch_queries` compiles its plans from —
the SQL and the operator plans are two renderings of one logical query.
"""

from __future__ import annotations

from typing import Tuple

from repro.backends.dataset import Dataset
from repro.errors import ConfigurationError
from repro.tables.tpch import (
    date_code,
    returnflag_code,
    segment_code,
    shipinstruct_code,
    shipmode_code,
)
from repro.workload.jobs import JobKind, JobTemplate


def _q3_sql() -> str:
    return (
        "FROM customer, orders, lineitem "
        "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
        f"AND c_mktsegment = {segment_code('BUILDING')} "
        f"AND o_orderdate < {date_code(1995, 3, 15)} "
        f"AND l_shipdate > {date_code(1995, 3, 15)}"
    )


def _q10_sql() -> str:
    return (
        "FROM customer, orders, lineitem "
        "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
        f"AND o_orderdate >= {date_code(1993, 10, 1)} "
        f"AND o_orderdate < {date_code(1994, 1, 1)} "
        f"AND l_returnflag = {returnflag_code('R')}"
    )


def _q12_sql() -> str:
    return (
        "FROM orders, lineitem "
        "WHERE o_orderkey = l_orderkey "
        f"AND l_shipmode IN ({shipmode_code('MAIL')}, "
        f"{shipmode_code('SHIP')}) "
        "AND l_commitdate < l_receiptdate "
        "AND l_shipdate < l_commitdate "
        f"AND l_receiptdate >= {date_code(1994, 1, 1)} "
        f"AND l_receiptdate < {date_code(1995, 1, 1)}"
    )


def _q19_sql() -> str:
    def disjunct(brand, containers, qty_lo, qty_hi, size_hi):
        in_list = ", ".join(str(c) for c in containers)
        return (
            f"(p_brand = {brand} AND p_container IN ({in_list}) "
            f"AND l_quantity BETWEEN {qty_lo} AND {qty_hi} "
            f"AND p_size BETWEEN 1 AND {size_hi})"
        )

    return (
        "FROM part, lineitem "
        "WHERE p_partkey = l_partkey "
        f"AND l_shipmode IN ({shipmode_code('AIR')}, "
        f"{shipmode_code('REG AIR')}) "
        f"AND l_shipinstruct = {shipinstruct_code('DELIVER IN PERSON')} "
        "AND ("
        + disjunct(11, (0, 1, 2, 3), 1, 11, 5)
        + " OR "
        + disjunct(22, (10, 11, 12, 13), 10, 20, 10)
        + " OR "
        + disjunct(33, (20, 21, 22, 23), 20, 30, 15)
        + ")"
    )


#: The FROM/WHERE clauses of the TPC-H queries (each selects ``COUNT(*)``).
_TPCH_SQL = {
    "Q3": _q3_sql,
    "Q10": _q10_sql,
    "Q12": _q12_sql,
    "Q19": _q19_sql,
}


def output_columns(template: JobTemplate) -> Tuple[str, ...]:
    """The projection :func:`render_sql` selects, in column order.

    Every backend's result bag follows it, so the equivalence gate can
    align engine and simulator columns by name.
    """
    if template.kind is JobKind.JOIN:
        # The FK join of the paper: every probe (s) row matches one build
        # (r) row; the bag is the matched payload pairs.
        return ("s.payload", "r.payload")
    if template.kind is JobKind.SCAN:
        return ("v",)
    if template.kind is JobKind.TPCH:
        return ("COUNT(*)",)
    raise ConfigurationError(  # pragma: no cover - enum is exhaustive
        f"no SQL rendering for job kind {template.kind!r}"
    )


def render_sql(template: JobTemplate, dataset: Dataset) -> str:
    """The SQL text of ``template`` against ``dataset``'s tables."""
    select = "SELECT " + ", ".join(output_columns(template))
    if template.kind is JobKind.JOIN:
        return f'{select} FROM s, r WHERE s."key" = r."key"'
    if template.kind is JobKind.SCAN:
        lower = dataset.params["scan_lower"]
        upper = dataset.params["scan_upper"]
        return f"{select} FROM scan_values WHERE v BETWEEN {lower} AND {upper}"
    try:
        return f"{select} {_TPCH_SQL[template.query]()}"
    except KeyError:
        raise ConfigurationError(
            f"no SQL rendering for TPC-H query {template.query!r}"
        ) from None
