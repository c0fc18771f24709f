"""Columnar tables and workload generators."""

from repro.tables.table import Column, Table
from repro.tables.generator import (
    JOIN_TUPLE_BYTES,
    generate_join_relation_pair,
    generate_key_value_table,
    rows_for_bytes,
)
from repro.tables.tpch import TpchData, generate_tpch

__all__ = [
    "Column",
    "Table",
    "JOIN_TUPLE_BYTES",
    "generate_join_relation_pair",
    "generate_key_value_table",
    "rows_for_bytes",
    "TpchData",
    "generate_tpch",
]
