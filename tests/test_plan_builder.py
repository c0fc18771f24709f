"""The fluent PlanBuilder produces plans equivalent to hand-built ones."""

import numpy as np
import pytest

from repro.core.queries import PlanBuilder, QueryExecutor, reference_count
from repro.core.queries.tpch_queries import _DATE_1995_03_15
from repro.enclave.runtime import ExecutionSetting
from repro.errors import PlanError
from repro.machine import SimMachine
from repro.tables import generate_tpch
from repro.tables.tpch import segment_code

PLAIN = ExecutionSetting.plain_cpu()


def q3_via_builder():
    building = segment_code("BUILDING")
    return (
        PlanBuilder("Q3-built")
        .filter(
            "customer", "customer_f",
            predicate=lambda t: t["c_mktsegment"] == building,
            scan=("c_mktsegment",), keep=("c_custkey",),
        )
        .filter(
            "orders", "orders_f",
            predicate=lambda t: t["o_orderdate"] < _DATE_1995_03_15,
            scan=("o_orderdate",), keep=("o_orderkey", "o_custkey"),
        )
        .filter(
            "lineitem", "lineitem_f",
            predicate=lambda t: t["l_shipdate"] > _DATE_1995_03_15,
            scan=("l_shipdate",), keep=("l_orderkey",),
        )
        .join(build="customer_f", probe="orders_f",
              on=("c_custkey", "o_custkey"), output="co",
              keep_probe=("o_orderkey",))
        .join(build="co", probe="lineitem_f",
              on=("o_orderkey", "l_orderkey"), output="col")
        .count()
        .build()
    )


class TestBuilder:
    def test_q3_equivalent(self):
        data = generate_tpch(0.5, seed=23, physical_sf_cap=0.02)
        tables = data.named
        machine = SimMachine()
        with machine.context(PLAIN, threads=4) as ctx:
            result = QueryExecutor().run(ctx, q3_via_builder(), tables)
        assert result.count == reference_count(data, "Q3")

    def test_count_defaults_to_last_output(self):
        plan = (
            PlanBuilder("p")
            .filter("t", "f", predicate=lambda t: np.ones(len(t), dtype=bool),
                    scan=("a",), keep=("a",))
            .count()
            .build()
        )
        assert plan.steps[-1].source == "f"

    def test_build_without_count_rejected(self):
        builder = PlanBuilder("p").filter(
            "t", "f", predicate=lambda t: np.ones(len(t), dtype=bool),
            scan=("a",), keep=("a",),
        )
        with pytest.raises(PlanError):
            builder.build()

    def test_steps_after_count_rejected(self):
        builder = PlanBuilder("p").filter(
            "t", "f", predicate=lambda t: np.ones(len(t), dtype=bool),
            scan=("a",), keep=("a",),
        ).count()
        with pytest.raises(PlanError):
            builder.count()

    def test_duplicate_output_rejected(self):
        builder = PlanBuilder("p").filter(
            "t", "f", predicate=lambda t: np.ones(len(t), dtype=bool),
            scan=("a",), keep=("a",),
        )
        with pytest.raises(PlanError):
            builder.filter(
                "t", "f", predicate=lambda t: np.ones(len(t), dtype=bool),
                scan=("a",), keep=("a",),
            )

    def test_empty_count_rejected(self):
        with pytest.raises(PlanError):
            PlanBuilder("p").count()

    def test_unnamed_plan_rejected(self):
        with pytest.raises(PlanError):
            PlanBuilder("")
