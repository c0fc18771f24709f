"""Query plans and the TPC-H executor: correctness and cost shapes."""

import numpy as np
import pytest

from repro.core.queries import (
    CountStep,
    FilterStep,
    JoinStep,
    QueryExecutor,
    QueryPlan,
    TPCH_QUERIES,
    reference_count,
)
from repro.enclave.runtime import ExecutionSetting
from repro.errors import PlanError
from repro.machine import SimMachine
from repro.memory.access import CodeVariant
from repro.tables import Table, generate_tpch

PLAIN = ExecutionSetting.plain_cpu()
SGX = ExecutionSetting.sgx_data_in_enclave()


@pytest.fixture(scope="module")
def tpch():
    return generate_tpch(1.0, seed=11, physical_sf_cap=0.02)


@pytest.fixture(scope="module")
def tpch_tables(tpch):
    return tpch.named


class TestPlanValidation:
    def test_plan_must_end_in_count(self):
        with pytest.raises(PlanError):
            QueryPlan(
                "bad",
                (
                    FilterStep(
                        source="t", output="f",
                        predicate=lambda t: np.ones(len(t), dtype=bool),
                        scan_columns=("a",), keep=("a",),
                    ),
                ),
            )

    def test_empty_plan_rejected(self):
        with pytest.raises(PlanError):
            QueryPlan("empty", ())

    def test_filter_needs_columns(self):
        with pytest.raises(PlanError):
            FilterStep(
                source="t", output="f",
                predicate=lambda t: np.ones(len(t), dtype=bool),
                scan_columns=(), keep=("a",),
            )

    def test_describe_lists_steps(self):
        plan = TPCH_QUERIES["Q3"]()
        description = plan.describe()
        assert len(description) == len(plan.steps)
        assert description[-1].startswith("COUNT")

    def test_join_counts(self):
        assert TPCH_QUERIES["Q3"]().join_count == 2
        assert TPCH_QUERIES["Q12"]().join_count == 1


class TestQueryCorrectness:
    @pytest.mark.parametrize("query", list(TPCH_QUERIES))
    def test_counts_match_reference(self, tpch, tpch_tables, query):
        machine = SimMachine()
        plan = TPCH_QUERIES[query]()
        with machine.context(PLAIN, threads=4) as ctx:
            result = QueryExecutor().run(ctx, plan, tpch_tables)
        assert result.count == reference_count(tpch, query)

    @pytest.mark.parametrize("query", list(TPCH_QUERIES))
    def test_counts_setting_independent(self, tpch_tables, query):
        counts = set()
        for setting in (PLAIN, SGX):
            machine = SimMachine()
            with machine.context(setting, threads=4) as ctx:
                result = QueryExecutor().run(
                    ctx, TPCH_QUERIES[query](), tpch_tables
                )
            counts.add(result.count)
        assert len(counts) == 1

    def test_counts_variant_independent(self, tpch_tables):
        counts = set()
        for variant in (CodeVariant.NAIVE, CodeVariant.UNROLLED):
            machine = SimMachine()
            with machine.context(SGX, threads=4) as ctx:
                result = QueryExecutor(variant).run(
                    ctx, TPCH_QUERIES["Q12"](), tpch_tables
                )
            counts.add(result.count)
        assert len(counts) == 1

    def test_logical_count_scales(self, tpch, tpch_tables):
        machine = SimMachine()
        with machine.context(PLAIN, threads=4) as ctx:
            result = QueryExecutor().run(ctx, TPCH_QUERIES["Q3"](), tpch_tables)
        assert result.count_logical == pytest.approx(
            result.count * tpch.lineitem.sim_scale
        )

    def test_unknown_table_rejected(self, tpch_tables):
        machine = SimMachine()
        plan = QueryPlan(
            "bad",
            (
                FilterStep(
                    source="nonexistent", output="f",
                    predicate=lambda t: np.ones(len(t), dtype=bool),
                    scan_columns=("a",), keep=("a",),
                ),
                CountStep(source="f"),
            ),
        )
        with machine.context(PLAIN) as ctx:
            with pytest.raises(PlanError):
                QueryExecutor().run(ctx, plan, tpch_tables)


class TestQueryCosts:
    @pytest.mark.parametrize("query", list(TPCH_QUERIES))
    def test_sgx_never_faster(self, tpch_tables, query):
        def cycles(setting, variant):
            machine = SimMachine()
            with machine.context(setting, threads=16) as ctx:
                return QueryExecutor(variant).run(
                    ctx, TPCH_QUERIES[query](), tpch_tables
                ).cycles

        plain = cycles(PLAIN, CodeVariant.NAIVE)
        sgx_naive = cycles(SGX, CodeVariant.NAIVE)
        sgx_opt = cycles(SGX, CodeVariant.UNROLLED)
        assert plain < sgx_opt < sgx_naive  # optimization helps, gap remains

    def test_fig17_overhead_bands(self, tpch_tables):
        """Average in-enclave overhead lands near the paper's 42 %/15 %."""
        naive, opt = [], []
        for query in TPCH_QUERIES:
            def cycles(setting, variant):
                machine = SimMachine()
                with machine.context(setting, threads=16) as ctx:
                    return QueryExecutor(variant).run(
                        ctx, TPCH_QUERIES[query](), tpch_tables
                    ).cycles

            plain = cycles(PLAIN, CodeVariant.NAIVE)
            naive.append(cycles(SGX, CodeVariant.NAIVE) / plain - 1)
            opt.append(cycles(SGX, CodeVariant.UNROLLED) / plain - 1)
        assert 0.25 < sum(naive) / len(naive) < 0.9  # paper: 0.42
        assert 0.0 < sum(opt) / len(opt) < 0.25  # paper: 0.15

    def test_step_breakdown_sums_to_total(self, tpch_tables):
        machine = SimMachine()
        with machine.context(PLAIN, threads=4) as ctx:
            result = QueryExecutor().run(ctx, TPCH_QUERIES["Q10"](), tpch_tables)
        assert sum(result.step_cycles.values()) == pytest.approx(result.cycles)

    def test_join_dominates_filter_in_q12(self, tpch_tables):
        machine = SimMachine()
        with machine.context(PLAIN, threads=16) as ctx:
            result = QueryExecutor().run(ctx, TPCH_QUERIES["Q12"](), tpch_tables)
        join_cycles = sum(
            v for k, v in result.step_cycles.items() if ":join:" in k
        )
        assert join_cycles > 0.3 * result.cycles


class TestFilterSemantics:
    def test_filter_materializes_kept_columns_only(self):
        machine = SimMachine()
        table = Table.from_arrays(
            "t",
            a=np.arange(100, dtype=np.int32),
            b=np.arange(100, dtype=np.int32) * 2,
        )
        plan = QueryPlan(
            "f",
            (
                FilterStep(
                    source="t", output="f",
                    predicate=lambda t: t["a"] < 10,
                    scan_columns=("a",), keep=("b",),
                ),
                CountStep(source="f"),
            ),
        )
        with machine.context(PLAIN) as ctx:
            result = QueryExecutor().run(ctx, plan, {"t": table})
        assert result.count == 10

    def test_join_keeps_requested_columns(self):
        machine = SimMachine()
        left = Table.from_arrays(
            "l", k=np.arange(10, dtype=np.int32),
            v=np.arange(10, dtype=np.int32) * 7,
        )
        right = Table.from_arrays(
            "r",
            k=np.array([0, 0, 5, 9], dtype=np.int32),
            w=np.array([1, 2, 3, 4], dtype=np.int32),
        )
        plan = QueryPlan(
            "j",
            (
                JoinStep(
                    build="l", probe="r", build_key="k", probe_key="k",
                    output="o", keep_build=("v",), keep_probe=("w",),
                ),
                CountStep(source="o"),
            ),
        )
        with machine.context(PLAIN) as ctx:
            result = QueryExecutor().run(ctx, plan, {"l": left, "r": right})
        assert result.count == 4


class TestPipelinedExecution:
    @pytest.mark.parametrize("query", list(TPCH_QUERIES))
    def test_counts_identical(self, tpch, tpch_tables, query):
        machine = SimMachine()
        with machine.context(PLAIN, threads=4) as ctx:
            pipelined = QueryExecutor(pipelined=True).run(
                ctx, TPCH_QUERIES[query](), tpch_tables
            )
        assert pipelined.count == reference_count(tpch, query)

    def test_pipelined_never_slower(self, tpch_tables):
        for query in TPCH_QUERIES:
            def cycles(pipelined):
                machine = SimMachine()
                with machine.context(SGX, threads=16) as ctx:
                    return QueryExecutor(pipelined=pipelined).run(
                        ctx, TPCH_QUERIES[query](), tpch_tables
                    ).cycles

            assert cycles(True) <= cycles(False) * 1.0001

    def test_pipelined_saving_is_modest_with_static_enclave(self, tpch_tables):
        # The extension's finding: materialization is not the enclave's
        # bottleneck when the enclave is pre-sized.
        def cycles(pipelined):
            machine = SimMachine()
            with machine.context(SGX, threads=16) as ctx:
                return QueryExecutor(pipelined=pipelined).run(
                    ctx, TPCH_QUERIES["Q3"](), tpch_tables
                ).cycles

        saving = 1 - cycles(True) / cycles(False)
        assert 0 <= saving < 0.15
