"""repro.planner.standin: the one stand-in builder and silent operator run."""

from __future__ import annotations

import pathlib

import pytest

import repro
from repro.core.queries.tpch_queries import TPCH_QUERIES
from repro.enclave.runtime import ExecutionSetting
from repro.errors import ConfigurationError
from repro.machine import SimMachine
from repro.memory.access import CodeVariant
from repro.planner.candidates import PlanCandidate, static_physical
from repro.planner.costing import (
    PRICING_ROW_CAP,
    PRICING_SEED,
    PRICING_SF_CAP,
    estimate_candidate,
)
from repro.planner.standin import run_silently, standin_tables
from repro.rewrite import base_tables, estimate_rewrite
from repro.rewrite.candidates import RewriteCandidate
from repro.tables import generate_tpch
from repro.trace import Tracer, use_tracer
from repro.workload.jobs import JobCatalog, serving_templates

PLAIN = ExecutionSetting.plain_cpu()
SGX_IN = ExecutionSetting.sgx_data_in_enclave()

SILENT_RUN = "use_tracer(NullTracer())"


def test_one_module_runs_operators_silently():
    """Pricing, planning, rewriting, gating and proofs share one silent
    run; a second hand-rolled copy would drift from it unnoticed."""
    src = pathlib.Path(repro.__file__).parent
    modules = sorted(
        str(path.relative_to(src))
        for path in src.rglob("*.py")
        if path.relative_to(src).parts[0] != "trace"
        and SILENT_RUN in path.read_text()
    )
    assert modules == ["planner/standin.py"]


def test_tpch_named_tables_keep_generation_order():
    data = generate_tpch(1.0, seed=3, physical_sf_cap=0.001)
    assert list(data.named) == ["customer", "orders", "lineitem", "part"]
    assert tuple(data.named.values()) == data.tables


def test_silent_run_records_nothing():
    template = serving_templates()["q12"]
    tables, _ = standin_tables(template, PRICING_SEED, 0, PRICING_SF_CAP)
    tracer = Tracer()
    with use_tracer(tracer):
        run = run_silently(
            None, SGX_IN, template, static_physical(template), tables
        )
    assert not tracer.records
    assert run.cycles > 0 and run.working_set_bytes > 0
    assert "lineitem" in run.namespace


class TestSpillWithoutStorage:
    """A spill plan has nothing to spill to without a storage budget."""

    SPILL = PlanCandidate("RHO", CodeVariant.UNROLLED, threads=4, spill=True)

    def test_catalog_candidate_cost_raises(self):
        template = serving_templates()["join-medium"]
        with pytest.raises(ConfigurationError, match=r"--storage"):
            JobCatalog().candidate_cost(template, SGX_IN, self.SPILL)

    def test_estimate_candidate_raises(self):
        template = serving_templates()["join-medium"]
        with pytest.raises(ConfigurationError, match=r"--storage"):
            estimate_candidate(SimMachine(), SGX_IN, template, self.SPILL)


def _identity(query: str) -> RewriteCandidate:
    return RewriteCandidate(
        name="identity",
        query=query,
        kind="identity",
        description="the template's own plan",
        plan=TPCH_QUERIES[query],
        proof_plan=TPCH_QUERIES[query],
    )


@pytest.mark.parametrize("name", ["q3", "q12"])
class TestIdentityRewrite:
    """An identity rewrite prices like the planner's static plan, except
    for the base tables the planner loads without reading them."""

    def _estimates(self, name, setting):
        template = serving_templates()[name]
        machine = SimMachine()
        rewritten = estimate_rewrite(
            machine, setting, template, _identity(template.query)
        )
        planned = estimate_candidate(
            machine, setting, template, static_physical(template)
        )
        return template, rewritten, planned

    def test_plain_cpu_estimates_are_equal(self, name):
        _, rewritten, planned = self._estimates(name, PLAIN)
        assert rewritten.cycles == planned.cycles
        assert rewritten.seconds == planned.seconds
        assert rewritten.working_set_bytes == planned.working_set_bytes

    def test_enclave_gap_is_the_unread_tables(self, name):
        # Known defect: the planner's estimate loads all four TPC-H
        # tables into the enclave, so a query is charged for tables its
        # plan never reads.  Fixing it moves output bytes.
        template, rewritten, planned = self._estimates(name, SGX_IN)
        tables, _ = standin_tables(
            template, PRICING_SEED, PRICING_ROW_CAP, PRICING_SF_CAP
        )
        read = base_tables(TPCH_QUERIES[template.query]())
        unread = [t for key, t in tables.items() if key not in read]
        assert unread
        gap = planned.working_set_bytes - rewritten.working_set_bytes
        assert gap == sum(int(t.logical_bytes) for t in unread)
