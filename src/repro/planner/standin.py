"""Pricing stand-ins and the one silent operator run behind every price.

The simulator prices a job template by running the real operators on a
*stand-in*: physical rows capped at ``row_cap`` (TPC-H at ``sf_cap``)
whose tables carry the template's full logical size in ``sim_scale``, so
every cost formula sees the logical shape while the arrays stay small.
Catalog pricing (:class:`~repro.workload.jobs.JobCatalog`), the planner's
estimates, the rewriter's race and equivalence proofs, the engines'
datasets (:func:`~repro.backends.dataset.materialize`) and the simulator
backend's result rows all build their data with :func:`standin_tables`
and execute it with :func:`run_silently`.  They differ only in caps,
seed, setting, plan, and which tables they pass.

Templates are dispatched on ``template.kind.value``, so this module
imports neither :mod:`repro.workload` nor :mod:`repro.backends`; it sits
in the planner package because :mod:`repro.workload` imports the planner
when it is initialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.queries.executor import QueryExecutor
from repro.core.queries.plan import QueryPlan
from repro.core.queries.tpch_queries import TPCH_QUERIES
from repro.core.scans.predicate import RangePredicate
from repro.core.scans.simd_scan import BitvectorScan
from repro.enclave.runtime import ExecutionSetting
from repro.errors import ConfigurationError
from repro.machine import SimMachine
from repro.memory.access import CodeVariant
from repro.planner.candidates import PlanCandidate, build_join
from repro.tables import generate_join_relation_pair, generate_tpch
from repro.tables.generator import rows_for_bytes, scaled_rows
from repro.tables.table import Column, Table
from repro.trace import NullTracer, use_tracer


def _scan_range(rows: int) -> Dict[str, int]:
    """The scan stand-in's inclusive predicate bounds: the first tenth."""
    return {"scan_lower": 0, "scan_upper": rows // 10}


def standin_key(template, row_cap: int) -> Tuple:
    """What :func:`standin_tables` reads of ``template`` at ``row_cap``: at
    one seed and caps, templates with equal keys get array-equal tables
    and equal parameters (every TPC-H query at one scale, say).  A join is
    keyed by its physical shape, so joins whose logical sizes are both
    past the cap share one key; only their tables' ``sim_scale`` differs."""
    kind = template.kind.value
    if kind == "join":
        return (
            kind,
            scaled_rows(rows_for_bytes(template.build_bytes), row_cap)[0],
            scaled_rows(rows_for_bytes(template.probe_bytes), row_cap)[0],
        )
    if kind == "scan":
        return (kind, template.scan_bytes)
    return (kind, template.scale_factor)


def standin_tables(
    template, seed: int, row_cap: int, sf_cap: float
) -> Tuple[Dict[str, Table], Dict[str, int]]:
    """``template``'s physical stand-in tables and query parameters.

    A join is the :func:`generate_join_relation_pair` at ``seed`` and
    ``row_cap`` as ``r`` (build) and ``s`` (probe); a scan is
    ``scan_values.v = arange(physical)`` with the ``[0, physical // 10]``
    range in the parameters; TPC-H is :func:`generate_tpch` at ``seed``
    and ``sf_cap``, all four tables.
    """
    kind = template.kind.value
    if kind == "join":
        build, probe = generate_join_relation_pair(
            template.build_bytes,
            template.probe_bytes,
            seed=seed,
            physical_row_cap=row_cap,
        )
        return {"r": build, "s": probe}, {}
    if kind == "scan":
        logical_rows = int(template.scan_bytes // 4)
        physical = max(1, min(row_cap, logical_rows))
        values = Table(
            "scan_values",
            [Column("v", np.arange(physical, dtype=np.int32))],
            sim_scale=logical_rows / physical,
        )
        return {"scan_values": values}, _scan_range(physical)
    if kind == "tpch":
        data = generate_tpch(
            template.scale_factor, seed=seed, physical_sf_cap=sf_cap
        )
        return data.named, {}
    raise ConfigurationError(f"unknown job kind {kind!r}")


@dataclass(frozen=True)
class SilentRun:
    """What one silent run measured, plus the operator's own result."""

    cycles: float
    seconds: float
    #: Enclave heap the run consumed (its EPC working set); ``None``
    #: outside an enclave.
    working_set_bytes: Optional[int]
    #: The operator's result: a join, scan or query result.
    result: object
    #: Every base and intermediate table of a TPC-H run; empty otherwise.
    namespace: Dict[str, Table]


def run_silently(
    machine: Optional[SimMachine],
    setting: ExecutionSetting,
    template,
    candidate: PlanCandidate,
    tables: Dict[str, Table],
    *,
    plan: Optional[QueryPlan] = None,
    pipelined: bool = False,
    storage=None,
) -> SilentRun:
    """Run ``template`` once on ``tables`` with ``candidate``'s operator.

    The run uses a throwaway machine with ``machine``'s spec and
    calibration (the default testbed for ``None``) and a
    :class:`~repro.trace.NullTracer`, so it leaves no state and no trace
    record behind: pricing, gating and proofs are bookkeeping, not
    measured work.  A TPC-H template executes ``plan`` (default: its own
    query) over exactly the tables passed, fused when ``pipelined``.  A
    spill candidate joins against a fresh sealed store sized by
    ``storage`` (a :class:`~repro.storage.StorageConfig`), which it
    therefore requires.
    """
    sim = (
        SimMachine()
        if machine is None
        else SimMachine(machine.spec, machine.params)
    )
    store = None
    budget = None
    if candidate.spill:
        if storage is None:
            raise ConfigurationError(
                f"spill candidate {candidate.label()!r} cannot be priced "
                "without a storage budget (--storage)"
            )
        from repro.storage.sealed import SealedStore

        store = SealedStore(sim.params, block_bytes=storage.block_bytes)
        budget = float(storage.budget_bytes)
    kind = template.kind.value
    namespace: Dict[str, Table] = {}
    with use_tracer(NullTracer()), sim.context(
        setting, threads=candidate.threads
    ) as ctx:
        if kind == "join":
            join = build_join(candidate, store=store, budget_bytes=budget)
            result = join.run(ctx, tables["r"], tables["s"])
        elif kind == "scan":
            values = tables["scan_values"]
            column = values.column("v")
            bounds = _scan_range(len(column))
            result = BitvectorScan(CodeVariant.SIMD).run(
                ctx,
                column,
                RangePredicate(bounds["scan_lower"], bounds["scan_upper"]),
                sim_scale=values.sim_scale,
            )
        elif kind == "tpch":
            executor = QueryExecutor(
                candidate.variant,
                pipelined=pipelined,
                join_factory=lambda: build_join(
                    candidate, store=store, budget_bytes=budget
                ),
            )
            if plan is None:
                plan = TPCH_QUERIES[template.query]()
            result = executor.run(ctx, plan, tables, namespace_out=namespace)
        else:
            raise ConfigurationError(f"unknown job kind {kind!r}")
        working_set = None
        if ctx.enclave is not None:
            # Everything the run allocated came out of the statically
            # committed heap; the consumed share is its EPC working set.
            working_set = int(
                ctx.enclave.config.heap_bytes - ctx.enclave.heap_free_bytes
            )
    return SilentRun(
        cycles=result.cycles,
        seconds=result.seconds(sim.frequency_hz),
        working_set_bytes=working_set,
        result=result,
        namespace=namespace,
    )
