"""Analytical candidate pricing through the calibrated cost model.

Every operator in this repo is *already* an analytical cost function: its
phases build :class:`~repro.memory.access.AccessProfile` batches from the
**logical** input sizes and price them through
:class:`~repro.memory.cost_model.MemoryCostModel` under a
:class:`~repro.memory.cost_model.CostEnvironment` — the physical rows only
flow through the correctness computation, never the cycle count (PHT's
skew estimator is the one data-dependent term, and it is inert on the
uniform foreign-key data the templates describe).  The coster exploits
exactly that: it evaluates a candidate's cost formulas on a *stand-in*
relation capped at :data:`PRICING_ROW_CAP` physical rows whose logical
sizes match the template, under a silent tracer and a throwaway machine.
No template-sized data is generated and nothing is executed at scale —
for the join candidates the estimate equals a real run's cycle count
exactly, because both are the same closed-form function of the logical
sizes, the :class:`~repro.hardware.spec.HardwareSpec`, and the
calibration (including the legacy EPC-paging terms, which is where the
CrkJoin/RHO crossover comes from).

On top of the operator formulas the coster adds the one cost the
operators do not price: the enclave *sizing* strategy.  A statically
committed working set pays one first-touch per page at init
(``static_page_touch_cycles``, parallel across threads); EDMM growth pays
``edmm_page_add_cycles`` per page, serialized through the OS (Fig. 11's
~47x per-page gap, the reason the paper recommends pre-allocation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.cache.keys import query_profile_key
from repro.core.scans.predicate import RangePredicate
from repro.core.scans.simd_scan import BitvectorScan
from repro.enclave.runtime import ExecutionSetting
from repro.errors import ConfigurationError
from repro.machine import SimMachine
from repro.memory.access import CodeVariant
from repro.planner.candidates import PlanCandidate, build_join
from repro.reuse import profiled
from repro.tables import generate_join_relation_pair, generate_tpch
from repro.tables.table import Column
from repro.trace import NullTracer, use_tracer
from repro.units import PAGE_BYTES

#: Physical stand-in cap for pricing runs.  Large enough that integer
#: effects (partition counts, tree heights) match the logical shape, small
#: enough that a full candidate enumeration prices in milliseconds.
PRICING_ROW_CAP = 2048

#: TPC-H physical scale-factor cap for pricing runs.
PRICING_SF_CAP = 0.002

#: The seed of every pricing stand-in (pricing is part of the plan, not of
#: the measured run, so it never derives from the session seed).
PRICING_SEED = 13


@dataclass(frozen=True)
class CandidateEstimate:
    """One candidate's analytical price."""

    candidate: PlanCandidate
    cycles: float  # operator cycles + sizing cycles, single query, no load
    seconds: float
    working_set_bytes: int  # EPC residency one execution occupies
    sizing_cycles: float = 0.0  # share of ``cycles`` charged for sizing

    def label(self, default_threads=None) -> str:
        return self.candidate.label(default_threads)


def sizing_cycles(
    params, candidate: PlanCandidate, working_set_bytes: int
) -> float:
    """Cycles to make ``working_set_bytes`` of enclave heap usable.

    ``static`` touches the pages once at enclave init, embarrassingly
    parallel; ``edmm`` EAUG+EACCEPTs them on demand, serialized through
    the OS page handler (Fig. 11).
    """
    if working_set_bytes <= 0:
        return 0.0
    pages = math.ceil(working_set_bytes / PAGE_BYTES)
    if candidate.sizing == "edmm":
        return pages * params.edmm_page_add_cycles
    return pages * params.static_page_touch_cycles / candidate.threads


def estimate_candidate(
    machine: SimMachine,
    setting: ExecutionSetting,
    template,
    candidate: PlanCandidate,
    *,
    pricing_seed: int = PRICING_SEED,
    storage=None,
) -> CandidateEstimate:
    """Price ``candidate`` for ``template`` under ``setting``.

    Deterministic, silent (no trace records leak into the caller's
    tracer), and side-effect free: every call uses a throwaway machine
    built from ``machine``'s spec and calibration.  Estimates are
    memoized in the session profile memo (:func:`~repro.reuse.profiled`,
    keyed on template, candidate, setting, stand-in caps, seed, and
    calibration digest), so a clustered run that builds one planner per
    shard enumerates the operator formulas once, not once per shard.

    ``storage`` (a :class:`~repro.storage.StorageConfig`) is required to
    price spill candidates: their cycles include the sealed seal/unseal
    traffic against the storage budget, which is where the in-EPC vs
    spill crossover comes from.
    """
    estimate = profiled(
        lambda: query_profile_key(
            kind="plan-estimate",
            template=template,
            setting=setting,
            candidate=candidate,
            pricing_seed=pricing_seed,
            row_cap=PRICING_ROW_CAP,
            sf_cap=PRICING_SF_CAP,
            params=machine.params,
            spec=machine.spec,
            storage=storage if candidate.spill else None,
        ),
        lambda: _run_estimate(
            machine, setting, template, candidate, pricing_seed, storage
        ),
    )
    return CandidateEstimate(
        candidate=candidate,
        cycles=float(estimate["cycles"]),
        seconds=float(estimate["seconds"]),
        working_set_bytes=int(estimate["working_set_bytes"]),
        sizing_cycles=float(estimate["sizing_cycles"]),
    )


def _run_estimate(
    machine: SimMachine,
    setting: ExecutionSetting,
    template,
    candidate: PlanCandidate,
    pricing_seed: int,
    storage,
) -> Dict[str, float]:
    """Execute one silent pricing run of ``candidate`` on a throwaway machine."""
    sim = SimMachine(machine.spec, machine.params)
    kind = template.kind.value
    store = None
    budget = None
    if candidate.spill:
        if storage is None:
            raise ConfigurationError(
                f"spill candidate {candidate.label()!r} cannot be priced "
                "without a storage config"
            )
        from repro.storage.sealed import SealedStore

        store = SealedStore(sim.params, block_bytes=storage.block_bytes)
        budget = float(storage.budget_bytes)
    with use_tracer(NullTracer()):
        with sim.context(setting, threads=candidate.threads) as ctx:
            if kind == "join":
                build, probe = generate_join_relation_pair(
                    template.build_bytes,
                    template.probe_bytes,
                    seed=pricing_seed,
                    physical_row_cap=PRICING_ROW_CAP,
                )
                join = build_join(
                    candidate, store=store, budget_bytes=budget
                )
                result = join.run(ctx, build, probe)
                cycles = result.cycles
            elif kind == "scan":
                logical_rows = int(template.scan_bytes // 4)
                physical = max(1, min(PRICING_ROW_CAP, logical_rows))
                column = Column("values", np.arange(physical, dtype=np.int32))
                result = BitvectorScan(CodeVariant.SIMD).run(
                    ctx,
                    column,
                    RangePredicate(0, physical // 10),
                    sim_scale=logical_rows / physical,
                )
                cycles = result.cycles
            elif kind == "tpch":
                from repro.core.queries.executor import QueryExecutor
                from repro.core.queries.tpch_queries import TPCH_QUERIES

                data = generate_tpch(
                    template.scale_factor,
                    seed=pricing_seed,
                    physical_sf_cap=PRICING_SF_CAP,
                )
                tables = {
                    "customer": data.customer,
                    "orders": data.orders,
                    "lineitem": data.lineitem,
                    "part": data.part,
                }
                plan = TPCH_QUERIES[template.query]()
                executor = QueryExecutor(
                    candidate.variant,
                    join_factory=lambda: build_join(
                        candidate, store=store, budget_bytes=budget
                    ),
                )
                cycles = executor.run(ctx, plan, tables).cycles
            else:
                raise ConfigurationError(f"unknown job kind {kind!r}")
            working_set = 0
            if ctx.enclave is not None:
                working_set = int(
                    ctx.enclave.config.heap_bytes - ctx.enclave.heap_free_bytes
                )
    sizing = 0.0
    if setting.enclave_mode:
        sizing = sizing_cycles(sim.params, candidate, working_set)
    total = cycles + sizing
    return {
        "cycles": float(total),
        "seconds": float(total / sim.frequency_hz),
        "working_set_bytes": int(working_set),
        "sizing_cycles": float(sizing),
    }
