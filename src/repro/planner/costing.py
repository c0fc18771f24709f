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

from repro.cache.keys import query_profile_key
from repro.enclave.runtime import ExecutionSetting
from repro.machine import SimMachine
from repro.planner.candidates import PlanCandidate
from repro.planner.standin import run_silently, standin_tables
from repro.reuse import profiled
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
        lambda: sized_run(
            machine,
            setting,
            template,
            candidate,
            standin_tables(
                template, pricing_seed, PRICING_ROW_CAP, PRICING_SF_CAP
            )[0],
            storage=storage,
        ),
    )
    return CandidateEstimate(
        candidate=candidate,
        cycles=float(estimate["cycles"]),
        seconds=float(estimate["seconds"]),
        working_set_bytes=int(estimate["working_set_bytes"]),
        sizing_cycles=float(estimate["sizing_cycles"]),
    )


def sized_run(
    machine: SimMachine,
    setting: ExecutionSetting,
    template,
    candidate: PlanCandidate,
    tables,
    **run,
) -> Dict[str, float]:
    """One :func:`~repro.planner.standin.run_silently` run plus the
    enclave sizing cycles its working set costs (``run`` passes through)."""
    measured = run_silently(machine, setting, template, candidate, tables, **run)
    working_set = measured.working_set_bytes or 0
    sizing = 0.0
    if setting.enclave_mode:
        sizing = sizing_cycles(machine.params, candidate, working_set)
    total = measured.cycles + sizing
    return {
        "cycles": float(total),
        "seconds": float(total / machine.frequency_hz),
        "working_set_bytes": int(working_set),
        "sizing_cycles": float(sizing),
    }
