"""Job templates: the unit of work a serving engine admits and schedules.

A :class:`JobTemplate` names one query shape a tenant submits — a TPC-H
plan, an ad-hoc foreign-key join, or a column scan — at a fixed thread
count.  The :class:`JobCatalog` prices each template **once** per execution
setting by running it for real through the existing operators (the same
machinery the figure experiments use) and caches the result as a
:class:`JobProfile`: service seconds per setting plus the EPC working set
one execution occupies.  The serving simulation then replays thousands of
queries against those priced profiles without re-running the operators.

The EPC working set is measured, not estimated: one pricing run under
``SGX (Data in Enclave)`` records how much of the statically committed
enclave heap the query's base tables, scratch structures, and intermediates
consumed — exactly the quantity an EPC-aware admission controller must
budget for (Sec. 2: working sets beyond the EPC force paging; Fig. 11:
growing the enclave mid-query collapses throughput).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.cache.keys import query_profile_key
from repro.core.queries.tpch_queries import TPCH_QUERIES
from repro.enclave.runtime import ExecutionSetting
from repro.errors import ConfigurationError
from repro.machine import SimMachine
from repro.memory.access import CodeVariant
from repro.planner.candidates import PlanCandidate, PlanHints, static_candidate
from repro.planner.standin import run_silently, standin_tables
from repro.reuse import profiled
from repro.runconfig import current_run_config

#: Physical data caps for pricing runs (smaller than the figure experiments'
#: caps: a serving catalog prices several templates per experiment).
QUICK_ROW_CAP = 60_000
FULL_ROW_CAP = 200_000
QUICK_SF_CAP = 0.01
FULL_SF_CAP = 0.02


class JobKind(enum.Enum):
    """What a job template executes."""

    TPCH = "tpch"
    JOIN = "join"
    SCAN = "scan"


@dataclass(frozen=True)
class JobTemplate:
    """One query shape at a fixed degree of parallelism.

    ``threads`` is the core reservation the scheduler makes while the job
    runs; service time is priced at exactly that thread count.
    """

    name: str
    kind: JobKind
    threads: int = 4
    query: str = ""  # TPCH: plan name (Q3/Q10/Q12/Q19)
    scale_factor: float = 1.0  # TPCH: logical scale factor
    build_bytes: float = 0.0  # JOIN: logical input sizes
    probe_bytes: float = 0.0
    scan_bytes: float = 0.0  # SCAN: logical column size
    #: Optional pins on the planner's candidate space (None: all free).
    #: Templates describe *logical* work; physical choices belong to the
    #: planner, and hints are the sanctioned way to constrain it.
    plan_hints: Optional[PlanHints] = None

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ConfigurationError("a job template needs >= 1 thread")
        if self.kind is JobKind.TPCH and self.query not in TPCH_QUERIES:
            raise ConfigurationError(
                f"job {self.name!r}: unknown TPC-H query {self.query!r}"
            )
        if self.kind is JobKind.JOIN and (
            self.build_bytes <= 0 or self.probe_bytes <= 0
        ):
            raise ConfigurationError(
                f"job {self.name!r}: join templates need positive input sizes"
            )
        if self.kind is JobKind.SCAN and self.scan_bytes <= 0:
            raise ConfigurationError(
                f"job {self.name!r}: scan templates need a positive column size"
            )


@dataclass(frozen=True)
class JobProfile:
    """Priced costs of one template: per-setting service time + footprint."""

    name: str
    threads: int
    working_set_bytes: int
    service_seconds_by_setting: Mapping[str, float] = field(default_factory=dict)

    def service_seconds(self, setting: ExecutionSetting) -> float:
        try:
            return self.service_seconds_by_setting[setting.label]
        except KeyError:
            raise ConfigurationError(
                f"job {self.name!r} was not priced under {setting.label!r}"
            ) from None


@dataclass(frozen=True)
class JobCost:
    """What the scheduler needs about one template under one setting."""

    name: str
    threads: int
    service_s: float
    working_set_bytes: int


class JobCatalog:
    """Prices job templates through the real operators, with caching.

    One catalog serves one experiment: it holds the machine prototype (spec
    and calibration; fresh state per pricing run), the fidelity mode, and
    the pricing seed, so every profile is deterministic.
    """

    #: The settings every template is priced under.
    SETTINGS = (
        ExecutionSetting.plain_cpu(),
        ExecutionSetting.sgx_data_in_enclave(),
    )

    def __init__(
        self,
        machine: Optional[SimMachine] = None,
        *,
        quick: bool = True,
        pricing_seed: int = 13,
        variant: CodeVariant = CodeVariant.UNROLLED,
    ) -> None:
        self._machine = machine
        self.quick = quick
        self.pricing_seed = pricing_seed
        #: Code variant of the join/query kernels (scans are SIMD kernels
        #: regardless).  UNROLLED is the paper's optimized engine; NAIVE
        #: models a lift-and-shift port (Fig. 17: +42 % average overhead).
        self.variant = variant
        #: Priced profiles by (template name, backend group): the sim
        #: path and each engine mode price differently, so they must not
        #: share cache entries.
        self._profiles: Dict[Tuple[str, str], JobProfile] = {}
        self._candidate_costs: Dict[
            Tuple[str, str, PlanCandidate], JobCost
        ] = {}
        #: Templates seen so far, by name.  Profiles and candidate costs
        #: are cached by template *name*, so two distinct templates
        #: sharing a name would silently reuse the first one's pricing;
        #: :meth:`_register` rejects that instead.
        self._templates: Dict[str, JobTemplate] = {}
        #: (template, mode) pairs the cross-backend equivalence gate has
        #: passed for this catalog (see :mod:`repro.backends.serving`).
        self._backend_gated: set = set()

    @property
    def row_cap(self) -> int:
        return QUICK_ROW_CAP if self.quick else FULL_ROW_CAP

    @property
    def sf_cap(self) -> float:
        return QUICK_SF_CAP if self.quick else FULL_SF_CAP

    def machine_prototype(self) -> SimMachine:
        """A machine carrying the catalog's spec (for EPC capacities)."""
        if self._machine is None:
            return SimMachine()
        return SimMachine(self._machine.spec, self._machine.params)

    def _register(self, template: JobTemplate) -> None:
        """Reject a second template reusing a cached template's name.

        Every cache in the catalog is keyed by ``template.name``; handing
        back another template's pricing because the names collide would be
        a silent correctness bug, so a name may only ever map to one set
        of template fields per catalog.
        """
        known = self._templates.get(template.name)
        if known is None:
            self._templates[template.name] = template
        elif known != template:
            raise ConfigurationError(
                f"job template name {template.name!r} is already registered "
                "with different fields; the catalog caches pricing by name, "
                "so distinct templates need distinct names"
            )

    # -- pricing ---------------------------------------------------------

    def profile(self, template: JobTemplate) -> JobProfile:
        """The (cached) priced profile of ``template``.

        Under an ambient engine backend mode (``--backend sqlite|duckdb``)
        the profile comes from the engine's calibrated measurement priced
        through the SGX cost envelope; otherwise (default / ``sim``) from
        pricing runs of the operator simulator.  Both paths cache here,
        so each template is priced (and, for engines, equivalence-gated)
        once per catalog.
        """
        self._register(template)
        mode = current_run_config().backend
        cached = self._profiles.get((template.name, mode))
        if cached is not None:
            return cached
        if mode != "sim":
            # Late import: repro.backends imports this module for the
            # simulator backend, so the bridge cannot be a top-level import.
            from repro.backends.serving import engine_profile

            profile = engine_profile(self, template, mode)
            self._profiles[(template.name, mode)] = profile
            return profile
        service: Dict[str, float] = {}
        working_set = 0
        for setting in self.SETTINGS:
            seconds, footprint = self._price(template, setting)
            service[setting.label] = seconds
            if footprint is not None:
                working_set = footprint
        profile = JobProfile(
            name=template.name,
            threads=template.threads,
            working_set_bytes=working_set,
            service_seconds_by_setting=service,
        )
        self._profiles[(template.name, mode)] = profile
        return profile

    def cost(self, template: JobTemplate, setting: ExecutionSetting) -> JobCost:
        """Scheduler-facing costs of ``template`` under ``setting``."""
        profile = self.profile(template)
        return JobCost(
            name=profile.name,
            threads=profile.threads,
            service_s=profile.service_seconds(setting),
            working_set_bytes=profile.working_set_bytes,
        )

    def candidate_cost(
        self,
        template: JobTemplate,
        setting: ExecutionSetting,
        candidate: PlanCandidate,
    ) -> JobCost:
        """Costs of ``template`` executed with ``candidate``'s plan.

        Priced through the same real-operator machinery as :meth:`cost`
        (one run per (template, setting, candidate), cached); this is how
        planner arms acquire the service time and EPC working set the
        serving scheduler charges.
        """
        self._register(template)
        key = (template.name, setting.label, candidate)
        cached = self._candidate_costs.get(key)
        if cached is not None:
            return cached
        seconds, footprint = self._price(template, setting, candidate)
        cost = JobCost(
            name=template.name,
            threads=candidate.threads,
            service_s=seconds,
            working_set_bytes=footprint or 0,
        )
        self._candidate_costs[key] = cost
        return cost

    def _price(
        self,
        template: JobTemplate,
        setting: ExecutionSetting,
        candidate: Optional[PlanCandidate] = None,
    ) -> Tuple[float, Optional[int]]:
        """Run ``template`` once under ``setting``; seconds + EPC footprint.

        ``candidate`` fixes the physical plan; ``None`` prices the
        historical static choice (RHO at the catalog's variant for joins
        and TPC-H plans, the SIMD scan kernel for scans).

        Pricing is *silent* (one :func:`~repro.planner.standin.run_silently`
        run on the catalog's stand-in caps): a pricing run is catalog
        bookkeeping, not measured serving work, and it is
        memoized in the session profile memo (:func:`~repro.reuse.profiled`)
        — trace bytes therefore cannot depend on whether the operators
        actually ran or the memo answered.
        """
        if candidate is None:
            candidate = static_candidate(template, self.variant)
        storage = current_run_config().storage if candidate.spill else None
        proto = self._machine
        priced = profiled(
            lambda: query_profile_key(
                kind="catalog-price",
                template=template,
                setting=setting,
                candidate=candidate,
                pricing_seed=self.pricing_seed,
                row_cap=self.row_cap,
                sf_cap=self.sf_cap,
                params=proto.params if proto is not None else None,
                spec=proto.spec if proto is not None else None,
                storage=storage,
            ),
            lambda: self._run_pricing(template, setting, candidate, storage),
        )
        footprint = priced["footprint"]
        return (
            float(priced["seconds"]),
            int(footprint) if footprint is not None else None,
        )

    def _run_pricing(
        self,
        template: JobTemplate,
        setting: ExecutionSetting,
        candidate: PlanCandidate,
        storage,
    ) -> Dict[str, Optional[float]]:
        """Execute one pricing run; its seconds and EPC footprint."""
        tables, _ = standin_tables(
            template, self.pricing_seed, self.row_cap, self.sf_cap
        )
        run = run_silently(
            self._machine, setting, template, candidate, tables, storage=storage
        )
        return {"seconds": run.seconds, "footprint": run.working_set_bytes}


def serving_templates() -> Dict[str, JobTemplate]:
    """The canonical multi-tenant template set the wl experiments draw from.

    Sizes are chosen to span three regimes: a sub-100-ms single-threaded
    scan (the interactive tenant), a mid-size parallel ad-hoc join, and two
    full TPC-H plans whose working sets dominate an EPC budget.
    """
    return {
        "scan-small": JobTemplate(
            name="scan-small", kind=JobKind.SCAN, threads=1, scan_bytes=64e6
        ),
        "join-medium": JobTemplate(
            name="join-medium",
            kind=JobKind.JOIN,
            threads=4,
            build_bytes=50e6,
            probe_bytes=200e6,
        ),
        "join-big": JobTemplate(
            name="join-big",
            kind=JobKind.JOIN,
            threads=4,
            build_bytes=200e6,
            probe_bytes=800e6,
        ),
        "q12": JobTemplate(
            name="q12", kind=JobKind.TPCH, threads=4, query="Q12",
            scale_factor=1.0,
        ),
        "q3": JobTemplate(
            name="q3", kind=JobKind.TPCH, threads=4, query="Q3",
            scale_factor=1.0,
        ),
    }
