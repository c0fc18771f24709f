"""Race proven rewrites through the planner's real-operator costing.

The race never times anything at scale: like the physical planner, it
executes each surviving candidate's plan on a pricing stand-in (capped
physical rows, full logical sizes) under a silent tracer, so the
"estimate" *is* a real run's cycle count — including the legacy EPC
paging terms, which is where rewrites that shrink enclave residency win
big on SGXv1-class machines.

Two costing rules distinguish a rewritten plan from the reference arm:

* a rewritten plan loads **only the base tables it reads** (an
  eliminated join's dimension table stops paying enclave residency);
* its physical operator is the template's historical static plan
  (RHO-unrolled at the template's threads), with the rewrite's own
  SET-style knob hints applied on top — so reference vs rewrite is an
  apples-to-apples comparison of logical shape, not a physical-planner
  rematch.

Before pricing, candidates are ordered by an analytic proxy (estimated
intermediate bytes from the cardinality model in
:mod:`repro.planner.stats`, corrected by the Q-error tracker's observed
actuals).  With today's hand-sized candidate sets the proxy prunes
nothing — every survivor is priced — but it is the hook through which
cardinality feedback reaches costing, and the per-decision
``rewrite.qerror`` events show its error shrinking as proofs observe
executed cardinalities.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.cache.keys import query_profile_key
from repro.errors import ConfigurationError
from repro.core.queries.plan import FilterStep, JoinStep, QueryPlan
from repro.machine import SimMachine
from repro.planner.candidates import PlanCandidate, static_physical
from repro.planner.costing import (
    PRICING_ROW_CAP,
    PRICING_SEED,
    PRICING_SF_CAP,
    estimate_candidate,
    sized_run,
)
from repro.planner.standin import standin_tables
from repro.planner.stats import (
    QErrorTracker,
    estimate_plan_cardinalities,
    tpch_base_rows,
)
from repro.reuse import profiled
from repro.rewrite.candidates import (
    RewriteCandidate,
    base_tables,
    generate_rewrites,
)
from repro.rewrite.config import ACTIVE_MODES, validate_mode
from repro.rewrite.prove import ProofResult, prove_candidate
from repro.trace import current_tracer
from repro.trace.breakdown import (
    REWRITE_PROVED,
    REWRITE_QERROR,
    REWRITE_RACE,
    REWRITE_REJECTED,
    REWRITE_WINNER,
)

#: Bytes per integer-coded column value (the executor's representation).
_VALUE_BYTES = 4


@dataclasses.dataclass(frozen=True)
class RewriteEstimate:
    """One proven rewrite's analytical price."""

    candidate: RewriteCandidate
    physical: PlanCandidate
    cycles: float
    seconds: float
    working_set_bytes: int
    proxy_bytes: float = 0.0  # the cardinality model's screening cost


@dataclasses.dataclass(frozen=True)
class RewriteDecision:
    """Everything one template's rewrite pass decided.

    ``winner`` is set only when a proven rewrite beat the reference's
    priced service time; in ``prove`` mode nothing is raced and both
    ``ranked`` and ``winner`` stay empty.
    """

    template_name: str
    query: str
    mode: str
    proofs: Tuple[ProofResult, ...] = ()
    reference: Optional[object] = None  # CandidateEstimate of the reference
    ranked: Tuple[RewriteEstimate, ...] = ()
    winner: Optional[RewriteEstimate] = None
    q_error_raw: float = 1.0  # analytic estimates vs executed actuals
    q_error_corrected: float = 1.0  # after feedback (1.0 once observed)

    @property
    def proved(self) -> Tuple[ProofResult, ...]:
        return tuple(p for p in self.proofs if p.accepted)

    @property
    def rejected(self) -> Tuple[ProofResult, ...]:
        return tuple(p for p in self.proofs if not p.accepted)

    @property
    def speedup(self) -> float:
        """Reference seconds over winner seconds (1.0 without a winner)."""
        if self.winner is None or self.reference is None:
            return 1.0
        return self.reference.seconds / self.winner.seconds


def proxy_cost_bytes(
    plan: QueryPlan,
    query: str,
    scale_factor: float,
    tracker: Optional[QErrorTracker] = None,
) -> float:
    """The screening proxy: estimated intermediate bytes of ``plan``.

    Sums estimated output bytes over every producing step, using the
    analytic cardinality model corrected by the tracker's observed
    actuals.  Cheap (no execution), and exactly as good as the
    cardinality estimates feeding it — which is the point.
    """
    estimates = estimate_plan_cardinalities(plan, tpch_base_rows(scale_factor))
    total = 0.0
    for step in plan.steps:
        output = getattr(step, "output", None)
        if output is None:
            continue
        rows = estimates[output]
        if tracker is not None:
            rows = tracker.corrected(query, output, rows)
        if isinstance(step, FilterStep):
            width = len(step.keep)
        elif isinstance(step, JoinStep):
            width = max(1, len(step.keep_build) + len(step.keep_probe))
        else:  # pragma: no cover - only producing steps reach here
            width = 1
        total += rows * width * _VALUE_BYTES
    return total


def estimate_rewrite(
    machine: SimMachine,
    setting,
    template,
    rewrite: RewriteCandidate,
    *,
    pricing_seed: int = PRICING_SEED,
) -> RewriteEstimate:
    """Price ``rewrite`` for ``template`` under ``setting``.

    The same silent stand-in run and sizing charge as
    :func:`repro.planner.costing.estimate_candidate` (one
    :func:`~repro.planner.costing.sized_run`, same caps), memoized under
    its own ``rewrite-estimate`` memo kind; it executes the *rewritten*
    plan under :func:`static_physical`, loads only the base tables that
    plan reads, and honours the candidate's pipelining flag.
    """
    physical = static_physical(template, rewrite)
    estimate = profiled(
        lambda: query_profile_key(
            kind="rewrite-estimate",
            template=template,
            setting=setting,
            candidate={
                "physical": physical,
                "rewrite": rewrite.signature(),
            },
            pricing_seed=pricing_seed,
            row_cap=PRICING_ROW_CAP,
            sf_cap=PRICING_SF_CAP,
            params=machine.params,
            spec=machine.spec,
        ),
        lambda: _run_rewrite_estimate(
            machine, setting, template, rewrite, physical, pricing_seed
        ),
    )
    return RewriteEstimate(
        candidate=rewrite,
        physical=physical,
        cycles=float(estimate["cycles"]),
        seconds=float(estimate["seconds"]),
        working_set_bytes=int(estimate["working_set_bytes"]),
        proxy_bytes=float(estimate["proxy_bytes"]),
    )


def _run_rewrite_estimate(
    machine: SimMachine,
    setting,
    template,
    rewrite: RewriteCandidate,
    physical: PlanCandidate,
    pricing_seed: int,
) -> Dict[str, float]:
    """Price ``rewrite``'s plan once on the pricing stand-in, loading only
    the base tables it reads."""
    plan = rewrite.plan()
    tables, _ = standin_tables(
        template, pricing_seed, PRICING_ROW_CAP, PRICING_SF_CAP
    )
    estimate = sized_run(
        machine,
        setting,
        template,
        physical,
        {name: tables[name] for name in base_tables(plan)},
        plan=plan,
        pipelined=rewrite.pipelined,
    )
    return {
        "cycles": estimate["cycles"],
        "seconds": estimate["seconds"],
        "working_set_bytes": estimate["working_set_bytes"],
        "proxy_bytes": float(
            proxy_cost_bytes(plan, template.query, template.scale_factor)
        ),
    }


def plan_rewrites(
    template,
    mode: str,
    machine: Optional[SimMachine] = None,
    setting=None,
    *,
    tracker: Optional[QErrorTracker] = None,
) -> RewriteDecision:
    """Generate, prove, and (mode permitting) race ``template``'s rewrites.

    The subsystem's one entry point: ``prove`` stops after the
    equivalence proofs, ``race``/``learned`` additionally price the
    survivors against the reference arm.  Emits ``rewrite.*`` trace
    events as it goes — callers only reach this function when rewriting
    is active, so an off session records no rewrite bytes at all.
    """
    validate_mode(mode)
    if mode not in ACTIVE_MODES:
        raise ConfigurationError(
            "plan_rewrites must not be called with mode 'off'"
        )
    tracer = current_tracer()
    candidates = generate_rewrites(template)
    if not candidates:
        return RewriteDecision(
            template_name=template.name, query="", mode=mode
        )
    query = template.query
    if tracker is None:
        tracker = QErrorTracker()
    reference_plan_cards = estimate_plan_cardinalities(
        _reference_plan(query), tpch_base_rows(template.scale_factor)
    )
    tracker.register(query, reference_plan_cards)

    proofs = []
    for candidate in candidates:
        proof = prove_candidate(template, candidate)
        proofs.append(proof)
        if tracer.enabled:
            if proof.accepted:
                tracer.event(
                    REWRITE_PROVED,
                    {
                        "template": template.name,
                        "query": query,
                        "rewrite": candidate.name,
                        "kind": candidate.kind,
                        "digest": proof.digest[:16],
                        "rows": proof.rows,
                    },
                )
            else:
                tracer.event(
                    REWRITE_REJECTED,
                    {
                        "template": template.name,
                        "query": query,
                        "rewrite": candidate.name,
                        "kind": candidate.kind,
                        "reason": proof.reason,
                    },
                )
    # Every proof run executed the reference plan for real: feed its
    # per-step cardinalities back into the estimate tracker and log the
    # decision's Q-error before/after the correction.
    actuals = next(p.actual_cardinalities for p in proofs)
    raw_worst = _raw_worst(tracker, query, actuals)
    tracker.observe(query, actuals)
    corrected_worst = tracker.corrected_worst(query)
    if tracer.enabled:
        tracer.event(
            REWRITE_QERROR,
            {
                "template": template.name,
                "query": query,
                "max_q_error_raw": raw_worst,
                "max_q_error_corrected": corrected_worst,
                "steps": len(actuals),
            },
        )
    if mode == "prove":
        return RewriteDecision(
            template_name=template.name,
            query=query,
            mode=mode,
            proofs=tuple(proofs),
            q_error_raw=raw_worst,
            q_error_corrected=corrected_worst,
        )

    if machine is None:
        machine = SimMachine()
    reference_physical = static_physical(template)
    reference = estimate_candidate(
        machine, setting, template, reference_physical
    )
    survivors = [p.candidate for p in proofs if p.accepted]
    # Screening order: the cardinality proxy, corrected by feedback.
    survivors.sort(
        key=lambda c: (
            proxy_cost_bytes(
                c.plan(), query, template.scale_factor, tracker
            ),
            c.name,
        )
    )
    estimates = []
    for candidate in survivors:
        estimate = estimate_rewrite(machine, setting, template, candidate)
        estimates.append(estimate)
        if tracer.enabled:
            tracer.event(
                REWRITE_RACE,
                {
                    "template": template.name,
                    "query": query,
                    "rewrite": candidate.name,
                    "seconds": estimate.seconds,
                    "working_set_bytes": estimate.working_set_bytes,
                    "reference_seconds": reference.seconds,
                },
            )
    ranked = tuple(
        sorted(estimates, key=lambda e: (e.seconds, e.candidate.name))
    )
    winner = None
    if ranked and ranked[0].seconds < reference.seconds:
        winner = ranked[0]
        if tracer.enabled:
            tracer.event(
                REWRITE_WINNER,
                {
                    "template": template.name,
                    "query": query,
                    "rewrite": winner.candidate.name,
                    "kind": winner.candidate.kind,
                    "seconds": winner.seconds,
                    "reference_seconds": reference.seconds,
                    "speedup": reference.seconds / winner.seconds,
                },
            )
    return RewriteDecision(
        template_name=template.name,
        query=query,
        mode=mode,
        proofs=tuple(proofs),
        reference=reference,
        ranked=ranked,
        winner=winner,
        q_error_raw=raw_worst,
        q_error_corrected=corrected_worst,
    )


def _reference_plan(query: str) -> QueryPlan:
    from repro.core.queries.tpch_queries import TPCH_QUERIES

    return TPCH_QUERIES[query]()


def _raw_worst(
    tracker: QErrorTracker, query: str, actuals
) -> float:
    """Max analytic Q-error for ``query`` given fresh ``actuals``,
    without mutating the tracker (the 'before' of the decision log)."""
    from repro.planner.stats import q_error

    worst = 1.0
    for step, actual in actuals:
        estimate = tracker.estimates.get((query, step))
        if estimate is None:
            continue
        worst = max(worst, q_error(estimate, actual))
    return worst
