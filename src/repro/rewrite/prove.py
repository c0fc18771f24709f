"""Exact equivalence proofs: execute rewrites for real, compare bags.

A rewrite candidate is admitted to the race only after this module has
*executed* both the reference plan and the candidate plan — through the
real :class:`~repro.core.queries.executor.QueryExecutor`, over the same
physical stand-in rows the catalog's pricing runs use — and shown their
witness bags (the final tables' columns, handed over as one
:class:`~repro.backends.equivalence.ColumnBag` each) identical under
:func:`~repro.backends.equivalence.assert_equivalent` (columns aligned
by the final tables' names, values quantized, row order free, duplicates
preserved).  Nothing is assumed: a candidate whose bag differs (a value
in the wrong column included), or whose plan fails to execute at all,
is rejected with the first differing row (or the error) as the reason.

The proof runs the *witness-widened* plan twins (see
:mod:`repro.rewrite.candidates`): same filters and joins, wider ``keep``
lists so the final table identifies surviving rows across differently
shaped plans.  As a harness self-check, the executed reference count is
also compared against the plain-numpy ground truth of
:func:`~repro.core.queries.tpch_queries.reference_count`.

Proof outcomes are pure functions of (query, candidate, seed, caps) and
are memoized in-process; trace events are the caller's business (see
:func:`repro.rewrite.race.plan_rewrites`), so memoization never changes
what a traced run records.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.backends.equivalence import ColumnBag, assert_equivalent
from repro.core.queries.plan import QueryPlan
from repro.core.queries.tpch_queries import reference_count
from repro.enclave.runtime import ExecutionSetting
from repro.errors import EquivalenceError, ReproError
from repro.planner.candidates import static_physical
from repro.planner.standin import run_silently
from repro.rewrite.candidates import (
    RewriteCandidate,
    base_tables,
    reference_proof_plan,
)
from repro.tables import generate_tpch
from repro.tables.table import Table

#: The proof stand-in's seed and physical caps.  Same seed as every
#: pricing stand-in (proofs are part of the plan, not of the measured
#: run); the caps match the catalog's *quick* fidelity — a much larger
#: sample than the pricing cap, because a proof wants collisions,
#: duplicates, and all three Q19 disjuncts populated.
PROOF_SEED = 13
PROOF_SF_CAP = 0.01


@dataclasses.dataclass(frozen=True)
class ProofResult:
    """The outcome of one candidate's equivalence proof."""

    candidate: RewriteCandidate
    accepted: bool
    digest: str = ""  # shared canonical bag digest when accepted
    reason: str = ""  # why the candidate was rejected otherwise
    rows: int = 0  # witness rows compared (physical)
    count: int = 0  # the candidate plan's executed count(*)
    #: Executed output cardinalities (logical rows) per reference-plan
    #: step, from the reference proof run — the Q-error machinery's
    #: ground truth.
    actual_cardinalities: Tuple[Tuple[str, float], ...] = ()


_MEMO: Dict[Tuple[str, str, float, float], ProofResult] = {}


def _witness_bag(
    namespace: Dict[str, Table], plan: QueryPlan
) -> Tuple[Tuple[str, ...], ColumnBag]:
    """The final pre-count table's column names and its columns' bag."""
    final = namespace[plan.steps[-1].source]
    names = tuple(final.column_names)
    return names, ColumnBag([final[name] for name in names])


def _run_proof_plan(
    template,
    plan: QueryPlan,
    tables: Dict[str, Table],
    candidate: RewriteCandidate,
) -> Tuple[Tuple[str, ...], ColumnBag, int, Dict[str, Table]]:
    """Execute ``plan`` for real on the plain CPU; witness column names,
    witness bag, count and namespace.

    Proofs are about results, not cycles: the plain-CPU setting and the
    silent run keep them fast and invisible to any enclave or trace
    accounting.  The plan runs under :func:`static_physical` with the
    candidate's pipelining flag, over only the base tables it reads.
    """
    run = run_silently(
        None,
        ExecutionSetting.plain_cpu(),
        template,
        static_physical(template, candidate),
        {name: tables[name] for name in base_tables(plan)},
        plan=plan,
        pipelined=candidate.pipelined,
    )
    names, bag = _witness_bag(run.namespace, plan)
    return names, bag, run.result.count, run.namespace


def prove_candidate(
    template, candidate: RewriteCandidate, *, sf_cap: float = PROOF_SF_CAP
) -> ProofResult:
    """Prove (or refute) ``candidate`` against ``template``'s reference.

    Deterministic and silent; memoized on (query, candidate, scale,
    caps) so serving runs that plan the same template repeatedly pay for
    one proof execution.
    """
    key = (
        template.query,
        candidate.name,
        float(template.scale_factor),
        float(sf_cap),
    )
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    data = generate_tpch(
        template.scale_factor, seed=PROOF_SEED, physical_sf_cap=sf_cap
    )
    tables = data.named
    reference_plan = reference_proof_plan(template.query)
    ref_columns, ref_rows, ref_count, ref_namespace = _run_proof_plan(
        template, reference_plan, tables, _reference_stub(template.query)
    )
    truth = reference_count(data, template.query)
    if ref_count != truth:
        raise EquivalenceError(
            f"{template.query}: witness-widened reference counted "
            f"{ref_count}, plain-numpy ground truth says {truth} — the "
            "proof harness itself is broken"
        )
    actuals = tuple(
        (name, float(table.logical_rows))
        for name, table in ref_namespace.items()
        if name not in tables
    )
    try:
        cand_columns, cand_rows, cand_count, _ = _run_proof_plan(
            template, candidate.proof_plan(), tables, candidate
        )
        digest = assert_equivalent(
            {"reference": ref_rows, candidate.name: cand_rows},
            columns={"reference": ref_columns, candidate.name: cand_columns},
            context=f"{template.query} rewrite {candidate.name!r}",
        )
    except ReproError as error:
        result = ProofResult(
            candidate=candidate,
            accepted=False,
            reason=str(error),
            rows=len(ref_rows),
            actual_cardinalities=actuals,
        )
        _MEMO[key] = result
        return result
    result = ProofResult(
        candidate=candidate,
        accepted=True,
        digest=digest,
        rows=len(ref_rows),
        count=cand_count,
        actual_cardinalities=actuals,
    )
    _MEMO[key] = result
    return result


def _reference_stub(query: str) -> RewriteCandidate:
    """A no-op candidate shell so the reference runs through the same
    executor wiring (static physical plan, materializing scheme)."""
    return RewriteCandidate(
        name="reference",
        query=query,
        kind="reference",
        description="the template's own logical plan",
        plan=lambda: reference_proof_plan(query),
        proof_plan=lambda: reference_proof_plan(query),
    )


def actual_cardinalities(template) -> Tuple[Tuple[str, float], ...]:
    """Executed per-step output cardinalities of ``template``'s plan.

    Runs (or reuses) the reference proof execution; the returned pairs
    are (step output name, logical rows) — the ground truth the Q-error
    tracker compares estimates against.
    """
    stub = _reference_stub(template.query)
    result = prove_candidate(template, stub)
    return result.actual_cardinalities
