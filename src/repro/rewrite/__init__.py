"""Logical query rewriting: candidate search, exact proofs, priced races.

The planner below this package chooses *physical* plans (operator,
variant, threads, sizing) for a fixed logical shape.  This package adds
the missing logical dimension on top: per TPC-H template it generates
rewrite candidates (join reorders, redundant-join elimination standing in
for decorrelation, predicate pushdown, pipeline fusion, knob hints),
**proves** each one bag-identical to the reference plan by executing both
through the real executor and comparing canonical digests
(:mod:`repro.backends.equivalence` — exact, never sampled), and races
only the survivors through the planner's real-operator costing.  Proof
failures are never raced; they are traced as ``rewrite.rejected``.

Cardinality Q-error closes the loop: proofs yield executed per-step
cardinalities, a :class:`~repro.planner.stats.QErrorTracker` replaces
analytic estimates with observations, and the race's screening order
(and ``explain``'s ranked-rewrites section) sharpen as templates get
observed — the ``rewrite.qerror`` events show the worst error falling.

Everything is opt-in via the ``rewrite`` field of the ambient
:class:`~repro.runconfig.RunConfig` (the ``--rewrite
{off,prove,race,learned}`` CLI flag); with it off the serving path is
byte-identical to the pre-rewrite repo.
"""

from repro.rewrite.candidates import (
    REWRITE_KINDS,
    RewriteCandidate,
    base_tables,
    generate_rewrites,
    reference_proof_plan,
)
from repro.rewrite.config import (
    ACTIVE_MODES,
    REWRITE_MODES,
    validate_mode,
)
from repro.rewrite.prove import (
    PROOF_SEED,
    PROOF_SF_CAP,
    ProofResult,
    actual_cardinalities,
    prove_candidate,
)
from repro.rewrite.race import (
    RewriteDecision,
    RewriteEstimate,
    estimate_rewrite,
    plan_rewrites,
    proxy_cost_bytes,
    static_physical,
)

__all__ = [
    "ACTIVE_MODES",
    "PROOF_SEED",
    "PROOF_SF_CAP",
    "ProofResult",
    "REWRITE_KINDS",
    "REWRITE_MODES",
    "RewriteCandidate",
    "RewriteDecision",
    "RewriteEstimate",
    "actual_cardinalities",
    "base_tables",
    "estimate_rewrite",
    "generate_rewrites",
    "plan_rewrites",
    "prove_candidate",
    "proxy_cost_bytes",
    "reference_proof_plan",
    "static_physical",
    "validate_mode",
]
