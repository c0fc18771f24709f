"""Candidate physical plans: what the planner may choose between.

A :class:`PlanCandidate` fixes every physical decision one query template
leaves open: the join algorithm (the paper's five, with RHO in both code
variants — Sec. 4's headline result is that their ranking flips between
native, SGXv2, and SGXv1 execution), the code variant, the thread count,
the enclave sizing strategy (statically committed heap vs EDMM growth,
Fig. 11), and the radix partitioning fan-out.

Templates may pin any subset of these via :class:`PlanHints` (wl05's
"static-native" arm forces the plan a SGX-oblivious optimizer would pick);
:func:`enumerate_candidates` respects hints by filtering the space, and
:func:`static_candidate` reproduces the repo's historical hardcoded choice
exactly (``RadixJoin`` at the catalog's variant), which is what keeps
``--planner static`` byte-identical to pre-planner builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.joins import (
    CrkJoin,
    IndexNestedLoopJoin,
    JoinAlgorithm,
    ParallelHashJoin,
    RadixJoin,
    SortMergeJoin,
)
from repro.enclave.sync import LockKind
from repro.errors import ConfigurationError
from repro.memory.access import CodeVariant

#: Join algorithm name -> class, in the paper's Fig. 3 order.
JOIN_ALGORITHMS = {
    "CrkJoin": CrkJoin,
    "PHT": ParallelHashJoin,
    "RHO": RadixJoin,
    "MWAY": SortMergeJoin,
    "INL": IndexNestedLoopJoin,
}

#: Enclave sizing strategies (Fig. 11): commit the heap up front and touch
#: pages at init, or grow on demand through EDMM (~47x more cycles/page).
SIZINGS = ("static", "edmm")

#: The scan pseudo-algorithm (scans have one kernel, always SIMD).
SCAN_ALGORITHM = "SCAN"


@dataclass(frozen=True)
class PlanHints:
    """Optional pins a template puts on the candidate space.

    Every field left ``None`` stays a free dimension; a set field removes
    all candidates that disagree.  Hints pin, they do not invent: hinting
    an unknown algorithm raises at template construction.
    """

    algorithm: Optional[str] = None
    variant: Optional[CodeVariant] = None
    threads: Optional[int] = None
    sizing: Optional[str] = None
    fanout: Optional[int] = None
    spill: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.algorithm is not None and self.algorithm not in (
            *JOIN_ALGORITHMS,
            SCAN_ALGORITHM,
        ):
            known = ", ".join((*JOIN_ALGORITHMS, SCAN_ALGORITHM))
            raise ConfigurationError(
                f"unknown hinted algorithm {self.algorithm!r}; known: {known}"
            )
        if self.sizing is not None and self.sizing not in SIZINGS:
            raise ConfigurationError(
                f"unknown hinted sizing {self.sizing!r}; known: {SIZINGS}"
            )
        if self.threads is not None and self.threads < 1:
            raise ConfigurationError("hinted threads must be >= 1")

    def admits(self, candidate: "PlanCandidate") -> bool:
        return (
            (self.algorithm is None or candidate.algorithm == self.algorithm)
            and (self.variant is None or candidate.variant is self.variant)
            and (self.threads is None or candidate.threads == self.threads)
            and (self.sizing is None or candidate.sizing == self.sizing)
            and (self.fanout is None or candidate.fanout == self.fanout)
            and (self.spill is None or candidate.spill == self.spill)
        )


@dataclass(frozen=True)
class PlanCandidate:
    """One fully decided physical plan for a template."""

    algorithm: str
    variant: CodeVariant = CodeVariant.NAIVE
    threads: int = 1
    sizing: str = "static"
    fanout: Optional[int] = None  # None: the algorithm's auto fan-out
    #: Serve through the sealed spill path (grace-partitioned execution
    #: against a storage budget) instead of holding the working set in
    #: EPC.  Only enumerated when a ``--storage`` budget is in play.
    spill: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in JOIN_ALGORITHMS and self.algorithm not in (
            SCAN_ALGORITHM,
        ):
            known = ", ".join((*JOIN_ALGORITHMS, SCAN_ALGORITHM))
            raise ConfigurationError(
                f"unknown plan algorithm {self.algorithm!r}; known: {known}"
            )
        if self.sizing not in SIZINGS:
            raise ConfigurationError(
                f"unknown sizing {self.sizing!r}; known: {SIZINGS}"
            )
        if self.threads < 1:
            raise ConfigurationError("a plan candidate needs >= 1 thread")

    def label(self, default_threads: Optional[int] = None) -> str:
        """Short arm name for traces and reports, e.g. ``RHO-unrolled``.

        Non-default dimensions append suffixes (``@8t``, ``+edmm``,
        ``/f6``) so every distinct candidate has a distinct label.
        """
        parts = [self.algorithm]
        if self.variant is CodeVariant.UNROLLED:
            parts.append("-unrolled")
        elif self.variant is CodeVariant.SIMD and self.algorithm != SCAN_ALGORITHM:
            parts.append("-simd")
        if default_threads is not None and self.threads != default_threads:
            parts.append(f"@{self.threads}t")
        if self.fanout is not None:
            parts.append(f"/f{self.fanout}")
        if self.sizing != "static":
            parts.append(f"+{self.sizing}")
        if self.spill:
            parts.append("+spill")
        return "".join(parts)


def build_join(
    candidate: PlanCandidate,
    *,
    queue_kind: LockKind = LockKind.LOCK_FREE,
    store=None,
    budget_bytes: Optional[float] = None,
) -> JoinAlgorithm:
    """Instantiate the join operator a candidate describes.

    A spill candidate becomes a grace-partitioned join against the given
    :class:`~repro.storage.SealedStore` and budget — both are required,
    since a spill plan without a storage budget has nothing to spill to.
    """
    cls = JOIN_ALGORITHMS.get(candidate.algorithm)
    if cls is None:
        raise ConfigurationError(
            f"candidate {candidate.label()!r} is not a join plan"
        )
    if candidate.spill:
        if store is None or budget_bytes is None:
            raise ConfigurationError(
                f"spill candidate {candidate.label()!r} needs a sealed "
                "store and a storage budget"
            )
        from repro.storage.spill import GraceHashJoin

        return GraceHashJoin(
            candidate.variant, store=store, budget_bytes=budget_bytes
        )
    if cls is RadixJoin:
        return RadixJoin(
            candidate.variant,
            radix_bits=candidate.fanout,
            queue_kind=queue_kind,
        )
    if cls is CrkJoin:
        return CrkJoin(candidate.variant, radix_bits=candidate.fanout)
    return cls(candidate.variant)


def static_candidate(template, catalog_variant: CodeVariant) -> PlanCandidate:
    """The repo's historical hardcoded choice for ``template``.

    Exactly what :class:`~repro.workload.jobs.JobCatalog` always executed:
    ``RadixJoin`` at the catalog's variant for joins and TPC-H plans, the
    SIMD bitvector scan for scans.  ``--planner static`` routes every
    template through this, which is why its outputs are byte-identical to
    pre-planner builds.
    """
    kind = template.kind.value
    if kind == "scan":
        return PlanCandidate(
            SCAN_ALGORITHM, CodeVariant.SIMD, threads=template.threads
        )
    return PlanCandidate("RHO", catalog_variant, threads=template.threads)


def static_physical(template, rewrite=None) -> PlanCandidate:
    """The physical plan a logical rewrite is priced and proven under.

    The template's historical static choice (RHO-unrolled at the
    template's threads) with the rewrite's knob hints applied: a hinted
    algorithm or fan-out must be raced and proven *at* that hint, and
    any admissible physical plan computes the same bag.  ``rewrite``
    is a :class:`~repro.rewrite.candidates.RewriteCandidate` or ``None``
    (the reference arm).
    """
    algorithm = "RHO"
    fanout = None
    sizing = "static"
    threads = template.threads
    if rewrite is not None and rewrite.hints is not None:
        if rewrite.hints.algorithm is not None:
            algorithm = rewrite.hints.algorithm
        if rewrite.hints.fanout is not None:
            fanout = rewrite.hints.fanout
        if rewrite.hints.sizing is not None:
            sizing = rewrite.hints.sizing
        if rewrite.hints.threads is not None:
            threads = rewrite.hints.threads
    return PlanCandidate(
        algorithm,
        CodeVariant.UNROLLED,
        threads=threads,
        sizing=sizing,
        fanout=fanout,
    )


#: The default join arm set of the issue: the paper's five algorithms at
#: their naive variants plus the unrolled RHO (the headline optimization).
_DEFAULT_JOIN_ARMS: Tuple[Tuple[str, CodeVariant], ...] = (
    ("PHT", CodeVariant.NAIVE),
    ("RHO", CodeVariant.NAIVE),
    ("RHO", CodeVariant.UNROLLED),
    ("MWAY", CodeVariant.NAIVE),
    ("INL", CodeVariant.NAIVE),
    ("CrkJoin", CodeVariant.NAIVE),
)


def enumerate_candidates(
    template,
    *,
    cores: Optional[int] = None,
    thread_options: Tuple[int, ...] = (),
    fanouts: Tuple[Optional[int], ...] = (None,),
    sizings: Tuple[str, ...] = ("static",),
    spills: Tuple[bool, ...] = (False,),
) -> Tuple[PlanCandidate, ...]:
    """All candidates for ``template``, after applying its ``plan_hints``.

    ``thread_options`` adds thread counts beyond the template's own (each
    capped at ``cores``); ``fanouts`` adds explicit radix fan-outs for the
    partitioned joins (``None`` keeps each algorithm's auto choice);
    ``sizings`` widens the enclave sizing dimension.  Scans and TPC-H
    plans enumerate the dimensions that apply to them (scans have a single
    kernel; TPC-H plans vary the join algorithm of their join steps).
    ``spills=(False, True)`` adds a sealed-spill twin of each hash-join
    arm (PHT only: the grace-partitioned spill operator is a hash join,
    so spilling other algorithms would change their identity); the
    default ``(False,)`` keeps the space identical to pre-storage builds.
    """
    kind = template.kind.value
    hints: Optional[PlanHints] = getattr(template, "plan_hints", None)
    threads_seen = dict.fromkeys(
        (template.threads, *thread_options)
    )  # insertion-ordered, template's own count first
    thread_counts = [
        t for t in threads_seen if cores is None or t <= cores
    ] or [template.threads]

    candidates = []
    if kind == "scan":
        for threads in thread_counts:
            candidates.append(
                PlanCandidate(
                    SCAN_ALGORITHM, CodeVariant.SIMD, threads=threads
                )
            )
    else:
        for algorithm, variant in _DEFAULT_JOIN_ARMS:
            partitioned = algorithm in ("RHO", "CrkJoin")
            spill_options = spills if algorithm == "PHT" else (False,)
            for threads in thread_counts:
                for sizing in sizings:
                    for fanout in fanouts if partitioned else (None,):
                        for spill in spill_options:
                            candidates.append(
                                PlanCandidate(
                                    algorithm,
                                    variant,
                                    threads=threads,
                                    sizing=sizing,
                                    fanout=fanout,
                                    spill=spill,
                                )
                            )
    if hints is not None:
        admitted = tuple(c for c in candidates if hints.admits(c))
        if not admitted:
            raise ConfigurationError(
                f"template {template.name!r}: plan_hints admit no candidate"
            )
        return admitted
    return tuple(candidates)
