"""The breakdown reporter: turn any trace into the paper's decompositions.

The paper's root-cause figures decompose run time rather than just report
it: Fig. 6 splits a join into phases, Fig. 11 attributes the EDMM collapse
to page growth.  This module reproduces both styles generically from the
records any traced run emits:

* :func:`serving_breakdown` — aggregates the scheduler's ``query.dispatch``
  events into **queueing vs. base service vs. each dispatch term**
  (:data:`DISPATCH_TERMS`: interference, sealed spill, degradation, EDMM
  and AEX penalties) seconds, the serving-layer analogue of Fig. 6: a
  completed query's latency is exactly its final dispatch's buckets.
* :func:`phase_breakdown` — sums operator-phase spans per phase name, the
  literal Fig. 6 decomposition for any traced operator run.
* :func:`serving_runs` — splits a multi-run trace (e.g. one exported by
  ``sgxv2-bench wl01 --trace DIR``) at its ``serving.run_start`` markers so
  each serving configuration gets its own breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.trace.records import Event, Span
from repro.trace.exporters import _records

#: Event names the scheduler emits (kept in one place for reporters).
RUN_START = "serving.run_start"
RUN_END = "serving.run_end"
ARRIVAL = "query.arrival"
DISPATCH = "query.dispatch"
EDMM_OVERFLOW = "query.edmm_overflow"
FINISH = "query.finish"

#: The dispatch-time service decomposition's additive terms, as
#: ``query.dispatch`` attrs, in the order the scheduler applies them:
#: interference on every dispatch, then the penalty stages (sealed spill,
#: graceful degradation, EDMM overflow, AEX inflation).  A completed
#: query's latency is its final dispatch's ``queue_wait_s`` and
#: ``base_service_s`` plus these terms.
DISPATCH_TERMS = (
    "interference_s",
    "spill_penalty_s",
    "degraded_penalty_s",
    "edmm_penalty_s",
    "aex_penalty_s",
)

#: Fault/resilience event names (emitted only under an active fault plan
#: or resilience policy — never in an un-faulted run's trace).
FAULT_AEX = "fault.aex_storm"
FAULT_CRASH = "fault.enclave_crash"
FAULT_EDMM_DENIED = "fault.edmm_denied"
DEGRADED = "resilience.degraded"
RETRY = "resilience.retry"
SHED = "resilience.shed"
BREAKER_OPEN = "resilience.breaker_open"
ATTEMPT_FAILED = "query.attempt_failed"
FAILED = "query.failed"

#: Planner event names (emitted only when a plan selector is installed —
#: never in a ``--planner static`` run's trace).
PLANNER_CHOICE = "planner.choice"
PLANNER_OBSERVE = "planner.observe"

#: Cluster event names (emitted only by the cluster scheduler — never in
#: a single-enclave run's trace).
ROUTE = "cluster.route"
SCALE = "cluster.scale"
FAILOVER = "cluster.failover"

#: Storage event names (emitted only when a ``--storage`` budget installs
#: the sealed spill path — never in a storage-less run's trace).
SPILL = "storage.spill"
FAULT_STORAGE_STALL = "fault.storage_stall"
FAULT_TORN_BLOCK = "fault.torn_block"

#: Backend event names (emitted only when an engine backend is active —
#: never in a ``--backend sim``/default run's trace).
BACKEND_ENVELOPE = "backend.envelope"
BACKEND_EQUIVALENCE = "backend.equivalence"

#: Rewrite event names (emitted only when query rewriting is active —
#: never in a ``--rewrite off``/default run's trace).
REWRITE_PROVED = "rewrite.proved"
REWRITE_REJECTED = "rewrite.rejected"
REWRITE_RACE = "rewrite.race"
REWRITE_WINNER = "rewrite.winner"
REWRITE_QERROR = "rewrite.qerror"


def _events(source, **match: Optional[str]) -> Iterator[Event]:
    """The events of ``source`` (a tracer or record iterable) whose attrs
    equal every ``match`` value; a ``None`` value matches any event."""
    wanted = [(key, value) for key, value in match.items() if value is not None]
    for record in _records(source):
        if not isinstance(record, Event):
            continue
        attrs = record.attrs
        for key, value in wanted:
            if attrs.get(key) != value:
                break
        else:
            yield record


@dataclass(frozen=True)
class ServingBreakdown:
    """Where the served queries' time went, in summed seconds.

    Queueing, base service, and one field per :data:`DISPATCH_TERMS` term.
    """

    queueing_s: float
    service_s: float
    interference_s: float
    spill_penalty_s: float
    degraded_penalty_s: float
    edmm_penalty_s: float
    aex_penalty_s: float
    dispatched: int
    completed: int

    @property
    def total_s(self) -> float:
        # This float order is load-bearing: a run that charges no spill,
        # degradation or AEX penalty sums exactly as wl01's pinned
        # report rows expect.
        return (
            self.queueing_s
            + self.service_s
            + self.edmm_penalty_s
            + self.interference_s
            + self.spill_penalty_s
            + self.degraded_penalty_s
            + self.aex_penalty_s
        )

    def fractions(self) -> Dict[str, float]:
        """Each bucket's share of the total (all zero for an empty trace).

        Buckets are named without the ``_s`` suffix: ``queueing``,
        ``service``, ``interference``, ``edmm_penalty`` and so on.
        """
        total = self.total_s
        seconds = {"queueing": self.queueing_s, "service": self.service_s}
        for term in DISPATCH_TERMS:
            seconds[term[: -len("_s")]] = getattr(self, term)
        return {
            bucket: value / total if total > 0 else 0.0
            for bucket, value in seconds.items()
        }

    def describe(self) -> str:
        """One line for report notes: shares of the total attributed time."""
        shares = ", ".join(
            f"{bucket.replace('_', ' ')} {share:.0%}"
            for bucket, share in self.fractions().items()
        )
        return (
            f"{self.completed} queries: {shares} "
            f"of {self.total_s:.2f} attributed seconds"
        )


def serving_breakdown(
    source,
    *,
    stream: Optional[str] = None,
    shard: Optional[str] = None,
) -> ServingBreakdown:
    """Aggregate a trace's dispatch/finish events into a time breakdown.

    ``source`` is a tracer or record iterable; ``stream`` restricts the
    aggregation to one stream's queries (per-tenant decompositions) and
    ``shard`` to one cluster shard's events (per-shard decompositions of
    a multiplexed trace — single-enclave events carry no shard attr and
    are excluded by any shard filter).
    """
    queueing = service = 0.0
    terms = dict.fromkeys(DISPATCH_TERMS, 0.0)
    dispatched = completed = 0
    for record in _events(source, stream=stream, shard=shard):
        if record.name == DISPATCH:
            attrs = record.attrs
            queueing += attrs.get("queue_wait_s", 0.0)
            service += attrs.get("base_service_s", 0.0)
            for term in DISPATCH_TERMS:
                terms[term] += attrs.get(term, 0.0)
            dispatched += 1
        elif record.name == FINISH:
            completed += 1
    return ServingBreakdown(
        queueing_s=queueing,
        service_s=service,
        dispatched=dispatched,
        completed=completed,
        **terms,
    )


@dataclass(frozen=True)
class FaultBreakdown:
    """Where a faulted run's *lost* time went, in summed seconds.

    The resilience analogue of :class:`ServingBreakdown`: instead of
    attributing served time to serving phases, it attributes the overhead
    a fault plan induced — retry waits, service time burned on aborted
    attempts, and enclave re-init downtime — plus the terminal outcomes.
    """

    retry_wait_s: float  # summed backoff delays before re-queued attempts
    wasted_service_s: float  # service burned on attempts that then failed
    downtime_s: float  # summed enclave teardown + re-init time
    retries: int
    failed: int
    shed: int
    breaker_openings: int
    degraded: int

    @property
    def lost_s(self) -> float:
        return self.retry_wait_s + self.wasted_service_s + self.downtime_s

    def describe(self) -> str:
        """One line for report notes: the fault plan's induced overhead."""
        return (
            f"{self.lost_s:.2f} s lost "
            f"(retry wait {self.retry_wait_s:.2f} s, "
            f"wasted service {self.wasted_service_s:.2f} s, "
            f"downtime {self.downtime_s:.2f} s); "
            f"{self.retries} retries, {self.failed} failed, "
            f"{self.shed} shed, {self.breaker_openings} breaker openings, "
            f"{self.degraded} degraded"
        )


def fault_breakdown(source, *, stream: Optional[str] = None) -> FaultBreakdown:
    """Aggregate a trace's fault/resilience events into a loss breakdown.

    ``source`` is a tracer or record iterable; ``stream`` restricts the
    aggregation to one stream's queries.  An un-faulted trace yields the
    all-zero breakdown (its fault events simply never occur).
    """
    retry_wait = wasted = downtime = 0.0
    retries = failed = shed = openings = degraded = 0
    for record in _events(source, stream=stream):
        if record.name == RETRY:
            retry_wait += record.attrs.get("delay_s", 0.0)
            retries += 1
        elif record.name == ATTEMPT_FAILED:
            wasted += record.attrs.get("wasted_s", 0.0)
        elif record.name == FAULT_CRASH:
            downtime += record.attrs.get("reinit_s", 0.0)
        elif record.name == FAILED:
            if record.attrs.get("outcome") == "shed":
                shed += 1
            else:
                failed += 1
        elif record.name == BREAKER_OPEN:
            openings += 1
        elif record.name == DEGRADED:
            degraded += 1
    return FaultBreakdown(
        retry_wait_s=retry_wait,
        wasted_service_s=wasted,
        downtime_s=downtime,
        retries=retries,
        failed=failed,
        shed=shed,
        breaker_openings=openings,
        degraded=degraded,
    )


@dataclass(frozen=True)
class PlanBreakdown:
    """What the planner chose during one serving run, per template.

    The planner analogue of :class:`FaultBreakdown`: counts every
    ``planner.choice`` by (template, arm), sums observed latencies per arm,
    and — when told what the oracle would have picked — reports how often
    the run's choices agreed with it.
    """

    mode: str  # the selector mode that produced the choices
    choices: Dict[str, Dict[str, int]]  # template -> arm -> picks
    observed_s: Dict[str, Dict[str, float]]  # template -> arm -> summed lat.
    observations: Dict[str, Dict[str, int]]  # template -> arm -> finishes

    @property
    def total_choices(self) -> int:
        return sum(sum(arms.values()) for arms in self.choices.values())

    def chosen_arm(self, template: str) -> str:
        """The arm picked most often for ``template`` (ties: first seen)."""
        arms = self.choices.get(template)
        if not arms:
            return ""
        return max(arms, key=lambda label: (arms[label],))

    def mean_latency_s(self, template: str, arm: str) -> float:
        """Mean observed latency of ``template`` served by ``arm``."""
        count = self.observations.get(template, {}).get(arm, 0)
        if not count:
            return 0.0
        return self.observed_s[template][arm] / count

    def agreement(self, oracle_arms: Dict[str, str]) -> float:
        """Fraction of choices matching ``oracle_arms``'s per-template pick.

        Templates absent from ``oracle_arms`` are ignored (the caller
        scopes the comparison to the templates it has oracle answers for).
        """
        matched = total = 0
        for template, arms in self.choices.items():
            oracle = oracle_arms.get(template)
            if oracle is None:
                continue
            for arm, picks in arms.items():
                total += picks
                if arm == oracle:
                    matched += picks
        return matched / total if total else 0.0

    def describe(self) -> str:
        """One line for report notes: choices per template."""
        parts = []
        for template in sorted(self.choices):
            arms = self.choices[template]
            summary = ", ".join(
                f"{label} x{arms[label]}" for label in sorted(arms)
            )
            parts.append(f"{template}: {summary}")
        return f"planner[{self.mode}] " + "; ".join(parts)


def plan_breakdown(source, *, template: Optional[str] = None) -> PlanBreakdown:
    """Aggregate a trace's ``planner.*`` events into a choice breakdown.

    ``source`` is a tracer or record iterable; ``template`` restricts the
    aggregation to one job template.  A static run (no selector) yields the
    empty breakdown — its planner events simply never occur.
    """
    mode = "static"
    choices: Dict[str, Dict[str, int]] = {}
    observed: Dict[str, Dict[str, float]] = {}
    observations: Dict[str, Dict[str, int]] = {}
    for record in _events(source, template=template):
        name = record.attrs.get("template")
        if record.name == PLANNER_CHOICE:
            mode = str(record.attrs.get("mode", mode))
            arm = str(record.attrs.get("arm", ""))
            per_template = choices.setdefault(str(name), {})
            per_template[arm] = per_template.get(arm, 0) + 1
        elif record.name == PLANNER_OBSERVE:
            arm = str(record.attrs.get("arm", ""))
            # The bandit's observed quantity is the charged service time;
            # older traces only carried end-to-end latency.
            latency = float(
                record.attrs.get(
                    "service_s", record.attrs.get("latency_s", 0.0)
                )
            )
            observed.setdefault(str(name), {})
            observed[str(name)][arm] = (
                observed[str(name)].get(arm, 0.0) + latency
            )
            observations.setdefault(str(name), {})
            observations[str(name)][arm] = (
                observations[str(name)].get(arm, 0) + 1
            )
    return PlanBreakdown(
        mode=mode,
        choices=choices,
        observed_s=observed,
        observations=observations,
    )


def phase_breakdown(
    source, *, category: str = "operator-phase", setting: Optional[str] = None
) -> Dict[str, float]:
    """Phase-name -> summed span duration (cycles) of one traced run.

    Mirrors :meth:`repro.exec.executor.ExecutionTrace.breakdown` but works
    on any exported trace: equal names are summed, insertion order is kept.
    ``setting`` filters spans to one execution setting's label.
    """
    result: Dict[str, float] = {}
    for record in _records(source):
        if not isinstance(record, Span) or record.category != category:
            continue
        if setting is not None and record.attrs.get("setting") != setting:
            continue
        result[record.name] = result.get(record.name, 0.0) + record.duration
    return result


@dataclass(frozen=True)
class ClusterBreakdown:
    """What the cluster's routing/elastic/failover layer did, in counts."""

    routed: int  # arrivals placed by the router
    diverted: int  # routed off-natural by a rebalance storm
    failovers: int  # re-routes away from a down shard
    scale_ups: int
    scale_downs: int
    shuffle_s: float  # summed cross-socket/-machine transfer seconds
    per_shard: Dict[str, int]  # shard label -> arrivals routed to it

    def describe(self) -> str:
        """One line for report notes: the routing layer's activity."""
        return (
            f"{self.routed} routed ({self.diverted} diverted, "
            f"{self.failovers} failovers), "
            f"{self.scale_ups} scale-ups, {self.scale_downs} scale-downs, "
            f"shuffle {self.shuffle_s:.2f} s across "
            f"{len(self.per_shard)} shards"
        )


def cluster_breakdown(source) -> ClusterBreakdown:
    """Aggregate a trace's ``cluster.*`` events into a routing breakdown.

    ``source`` is a tracer or record iterable.  A single-enclave trace
    yields the all-zero breakdown — its cluster events never occur.
    """
    routed = diverted = failovers = ups = downs = 0
    shuffle = 0.0
    per_shard: Dict[str, int] = {}
    for record in _events(source):
        if record.name == ROUTE:
            routed += 1
            shuffle += record.attrs.get("shuffle_s", 0.0)
            if record.attrs.get("diverted"):
                diverted += 1
            shard = str(record.attrs.get("shard", ""))
            per_shard[shard] = per_shard.get(shard, 0) + 1
        elif record.name == FAILOVER:
            failovers += int(record.attrs.get("queries", 1))
        elif record.name == SCALE:
            if record.attrs.get("direction") == "up":
                ups += 1
            else:
                downs += 1
    return ClusterBreakdown(
        routed=routed,
        diverted=diverted,
        failovers=failovers,
        scale_ups=ups,
        scale_downs=downs,
        shuffle_s=shuffle,
        per_shard=per_shard,
    )


@dataclass(frozen=True)
class StorageBreakdown:
    """What the sealed spill path did during one serving run.

    The storage analogue of :class:`FaultBreakdown`: every ``storage.spill``
    event contributes its spilled bytes and the priced seal/unseal/re-scan
    seconds; stalled/torn counts come from the storage fault events.  A run
    without a ``--storage`` budget yields the all-zero breakdown.
    """

    spills: int  # queries that took the spill path
    spilled_bytes: float  # summed bytes written to sealed runs
    seal_s: float  # summed seal + write-out seconds
    unseal_s: float  # summed read-back + unseal seconds
    stalled: int  # spills inflated by a STORAGE_STALL window
    torn: int  # attempts aborted by a torn sealed block

    @property
    def spill_s(self) -> float:
        """Total priced spill seconds (seal + unseal + re-scan I/O)."""
        return self.seal_s + self.unseal_s

    def describe(self) -> str:
        """One line for report notes: the spill path's priced activity."""
        return (
            f"{self.spills} spills, "
            f"{self.spilled_bytes / 1e6:.1f} MB sealed "
            f"(seal {self.seal_s:.2f} s, unseal {self.unseal_s:.2f} s), "
            f"{self.stalled} stalled, {self.torn} torn blocks"
        )


def storage_breakdown(
    source, *, shard: Optional[str] = None
) -> StorageBreakdown:
    """Aggregate a trace's ``storage.*`` events into a spill breakdown.

    ``source`` is a tracer or record iterable; ``shard`` restricts the
    aggregation to one cluster shard's spills (shard-local spill vs.
    re-shard shuffle is exactly this filter against the route events'
    ``shuffle_s``).  A storage-less trace yields the all-zero breakdown.
    """
    spills = stalled = torn = 0
    spilled_bytes = seal_s = unseal_s = 0.0
    for record in _events(source, shard=shard):
        if record.name == SPILL:
            spills += 1
            spilled_bytes += record.attrs.get("spilled_bytes", 0.0)
            seal_s += record.attrs.get("seal_s", 0.0)
            unseal_s += record.attrs.get("unseal_s", 0.0)
            if record.attrs.get("stalled"):
                stalled += 1
        elif record.name == FAULT_TORN_BLOCK:
            torn += 1
    return StorageBreakdown(
        spills=spills,
        spilled_bytes=spilled_bytes,
        seal_s=seal_s,
        unseal_s=unseal_s,
        stalled=stalled,
        torn=torn,
    )


@dataclass(frozen=True)
class BackendBreakdown:
    """What the engine-backend bridge did during one run.

    Aggregates the ``backend.*`` events: how many templates passed the
    cross-backend equivalence gate (and over how many result rows), and
    where the envelope put each engine-priced template's in-enclave
    seconds (init vs. penalized execution vs. EPC paging).  A default or
    ``--backend sim`` trace yields the all-zero breakdown.
    """

    gates_passed: int  # templates whose result bags matched the sim's
    gated_rows: int  # summed result rows the gates compared
    priced: int  # envelope pricings (one per engine-priced template)
    plain_s: float  # summed engine-at-logical-scale seconds
    init_s: float  # summed enclave heap pre-touch seconds
    execute_s: float  # summed penalized in-enclave execution seconds
    paging_s: float  # summed EPC overflow fault seconds

    @property
    def in_enclave_s(self) -> float:
        """Total engine-in-enclave seconds across priced templates."""
        return self.init_s + self.execute_s + self.paging_s

    def describe(self) -> str:
        """One line for report notes: the backend bridge's activity."""
        return (
            f"{self.gates_passed} equivalence gates over "
            f"{self.gated_rows} rows; {self.priced} envelope pricings "
            f"(init {self.init_s:.3f} s, exec {self.execute_s:.3f} s, "
            f"paging {self.paging_s:.3f} s)"
        )


def backend_breakdown(
    source, *, backend: Optional[str] = None
) -> BackendBreakdown:
    """Aggregate a trace's ``backend.*`` events into a bridge breakdown.

    ``source`` is a tracer or record iterable; ``backend`` restricts the
    aggregation to one engine mode's events (a multi-arm experiment can
    price sqlite and duckdb in one trace).  An engine-less trace yields
    the all-zero breakdown.
    """
    gates = rows = priced = 0
    plain_s = init_s = execute_s = paging_s = 0.0
    for record in _events(source, backend=backend):
        if record.name == BACKEND_EQUIVALENCE:
            gates += 1
            rows += int(record.attrs.get("rows", 0))
        elif record.name == BACKEND_ENVELOPE:
            priced += 1
            plain_s += record.attrs.get("plain_s", 0.0)
            init_s += record.attrs.get("init_s", 0.0)
            execute_s += record.attrs.get("execute_s", 0.0)
            paging_s += record.attrs.get("paging_s", 0.0)
    return BackendBreakdown(
        gates_passed=gates,
        gated_rows=rows,
        priced=priced,
        plain_s=plain_s,
        init_s=init_s,
        execute_s=execute_s,
        paging_s=paging_s,
    )


@dataclass(frozen=True)
class RewriteBreakdown:
    """What the logical-rewrite layer did during one run.

    Aggregates the ``rewrite.*`` events: how many candidates survived the
    exact equivalence proof (and over how many witness rows), how many
    were rejected, how many priced races ran and how many produced a
    winner faster than the static logical plan, plus the cardinality
    Q-error before and after feedback.  A default or ``--rewrite off``
    trace yields the all-zero breakdown.
    """

    proved: int  # candidates that passed the equivalence proof
    rejected: int  # candidates the proof refuted (or that failed to run)
    proof_rows: int  # summed witness rows the proofs compared
    raced: int  # proven candidates priced against the reference
    winners: int  # races whose best rewrite beat the static plan
    best_speedup: float  # max reference/winner priced-seconds ratio
    q_error_raw: float  # worst analytic Q-error across observed steps
    q_error_corrected: float  # worst Q-error after observation feedback

    def describe(self) -> str:
        """One line for report notes: the rewrite layer's activity."""
        return (
            f"{self.proved} proved / {self.rejected} rejected over "
            f"{self.proof_rows} witness rows; {self.raced} raced, "
            f"{self.winners} winners (best {self.best_speedup:.2f}x); "
            f"q-error {self.q_error_raw:.1f} -> "
            f"{self.q_error_corrected:.1f}"
        )


def rewrite_breakdown(
    source, *, query: Optional[str] = None
) -> RewriteBreakdown:
    """Aggregate a trace's ``rewrite.*`` events into a rewrite breakdown.

    ``source`` is a tracer or record iterable; ``query`` restricts the
    aggregation to one TPC-H template's events (a serving run plans many
    templates into one trace).  A rewrite-less trace yields the all-zero
    breakdown.
    """
    proved = rejected = proof_rows = raced = winners = 0
    best_speedup = 1.0
    q_raw = q_corrected = 1.0
    for record in _events(source, query=query):
        if record.name == REWRITE_PROVED:
            proved += 1
            proof_rows += int(record.attrs.get("rows", 0))
        elif record.name == REWRITE_REJECTED:
            rejected += 1
        elif record.name == REWRITE_RACE:
            raced += 1
        elif record.name == REWRITE_WINNER:
            winners += 1
            best_speedup = max(
                best_speedup, float(record.attrs.get("speedup", 1.0))
            )
        elif record.name == REWRITE_QERROR:
            q_raw = max(
                q_raw, float(record.attrs.get("max_q_error_raw", 1.0))
            )
            q_corrected = max(
                q_corrected,
                float(record.attrs.get("max_q_error_corrected", 1.0)),
            )
    return RewriteBreakdown(
        proved=proved,
        rejected=rejected,
        proof_rows=proof_rows,
        raced=raced,
        winners=winners,
        best_speedup=best_speedup,
        q_error_raw=q_raw,
        q_error_corrected=q_corrected,
    )


def serving_runs(source) -> List[Tuple[Dict[str, object], ServingBreakdown]]:
    """Per-run breakdowns of a trace holding several serving runs.

    Returns ``(run_start_attrs, breakdown)`` per ``serving.run_start``
    marker; records before the first marker are ignored.
    """
    runs: List[Tuple[Dict[str, object], List]] = []
    for record in _records(source):
        if isinstance(record, Event) and record.name == RUN_START:
            runs.append((dict(record.attrs), []))
        elif runs:
            runs[-1][1].append(record)
    return [(attrs, serving_breakdown(records)) for attrs, records in runs]
