"""The enclave-aware serving scheduler: a simulated-time event loop.

Queries arrive (open-loop streams are pre-generated, closed-loop clients
resubmit on completion), wait in one arrival-ordered queue, and are
dispatched by an admission policy against two shared resources:

* a **core pool** — each running query reserves its template's thread
  count for its whole service time (the paper pins threads to physical
  cores before entering the enclave, Sec. 3; a serving system must
  partition them);
* an **EPC budget** — each running query holds its measured working set.
  Admitting past the budget means the enclave grows mid-query (EDMM) or
  pages: the overflowing share of the working set is served at a heavy
  penalty (Fig. 11 measures the collapse; we charge
  :data:`EDMM_OVERFLOW_SLOWDOWN` per overflowing byte fraction).

Service times are the catalog's priced per-query times plus additive
terms frozen at dispatch (:data:`~repro.trace.breakdown.DISPATCH_TERMS`):
a mild memory-bandwidth interference term proportional to how many other
cores are already busy (concurrent streams share the bandwidth domains the
cost model otherwise prices per-phase) on every dispatch, then penalty
stages applied in a fixed order — sealed spill, graceful degradation, EDMM
overflow, AEX inflation — each only where this run can charge it.

**Faults and resilience** (:mod:`repro.faults`): with an injector
installed, dispatched services can be inflated by AEX storms, aborted by
mid-service crashes, denied EDMM growth, poisoned per-template, or starved
by an EPC squeeze; with a :class:`~repro.faults.ResiliencePolicy` the
scheduler retries failed attempts with jittered backoff, sheds load
through a per-tenant circuit breaker, bounds attempts with a timeout, and
degrades gracefully under squeeze.  All fault paths stay cold under the
default :data:`~repro.faults.NULL_INJECTOR`, so an un-faulted run is
byte-identical to a pre-fault build.

**Multiplexing** (:mod:`repro.cluster`): a cluster scheduler starts one
:class:`WorkloadScheduler` per shard, reads each one's event heap in
place and calls its ``step``, so it can interleave many shards on one
simulated clock; ``submit``/``evict``/``reject`` let routed arrivals,
shard crashes and dead-shard rejections cross shard boundaries.  A shard
label threads into every trace event's attrs (``shard=...``) so tee'd
shards stay distinguishable; un-sharded runs omit the attr and stay
byte-identical to the pre-cluster build.

**Events**: open-loop arrivals are generated up front and kept in one
list, sorted once; :meth:`WorkloadScheduler.run` merges that list with
an event heap that holds only what the run makes as it goes (finishes,
retries, fault-window wakes and closed-loop submissions), so the heap
stays as small as the number of queries in flight.  Same-instant ties
resolve as if every event were on one heap keyed ``(time, kind, seq)``:
finishes, then wakes, then arrivals, and pre-generated arrivals before
any arrival the run pushes.

Everything — arrivals, mixes, dispatch order, tie-breaking, fault draws,
retry jitter — is a pure function of the workload configuration and its
seeds: two runs of the same config produce identical metrics.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.faults.injector import NULL_INJECTOR, CrashDraw, NullInjector
from repro.faults.resilience import (
    DEGRADED_SLOWDOWN,
    CircuitBreaker,
    ResiliencePolicy,
)
from repro.planner.adaptive import PlanSelector
from repro.trace.breakdown import (
    ARRIVAL,
    ATTEMPT_FAILED,
    BREAKER_OPEN,
    DEGRADED,
    DISPATCH,
    DISPATCH_TERMS,
    EDMM_OVERFLOW,
    FAILED,
    FAULT_AEX,
    FAULT_CRASH,
    FAULT_EDMM_DENIED,
    FAULT_STORAGE_STALL,
    FAULT_TORN_BLOCK,
    FINISH,
    PLANNER_CHOICE,
    PLANNER_OBSERVE,
    RETRY,
    RUN_END,
    RUN_START,
    SHED,
    SPILL,
)
from repro.storage.sealed import SpillModel
from repro.trace.tracer import current_tracer
from repro.workload.generators import Arrival, ClosedLoopStream, OpenLoopStream
from repro.workload.jobs import JobCost
from repro.workload.metrics import (
    FailureRecord,
    QueryRecord,
    SchedulerCounters,
    WorkloadMetrics,
)
from repro.workload.policies import AdmissionPolicy

#: Service-time multiplier per fraction of the working set beyond the EPC
#: budget.  Fig. 11 measures a 22x collapse when the *whole* working set is
#: EDMM-grown; a query overflowing by fraction f pays 1 + f * this factor
#: (fully overflowing -> 10x, a conservative stand-in for growth + paging).
EDMM_OVERFLOW_SLOWDOWN = 9.0

#: Service-time multiplier per fraction of other cores busy at dispatch.
#: Concurrent queries share the memory bandwidth the cost model assumes a
#: lone query owns; 0.25 caps the penalty at +25 % on a fully busy machine.
INTERFERENCE_FACTOR = 0.25

# Event ordering: completions free resources before same-instant wake-ups,
# and both before same-instant arrivals.
_FINISH = 0
_WAKE = 1
_ARRIVAL = 2

_time_of = itemgetter(0)  # an Arrival's time_s
_new_tuple = tuple.__new__  # builds a named tuple without its Python __new__


@dataclass(slots=True)
class PendingQuery:
    """One submitted query waiting for (or holding) resources."""

    query_id: int
    stream: str
    template: str
    client: int
    arrival_s: float
    threads: int
    service_s: float
    working_set_bytes: int
    attempt: int = 0  # retries already burned (0 = first attempt)
    arm: str = ""  # the planner arm serving this query ("" = static plan)


#: A running attempt's fate, fixed at dispatch and carried by its finish
#: event: (pending, start_s, overflow_bytes, bypassed, outcome,
#: reserved_bytes, crash).
_FinishState = Tuple[
    PendingQuery, float, int, bool, str, int, Optional[CrashDraw]
]


class WorkloadScheduler:
    """Serves one workload configuration over simulated time.

    :meth:`run` serves a set of streams to completion, merging the
    pre-generated open-loop arrivals with the event heap.  A cluster
    scheduler multiplexes many shard schedulers on one simulated clock
    instead: it calls :meth:`start`, which takes no open streams (every
    arrival reaches a shard through :meth:`submit`, so all of a shard's
    events are on its heap), reads the head of each ``_events`` heap in place
    (the next ``(time, kind, seq, payload)``, never popped from outside),
    calls :meth:`step` to process exactly one event, and calls
    :meth:`result` once no events remain.  Routed work crosses
    shard boundaries through :meth:`submit` (deliver an arrival,
    optionally priced with a cross-socket shuffle), :meth:`evict` (a
    crashing shard hands back its queued and running queries) and
    :meth:`reject` (a dead shard sheds an arrival terminally).  Every
    run starts from fresh state.
    """

    def __init__(
        self,
        costs: Mapping[str, JobCost],
        policy: AdmissionPolicy,
        *,
        cores: int,
        epc_budget_bytes: float,
        setting_label: str,
        injector: Optional[NullInjector] = None,
        resilience: Optional[ResiliencePolicy] = None,
        selector: Optional[PlanSelector] = None,
        storage: Optional[SpillModel] = None,
        shard: str = "",
        query_id_base: int = 0,
    ) -> None:
        if cores < 1:
            raise ConfigurationError("the core pool needs at least one core")
        if epc_budget_bytes <= 0:
            raise ConfigurationError("the EPC budget must be positive")
        for cost in costs.values():
            if cost.threads > cores:
                raise ConfigurationError(
                    f"job {cost.name!r} needs {cost.threads} cores but the "
                    f"pool has {cores}"
                )
        self._costs = dict(costs)
        self._policy = policy
        self._cores = cores
        self._epc_budget = float(epc_budget_bytes)
        self._setting_label = setting_label
        self._injector = injector if injector is not None else NULL_INJECTOR
        self._resilience = resilience
        #: Whether any fault machinery is live this run; every fault branch
        #: hides behind this flag so an un-faulted run takes the exact
        #: pre-fault code path (and emits the exact pre-fault trace).
        self._faulting = self._injector.active or resilience is not None
        #: Plan selector (planner modes beyond ``static``).  Every planner
        #: branch hides behind ``selector is not None`` for the same
        #: byte-identity reason the fault branches hide behind _faulting.
        self._selector = selector
        #: Sealed-storage spill model (``--storage BUDGET``).  With one
        #: installed, overflow admissions spill their overflowing share to
        #: sealed untrusted storage instead of paying the EDMM/paging
        #: penalty; without one, every spill branch stays cold and runs
        #: are byte-identical to the pre-storage build.
        self._spill = storage
        #: Shard identity when multiplexed by a cluster scheduler; ""
        #: (un-sharded) suppresses every shard-related trace attr so solo
        #: runs stay byte-identical to the pre-cluster build.
        self._shard = shard
        #: First query id this scheduler assigns.  Shards take disjoint
        #: id ranges so cluster-wide merged records never collide.
        self._query_id_base = query_id_base
        # The penalty stages, as (term, stage) in DISPATCH_TERMS order: an
        # overflowing admission spills, or degrades (only while squeezed)
        # or grows the enclave; a faulted run inflates every dispatch.
        # Stages are held unbound: bound methods would make every
        # scheduler a reference cycle that outlives its run until the
        # cyclic GC.  Dispatch events carry each term this scheduler can
        # charge, at zero when no stage charged it.
        interference, spill, degraded, edmm, aex = DISPATCH_TERMS
        cls = WorkloadScheduler
        inflation = ((aex, cls._aex_stage),) if self._faulting else ()
        if storage is not None:
            overflow = ((spill, cls._spill_stage),)
        elif (
            self._faulting
            and resilience is not None
            and resilience.degrade_on_squeeze
        ):
            overflow = (
                (degraded, cls._degrade_stage),
                (edmm, cls._edmm_stage),
            )
        else:
            overflow = ((edmm, cls._edmm_stage),)
        self._stages = inflation
        self._overflow_stages = overflow + inflation
        self._interference_term = interference
        zero = self._zero_terms = {edmm: 0.0}
        if self._faulting:
            zero[aex] = zero[degraded] = 0.0
        if storage is not None:
            zero[spill] = 0.0

    def run(
        self,
        *,
        open_streams: Sequence[OpenLoopStream] = (),
        closed_streams: Sequence[ClosedLoopStream] = (),
        duration_s: float,
    ) -> WorkloadMetrics:
        """Simulate until every submitted query completes or fails."""
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if not open_streams and not closed_streams:
            raise ConfigurationError("the workload needs at least one stream")
        self.start(closed_streams=closed_streams, duration_s=duration_s)
        # Open-loop arrivals, in stream order then time order; the stable
        # sort keeps same-instant arrivals in stream order, which is the
        # (time, kind, seq) order they would have on the heap.
        arrivals: List[Arrival] = []
        for stream in open_streams:
            arrivals += stream.arrivals(duration_s)
        if len(open_streams) > 1:
            arrivals.sort(key=_time_of)
        # Merge the sorted arrivals with the heap.  A heap event goes
        # first when it is earlier, or same-instant and not an arrival
        # (finishes and wakes sort before arrivals); a same-instant
        # arrival on the heap was pushed during the run, so its seq is
        # above every pre-generated arrival's and it goes after.
        events, step, arrive = self._events, self.step, self._arrive
        for arrival in arrivals:
            now = arrival[0]
            while events:
                head = events[0]
                if head[0] < now or (head[0] == now and head[1] != _ARRIVAL):
                    step()
                else:
                    break
            arrive(now, arrival)
        while events:
            step()
        return self.result()

    def start(
        self,
        *,
        closed_streams: Sequence[ClosedLoopStream] = (),
        duration_s: float,
    ) -> None:
        """Begin a run from fresh state: seed the event heap, open the
        trace run.

        Unlike :meth:`run` a run may start with no streams: a shard in a
        cluster receives every arrival through :meth:`submit`.  Open-loop
        streams go to :meth:`run`, which merges their arrivals with the
        heap; a scheduler stepped from outside has none.
        """
        self._duration_s = duration_s
        self._tracer = current_tracer()
        #: Read once per run: every trace branch tests this flag.
        self._traced = self._tracer.enabled
        if self._traced:
            self._emit(
                RUN_START,
                0.0,
                {
                    "setting": self._setting_label,
                    "policy": self._policy.label,
                    "cores": self._cores,
                    "epc_budget_bytes": self._epc_budget,
                    "duration_s": duration_s,
                },
            )
        self._counters = SchedulerCounters()
        self._records: List[QueryRecord] = []
        self._failures: List[FailureRecord] = []
        self._downtime_s = 0.0
        self._queue: Deque[PendingQuery] = deque()
        # qid -> the finish payload of its running attempt (see _dispatch)
        self._running: Dict[int, _FinishState] = {}
        self._closed_by_name = {s.name: s for s in closed_streams}
        self._closed_rngs: Dict[str, random.Random] = {
            s.name: s.session_rng() for s in closed_streams
        }
        self._breaker: Optional[CircuitBreaker] = None
        if self._resilience is not None:
            self._breaker = CircuitBreaker(
                self._resilience.breaker_threshold,
                self._resilience.breaker_cooldown_s,
            )
        self._free_cores = self._cores
        self._epc_used = 0.0
        self._epc_high_water = 0.0
        self._dispatched = False  # set by a traced dispatch
        self._next_id = self._query_id_base
        self._seq = 0
        self._queued_threads = 0  # incremental; backs the router's load score
        self._finalised = False  # result() has run

        # (time, kind, seq, payload): kind breaks same-instant ties so a
        # finishing query releases its cores before a new arrival is seen.
        # Seeded with one heapify: (time, kind, seq) totally orders
        # events (payloads are never compared), so any heap over the
        # same set drains identically.
        self._events: List[Tuple[float, int, int, object]] = []
        events = self._events
        seq = self._seq
        for stream in closed_streams:
            for arrival in stream.initial_arrivals(
                self._closed_rngs[stream.name]
            ):
                events.append((arrival.time_s, _ARRIVAL, seq, arrival))
                seq += 1
        if self._faulting:
            # Fault-window edges that change admission state (a squeeze
            # ending frees budget) must re-run dispatch even if no other
            # event lands on that instant.
            for wake_s in self._injector.wake_times(duration_s):
                events.append((wake_s, _WAKE, seq, None))
                seq += 1
        self._seq = seq
        heapify(events)

    def _cost_of(self, template: str) -> JobCost:
        try:
            return self._costs[template]
        except KeyError:
            known = ", ".join(sorted(self._costs))
            raise ConfigurationError(
                f"no priced cost for template {template!r}; known: {known}"
            ) from None

    # -- multiplexing surface ---------------------------------------------

    @property
    def load_score(self) -> float:
        """Demanded-thread pressure plus EPC pressure, for routing.

        ``(queued + running threads) / cores`` measures compute backlog;
        ``1 - headroom`` measures how full the enclave is.  A shard with
        an idle core pool but an exhausted EPC budget scores high, which
        is exactly the least-EPC-headroom signal the load-aware router
        ranks on.
        """
        busy = self._cores - self._free_cores
        compute = (self._queued_threads + busy) / self._cores
        return compute + (1.0 - self.epc_headroom_fraction)

    @property
    def epc_headroom_fraction(self) -> float:
        """Free share of the (un-squeezed) EPC budget, clamped to [0, 1]."""
        budget = self._epc_budget
        if budget == math.inf:
            return 1.0
        free = max(0.0, budget - self._epc_used)
        return min(1.0, free / budget)

    def submit(
        self,
        arrival: Arrival,
        *,
        shuffle_s: float = 0.0,
        arrival_s: Optional[float] = None,
        attempt: int = 0,
    ) -> None:
        """Deliver a routed arrival to this shard.

        ``shuffle_s`` adds the cross-socket (or cross-machine) transfer
        time to the query's base service time — priced by the cluster
        router through :meth:`Topology.cross_socket_bytes`.  ``arrival_s``
        preserves the query's *original* submission time across a
        failover re-route, so end-to-end latency covers the lost attempt.
        """
        if shuffle_s == 0.0 and arrival_s is None and attempt == 0:
            self._push(arrival.time_s, _ARRIVAL, arrival)
            return
        self._push(
            arrival.time_s, _ARRIVAL, (arrival, shuffle_s, arrival_s, attempt)
        )

    def evict(self, now: float) -> List[PendingQuery]:
        """Hand back every queued and running query (shard crash path).

        Queued queries return in queue order, then running queries in
        query-id order.  Running queries release their cores and EPC here;
        their in-flight finish events are cancelled (stepped over when
        they pop).  The caller re-routes or terminally fails the result.
        """
        victims = list(self._queue)
        self._queue.clear()
        self._queued_threads = 0
        for qid in sorted(self._running):
            pending, _, _, _, _, reserved_bytes, _ = self._running[qid]
            self._free_cores += pending.threads
            self._epc_used -= reserved_bytes
            victims.append(pending)
        # A finish whose query is no longer running is stepped over.
        self._running.clear()
        return victims

    def reject(self, arrival: Arrival, now: float, outcome: str = "shard_down") -> None:
        """Terminally shed an arrival routed at a dead shard."""
        cost = self._cost_of(arrival.template)  # raises if unpriced
        self._counters.arrivals += 1
        self._counters.shed += 1
        pending = PendingQuery(
            self._next_id,
            arrival.stream,
            arrival.template,
            arrival.client,
            now,
            cost.threads,
            cost.service_s,
            cost.working_set_bytes,
        )
        self._next_id += 1
        if self._traced:
            self._emit_query(ARRIVAL, now, pending, queue_depth=len(self._queue))
            self._emit_query(SHED, now, pending, retry=False)
        self._fail_terminally(pending, now, outcome)

    def fail_evicted(
        self, pending: PendingQuery, now: float, outcome: str = "shard_down"
    ) -> None:
        """Terminally fail a query evicted by a shard crash (no failover).

        The query already holds this shard's counters (its arrival was
        counted here), so the terminal failure must land here too —
        otherwise availability would silently ignore the lost work.
        """
        self._counters.failed += 1
        self._fail_terminally(pending, now, outcome)

    # -- internals ---------------------------------------------------------

    def _emit(
        self,
        name: str,
        time_s: float,
        attrs: Dict[str, object],
        pending: Optional[PendingQuery] = None,
    ) -> None:
        """One event of this run, its ``attrs`` completed in place with
        the query's identity (given ``pending``) and the shard."""
        if pending is not None:
            attrs["query_id"] = pending.query_id
            attrs["stream"] = pending.stream
            attrs["template"] = pending.template
        if self._shard:
            attrs["shard"] = self._shard
        self._tracer.event(name, attrs, time_s)

    def _emit_query(
        self, name: str, now: float, pending: PendingQuery, **attrs: object
    ) -> None:
        """One query's event: the time, the query's identity, ``attrs``."""
        self._emit(name, now, attrs, pending)

    def _push(self, time_s: float, kind: int, payload: object) -> None:
        heappush(self._events, (time_s, kind, self._seq, payload))
        self._seq += 1

    def _resubmit_closed(self, pending: PendingQuery, now: float) -> None:
        """A closed-loop client moves on after a completion OR a
        terminal failure — otherwise a failure would silently remove
        the client from the workload and drain the stream."""
        stream = self._closed_by_name.get(pending.stream)
        if stream is not None and now < self._duration_s:
            arrival = stream.next_arrival(
                self._closed_rngs[stream.name], pending.client, now
            )
            self._push(arrival.time_s, _ARRIVAL, arrival)

    def _fail_terminally(
        self, pending: PendingQuery, now: float, outcome: str
    ) -> None:
        """Record a query's terminal failure (the caller counts it)."""
        self._failures.append(
            FailureRecord(
                query_id=pending.query_id,
                stream=pending.stream,
                template=pending.template,
                client=pending.client,
                arrival_s=pending.arrival_s,
                failed_s=now,
                attempts=pending.attempt + 1,
                outcome=outcome,
            )
        )
        if self._traced:
            self._emit_query(
                FAILED,
                now,
                pending,
                attempts=pending.attempt + 1,
                outcome=outcome,
                latency_s=now - pending.arrival_s,
            )

    def _fail_attempt(
        self,
        pending: PendingQuery,
        now: float,
        outcome: str,
        *,
        wasted_s: float = 0.0,
        reinit_s: float = 0.0,
    ) -> None:
        """One attempt failed: retry with backoff, or fail terminally."""
        counters = self._counters
        resilience = self._resilience
        breaker = self._breaker
        if self._traced:
            self._emit_query(
                ATTEMPT_FAILED,
                now,
                pending,
                attempt=pending.attempt,
                outcome=outcome,
                wasted_s=wasted_s,
            )
        if breaker is not None and outcome != "shed":
            if breaker.record_failure(pending.stream, now):
                if self._traced:
                    self._emit(
                        BREAKER_OPEN,
                        now,
                        {
                            "stream": pending.stream,
                            "until_s": breaker.open_until(pending.stream),
                            "consecutive_failures": breaker.threshold,
                        },
                    )
        retryable = (
            resilience is not None
            and outcome != "shed"
            and pending.attempt < resilience.max_retries
        )
        if retryable:
            pending.attempt += 1
            delay_s = (
                resilience.backoff_s(pending.query_id, pending.attempt)
                + reinit_s
            )
            counters.retries += 1
            if self._traced:
                self._emit_query(
                    RETRY,
                    now,
                    pending,
                    attempt=pending.attempt,
                    delay_s=delay_s,
                    outcome=outcome,
                )
            # A retry's payload is the query itself.
            self._push(now + delay_s, _ARRIVAL, pending)
            return
        if outcome == "shed":
            counters.shed += 1
        else:
            counters.failed += 1
        self._fail_terminally(pending, now, outcome)
        if self._closed_by_name:
            self._resubmit_closed(pending, now)

    def _plan_query(self, pending: PendingQuery, now: float) -> None:
        """(Re-)select the physical plan serving this attempt.

        Runs at queue entry — fresh arrivals and retries — so each
        attempt's draw has its own decision identity and a re-planned
        retry may switch arms.  The headroom handed to the selector is
        the momentary free share of the (possibly squeezed) EPC
        budget: what the oracle exploits, and what prices unobserved
        arms for the adaptive selector's cold start.
        """
        selector = self._selector
        budget = self._epc_budget
        if self._faulting:
            budget = budget * self._injector.epc_multiplier(now)
        headroom = budget - self._epc_used
        arm = selector.select(
            pending.template,
            pending.query_id,
            pending.attempt,
            headroom_bytes=headroom,
        )
        pending.arm = arm.label
        pending.threads = arm.candidate.threads
        pending.service_s = arm.service_s
        pending.working_set_bytes = arm.working_set_bytes
        if self._traced:
            self._emit_query(
                PLANNER_CHOICE,
                now,
                pending,
                attempt=pending.attempt,
                mode=selector.mode,
                arm=arm.label,
                headroom_bytes=headroom,
                service_s=arm.service_s,
                working_set_bytes=arm.working_set_bytes,
            )

    def _dispatch(self, now: float) -> None:
        """Admit queued queries until the policy blocks or the queue
        empties (callers skip the call on an empty queue)."""
        queue = self._queue
        policy = self._policy
        counters = self._counters
        injector = self._injector
        resilience = self._resilience
        faulting = self._faulting
        cores = self._cores
        while queue:
            budget = self._epc_budget
            if faulting:
                budget = budget * injector.epc_multiplier(now)
            headroom = budget - self._epc_used
            decision = policy.pick(
                queue, self._free_cores, headroom if headroom > 0.0 else 0.0
            )
            if decision is None:
                reason = policy.last_block_reason
                if reason == "epc":
                    counters.blocked_on_epc += 1
                elif reason == "cores":
                    counters.blocked_on_cores += 1
                return
            index, overflow_bytes, bypassed = decision
            if index:
                pending = queue[index]
                del queue[index]
            else:
                pending = queue.popleft()
            threads = pending.threads
            base_s = pending.service_s
            self._queued_threads -= threads
            free_cores = self._free_cores
            # The dispatch-time service decomposition (DISPATCH_TERMS): a
            # frozen base service time plus additive terms the trace
            # attributes separately.  Interference applies to every
            # dispatch; the penalty stages run in their fixed order, and
            # only where this scheduler can charge them.
            interference_s = (
                base_s * INTERFERENCE_FACTOR * (cores - free_cores) / cores
            )
            service = base_s + interference_s
            reserved_bytes = pending.working_set_bytes
            stages = self._overflow_stages if overflow_bytes > 0 else self._stages
            charged = None
            if stages:
                charged = {}
                abort = None
                for term, stage in stages:
                    penalty_s, reserved_bytes, abort = stage(
                        self,
                        pending,
                        now,
                        service,
                        overflow_bytes,
                        reserved_bytes,
                    )
                    if abort is not None:
                        break
                    service += penalty_s
                    charged[term] = penalty_s
                if abort is not None:
                    # The attempt died before it held any resources.
                    self._fail_attempt(pending, now, abort)
                    continue
            # Freeze this attempt's fate at dispatch: poison and
            # crashes are drawn now, and the timeout caps whatever
            # service the faults produced.
            outcome = "ok"
            attempt_s = service
            crash: Optional[CrashDraw] = None
            if faulting:
                if injector.poisoned(now, pending.template):
                    outcome = "poison"
                    counters.poisoned += 1
                else:
                    crash = injector.crash(
                        now, pending.query_id, pending.attempt
                    )
                    if crash is not None:
                        outcome = "crash"
                        attempt_s = service * crash.fraction
                        counters.crashes += 1
                        self._downtime_s += crash.reinit_s
                if (
                    resilience is not None
                    and resilience.timeout_s is not None
                    and attempt_s > resilience.timeout_s
                ):
                    outcome = "timeout"
                    attempt_s = resilience.timeout_s
                    crash = None
                    counters.timeouts += 1
            if bypassed:
                counters.bypass_dispatches += 1
            if now == pending.arrival_s:
                counters.dispatched_immediately += 1
            free_cores -= threads
            self._free_cores = free_cores
            epc_used = self._epc_used + reserved_bytes
            self._epc_used = epc_used
            if epc_used > self._epc_high_water:
                self._epc_high_water = epc_used
            if self._traced:
                attrs = {
                    **self._zero_terms,
                    self._interference_term: interference_s,
                    "queue_wait_s": now - pending.arrival_s,
                    "base_service_s": base_s,
                    "overflow_bytes": overflow_bytes,
                    "bypassed": bypassed,
                    "free_cores": free_cores,
                    "epc_used_bytes": epc_used,
                }
                if charged:
                    attrs.update(charged)
                if faulting:
                    attrs["attempt"] = pending.attempt
                self._emit(DISPATCH, now, attrs, pending)
                self._dispatched = True
            # The attempt's fate rides its finish event as a plain tuple.
            finish = (
                pending,
                now,
                overflow_bytes,
                bypassed,
                outcome,
                reserved_bytes,
                crash,
            )
            self._running[pending.query_id] = finish
            heappush(self._events, (now + attempt_s, _FINISH, self._seq, finish))
            self._seq += 1

    # -- penalty stages ----------------------------------------------------
    #
    # Each stage takes (pending, now, service_s so far, the admission's
    # overflow bytes, the EPC reservation so far) and returns
    # (penalty_s, reserved_bytes, abort_outcome): the seconds it adds to
    # the service time, the reservation after it, and the outcome that
    # aborts the attempt (None to go on).  A stage counts and traces what
    # it does; it never touches cores, EPC or the queue.

    def _spill_stage(
        self,
        pending: PendingQuery,
        now: float,
        service_s: float,
        overflow_bytes: int,
        reserved_bytes: int,
    ) -> Tuple[float, int, Optional[str]]:
        """Sealed spill: the overflowing share of the working set is
        sealed out to untrusted storage at dispatch and streamed back
        (unsealed + re-scanned) during service, so only the fitting share
        is reserved in EPC — no EDMM growth, no Fig. 11 paging collapse,
        just priced seal/unseal traffic."""
        counters = self._counters
        faulting = self._faulting
        if faulting and self._injector.torn_block(
            now, pending.query_id, pending.attempt
        ):
            # A sealed block failed its AES-GCM tag check on the way
            # back in.
            counters.torn_blocks += 1
            if self._traced:
                self._emit_query(
                    FAULT_TORN_BLOCK,
                    now,
                    pending,
                    attempt=pending.attempt,
                    spilled_bytes=float(overflow_bytes),
                )
            return 0.0, reserved_bytes, "torn_block"
        seal_s, unseal_s = self._spill.charge(overflow_bytes)
        stall = 1.0
        if faulting:
            stall = self._injector.storage_stall_multiplier(now)
        stalled = stall > 1.0
        if stalled:
            seal_s *= stall
            unseal_s *= stall
            counters.storage_stalled += 1
            if self._traced:
                self._emit_query(
                    FAULT_STORAGE_STALL, now, pending, inflation=stall
                )
        penalty_s = seal_s + unseal_s
        counters.spills += 1
        counters.spilled_bytes += float(overflow_bytes)
        if self._traced:
            self._emit_query(
                SPILL,
                now,
                pending,
                spilled_bytes=float(overflow_bytes),
                seal_s=seal_s,
                unseal_s=unseal_s,
                stalled=stalled,
                penalty_s=penalty_s,
            )
        reserved_bytes = pending.working_set_bytes - overflow_bytes
        return penalty_s, reserved_bytes if reserved_bytes > 0 else 0, None

    def _degrade_stage(
        self,
        pending: PendingQuery,
        now: float,
        service_s: float,
        overflow_bytes: int,
        reserved_bytes: int,
    ) -> Tuple[float, int, Optional[str]]:
        """Graceful degradation under an EPC squeeze: admit at a reduced
        EPC reservation (only what fits the squeezed budget) and stream
        the shortfall through a bounded buffer — a mild slowdown instead
        of the Fig. 11 EDMM/paging collapse."""
        if not self._injector.squeezed(now):
            return 0.0, reserved_bytes, None
        reserved_bytes = max(0, pending.working_set_bytes - overflow_bytes)
        penalty_s = (
            service_s
            * DEGRADED_SLOWDOWN
            * min(1.0, overflow_bytes / pending.working_set_bytes)
        )
        self._counters.degraded += 1
        if self._traced:
            self._emit_query(
                DEGRADED,
                now,
                pending,
                reserved_bytes=reserved_bytes,
                shortfall_bytes=overflow_bytes,
                penalty_s=penalty_s,
            )
        return penalty_s, reserved_bytes, None

    def _edmm_stage(
        self,
        pending: PendingQuery,
        now: float,
        service_s: float,
        overflow_bytes: int,
        reserved_bytes: int,
    ) -> Tuple[float, int, Optional[str]]:
        """EDMM overflow: the enclave grows for the overflowing share and
        the query pays :data:`EDMM_OVERFLOW_SLOWDOWN` per overflowing
        fraction — unless a fault denies the growth."""
        if reserved_bytes < pending.working_set_bytes:
            # Degradation already kept the overflow out of EPC.
            return 0.0, reserved_bytes, None
        if self._faulting and self._injector.edmm_denied(
            now, pending.query_id, pending.attempt
        ):
            # Enclave.grow raised CapacityError.
            self._counters.edmm_denied += 1
            if self._traced:
                self._emit_query(
                    FAULT_EDMM_DENIED,
                    now,
                    pending,
                    attempt=pending.attempt,
                    overflow_bytes=overflow_bytes,
                )
            return 0.0, reserved_bytes, "edmm_denied"
        overflow_fraction = overflow_bytes / pending.working_set_bytes
        penalty_s = service_s * EDMM_OVERFLOW_SLOWDOWN * overflow_fraction
        self._counters.edmm_admissions += 1
        if self._traced:
            self._emit_query(
                EDMM_OVERFLOW,
                now,
                pending,
                overflow_bytes=overflow_bytes,
                overflow_fraction=overflow_fraction,
                penalty_s=penalty_s,
            )
        return penalty_s, reserved_bytes, None

    def _aex_stage(
        self,
        pending: PendingQuery,
        now: float,
        service_s: float,
        overflow_bytes: int,
        reserved_bytes: int,
    ) -> Tuple[float, int, Optional[str]]:
        """AEX inflation: an active storm multiplies the service so far."""
        inflation = self._injector.service_multiplier(
            now, pending.query_id, pending.attempt
        )
        if not inflation > 1.0:
            return 0.0, reserved_bytes, None
        penalty_s = service_s * (inflation - 1.0)
        self._counters.aex_inflations += 1
        if self._traced:
            self._emit_query(
                FAULT_AEX,
                now,
                pending,
                inflation=inflation,
                penalty_s=penalty_s,
            )
        return penalty_s, reserved_bytes, None

    def step(self) -> None:
        """Process exactly one heap event (events must be pending)."""
        now, kind, _, payload = heappop(self._events)
        if kind == _FINISH:
            (
                pending,
                start_s,
                overflow_bytes,
                bypassed,
                outcome,
                reserved_bytes,
                crash,
            ) = payload
            if self._running.pop(pending.query_id, None) is None:
                # The query was evicted (shard crash) while running; its
                # resources were already released at eviction time.
                return
            self._free_cores += pending.threads
            self._epc_used -= reserved_bytes
            if outcome == "ok":
                self._counters.completed += 1
                if self._breaker is not None:
                    self._breaker.record_success(pending.stream)
                if self._traced:
                    self._emit_query(
                        FINISH,
                        now,
                        pending,
                        latency_s=now - pending.arrival_s,
                        service_s=now - start_s,
                    )
                selector = self._selector
                if selector is not None:
                    # Feed back the *charged service time* (base +
                    # every dispatch penalty), not the end-to-end
                    # latency: queue wait is shared backlog no arm
                    # controls, and it is scale-incompatible with the
                    # unobserved arms' service-time priors.
                    selector.observe(pending.template, pending.arm, now - start_s)
                    if self._traced:
                        self._emit_query(
                            PLANNER_OBSERVE,
                            now,
                            pending,
                            arm=pending.arm,
                            service_s=now - start_s,
                            latency_s=now - pending.arrival_s,
                        )
                self._records.append(
                    _new_tuple(
                        QueryRecord,
                        (
                            pending.query_id,
                            pending.stream,
                            pending.template,
                            pending.client,
                            pending.arrival_s,
                            start_s,
                            now,
                            pending.working_set_bytes,
                            overflow_bytes,
                            bypassed,
                            pending.attempt + 1,
                        ),
                    )
                )
                if self._closed_by_name:
                    self._resubmit_closed(pending, now)
            else:
                wasted_s = now - start_s
                reinit_s = 0.0
                if crash is not None:
                    reinit_s = crash.reinit_s
                    if self._traced:
                        self._emit_query(
                            FAULT_CRASH,
                            now,
                            pending,
                            attempt=pending.attempt,
                            at_fraction=crash.fraction,
                            lost_s=wasted_s,
                            reinit_s=reinit_s,
                        )
                self._fail_attempt(
                    pending,
                    now,
                    outcome,
                    wasted_s=wasted_s,
                    reinit_s=reinit_s,
                )
            if self._queue:
                self._dispatch(now)
        elif kind == _WAKE:
            # A fault window edge changed the admission state (e.g. an
            # EPC squeeze ended): give the queue another chance.
            if self._queue:
                self._dispatch(now)
        elif type(payload) is Arrival:
            self._arrive(now, payload)
        elif type(payload) is PendingQuery:
            self._requeue(now, payload)
        else:
            self._arrive(now, *payload)

    def _arrive(
        self,
        now: float,
        arrival: Arrival,
        shuffle_s: float = 0.0,
        anchor_s: Optional[float] = None,
        attempt: int = 0,
    ) -> None:
        """A new query enters the queue: a pre-generated or closed-loop
        arrival, or one routed here (``shuffle_s`` rides its service
        time; a failover re-route keeps its first ``anchor_s`` and its
        ``attempt``)."""
        _, stream, template, client = arrival
        cost = self._costs.get(template)
        if cost is None:
            self._cost_of(template)  # raises with the names
        counters = self._counters
        queue = self._queue
        counters.arrivals += 1
        pending = PendingQuery(
            self._next_id,
            stream,
            template,
            client,
            now if anchor_s is None else anchor_s,
            cost.threads,
            cost.service_s + shuffle_s,
            cost.working_set_bytes,
            attempt,
        )
        self._next_id += 1
        if self._traced:
            self._emit_query(ARRIVAL, now, pending, queue_depth=len(queue))
        breaker = self._breaker
        if breaker is not None and breaker.is_open(stream, now):
            # The tenant's breaker is open: fail fast instead of
            # burning cores on a service that is likely doomed.
            if self._traced:
                self._emit_query(SHED, now, pending, retry=False)
            self._fail_attempt(pending, now, "shed")
            return
        if self._selector is not None:
            self._plan_query(pending, now)
        queue.append(pending)
        self._queued_threads += pending.threads
        # No resources were freed since the last dispatch round, so
        # the only query this round can admit is the new arrival:
        # an unchanged queue length means it stayed queued (an O(1)
        # check; scanning the deque re-compared every field).
        depth_before = len(queue)
        self._dispatch(now)
        if len(queue) == depth_before:
            counters.queued += 1

    def _requeue(self, now: float, pending: PendingQuery) -> None:
        """A retried attempt re-enters the queue like a fresh arrival but
        keeps its identity (and its original arrival time, so latency
        covers every attempt)."""
        breaker = self._breaker
        if breaker is not None and breaker.is_open(pending.stream, now):
            if self._traced:
                self._emit_query(SHED, now, pending, retry=True)
            self._fail_attempt(pending, now, "shed")
            return
        if self._selector is not None:
            self._plan_query(pending, now)
        self._queue.append(pending)
        self._queued_threads += pending.threads
        self._dispatch(now)

    def result(self) -> WorkloadMetrics:
        """Finalise metrics and close the trace run (call exactly once)."""
        if self._finalised:
            raise ConfigurationError(
                "WorkloadScheduler.result() was already called: a second call "
                "would close the trace run and count its counters twice"
            )
        self._finalised = True
        counters = self._counters
        metrics = WorkloadMetrics(
            setting_label=self._setting_label,
            policy=self._policy.label,
            # Records sort on their unique leading query_id.
            records=sorted(self._records),
            counters=counters,
            epc_budget_bytes=self._epc_budget,
            epc_high_water_bytes=int(self._epc_high_water),
            duration_s=self._duration_s,
            failures=sorted(self._failures, key=lambda f: f.query_id),
            downtime_s=self._downtime_s,
        )
        if self._traced:
            for name, value in counters.as_dict().items():
                self._tracer.count(f"scheduler.{name}", value)
            end_attrs = {
                "setting": self._setting_label,
                "policy": self._policy.label,
                "completed": counters.completed,
                "epc_high_water_bytes": int(self._epc_high_water),
            }
            if self._faulting:
                for name, value in counters.fault_dict().items():
                    self._tracer.count(f"scheduler.{name}", value)
            if self._spill is not None:
                for name, value in counters.storage_dict().items():
                    self._tracer.count(f"scheduler.{name}", value)
                end_attrs.update(
                    failed=counters.failed,
                    shed=counters.shed,
                    retries=counters.retries,
                    availability=metrics.availability,
                    downtime_s=self._downtime_s,
                )
            self._emit(RUN_END, metrics.makespan_s, end_attrs)
            if self._dispatched:
                # The high water only rises at a dispatch, so writing it
                # once here leaves the gauge the last dispatch would.
                gauge = "scheduler.epc_high_water_bytes"
                if self._shard:
                    gauge = f"{gauge}.{self._shard}"
                self._tracer.gauge(gauge, self._epc_high_water)
        return metrics
