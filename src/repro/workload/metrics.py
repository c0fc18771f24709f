"""Serving metrics: per-query latency records and their aggregations.

Every completed query leaves one :class:`QueryRecord` carrying its arrival,
dispatch, and completion times, so queueing delay and service time are
separable — the distinction the admission-policy experiments turn on (an
EPC-aware policy trades queueing for service speed).  Aggregations are
deterministic: percentiles use the nearest-rank method, never
interpolation, so golden-shape tests see bit-identical values across runs.

Aggregations over large runs are numpy-vectorized: a
:class:`WorkloadMetrics` lazily materializes column arrays (arrival,
start, finish, stream, template) once per record set and answers every
filter/percentile/rate query from boolean masks instead of re-scanning
Python record lists.  Vectorization never changes a produced value — only
operations with bit-identical scalar semantics are used (sorts, min/max,
comparisons, counts); means still reduce with sequential ``sum`` because
numpy's pairwise summation could differ in the last ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import BenchmarkError, ZeroLengthWindowError


def percentile(
    samples: Union[Sequence[float], np.ndarray], p: float
) -> float:
    """Nearest-rank percentile of ``samples`` (``p`` in [0, 100]).

    Accepts a sequence or a 1-D float array; always returns a Python
    ``float`` (cached experiment payloads are JSON, and ``np.float64``
    is not JSON-serializable).  NaN samples are rejected: NaN is
    unordered, so a sort containing one produces input-order-dependent
    rankings — precisely the non-determinism this method exists to avoid.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1:
        raise BenchmarkError("percentile needs a flat sample sequence")
    if arr.size == 0:
        raise BenchmarkError("cannot take a percentile of zero samples")
    if not 0 <= p <= 100:
        raise BenchmarkError(f"percentile {p} outside [0, 100]")
    if np.isnan(arr).any():
        raise BenchmarkError(
            "cannot take a percentile of NaN samples (NaN is unordered, "
            "so nearest-rank results would depend on input order)"
        )
    ordered = np.sort(arr, kind="stable")
    if p == 0:
        return float(ordered[0])
    rank = math.ceil(p / 100.0 * arr.size)
    return float(ordered[rank - 1])


class QueryRecord(NamedTuple):
    """One served query, from arrival to completion.

    An immutable named tuple rather than a frozen dataclass: the scheduler
    builds one per completion, and a tuple is several times cheaper to
    construct.
    """

    query_id: int
    stream: str
    template: str
    client: int
    arrival_s: float
    start_s: float
    finish_s: float
    working_set_bytes: int
    overflow_bytes: int = 0  # EPC demand beyond the budget at admission
    bypassed: bool = False  # dispatched through the small-query lane
    attempts: int = 1  # service attempts including the successful one

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def service_s(self) -> float:
        return self.finish_s - self.start_s

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s


@dataclass(frozen=True)
class FailureRecord:
    """One query that terminally failed (exhausted retries, or was shed).

    ``arrival_s`` is the *first* submission, so a failure's wall-clock
    cost — every burned attempt plus every backoff pause — is
    ``failed_s - arrival_s``.  ``outcome`` names the final failure mode
    (``crash``/``timeout``/``poison``/``edmm_denied``/``shed``).
    """

    query_id: int
    stream: str
    template: str
    client: int
    arrival_s: float
    failed_s: float
    attempts: int
    outcome: str


@dataclass
class SchedulerCounters:
    """Decision counts the scheduler accumulates while serving."""

    arrivals: int = 0
    completed: int = 0
    dispatched_immediately: int = 0
    queued: int = 0
    bypass_dispatches: int = 0
    edmm_admissions: int = 0  # admitted although the EPC budget was exceeded
    blocked_on_cores: int = 0  # dispatch rounds ending with a core-bound head
    blocked_on_epc: int = 0  # dispatch rounds ending with an EPC-bound head
    # -- fault/resilience decisions (all zero outside faulted runs) -------
    failed: int = 0  # terminal failures (retries exhausted / not retryable)
    shed: int = 0  # arrivals rejected by an open circuit breaker
    retries: int = 0  # re-queued attempts
    timeouts: int = 0  # attempts aborted at the per-query timeout
    crashes: int = 0  # attempts killed by a mid-service enclave crash
    edmm_denied: int = 0  # overflow admissions whose EDMM growth failed
    poisoned: int = 0  # attempts of a poisoned template (always fail)
    degraded: int = 0  # dispatches at a reduced EPC reservation
    aex_inflations: int = 0  # dispatches inflated by an AEX storm
    # -- sealed-storage decisions (all zero without a --storage budget) ---
    spills: int = 0  # dispatches served through the sealed spill path
    spilled_bytes: float = 0.0  # working-set bytes sealed out to storage
    storage_stalled: int = 0  # spills inflated by a STORAGE_STALL window
    torn_blocks: int = 0  # attempts aborted by a torn-block unseal failure

    def as_dict(self) -> Dict[str, int]:
        """The steady-state counters (the pre-fault serving vocabulary).

        Kept to exactly the original eight keys: the scheduler mirrors
        this dict into trace counters on every run, so growing it would
        change un-faulted trace artifacts byte-for-byte.
        """
        return {
            "arrivals": self.arrivals,
            "completed": self.completed,
            "dispatched_immediately": self.dispatched_immediately,
            "queued": self.queued,
            "bypass_dispatches": self.bypass_dispatches,
            "edmm_admissions": self.edmm_admissions,
            "blocked_on_cores": self.blocked_on_cores,
            "blocked_on_epc": self.blocked_on_epc,
        }

    def fault_dict(self) -> Dict[str, int]:
        """The fault-path counters (mirrored into traces only when faulting)."""
        return {
            "failed": self.failed,
            "shed": self.shed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "edmm_denied": self.edmm_denied,
            "poisoned": self.poisoned,
            "degraded": self.degraded,
            "aex_inflations": self.aex_inflations,
        }

    def storage_dict(self) -> Dict[str, Union[int, float]]:
        """The spill-path counters (mirrored into traces only when a
        sealed-storage budget is installed, so storage-less runs keep
        their pre-storage trace bytes)."""
        return {
            "spills": self.spills,
            "spilled_bytes": self.spilled_bytes,
            "storage_stalled": self.storage_stalled,
            "torn_blocks": self.torn_blocks,
        }


@dataclass
class WorkloadMetrics:
    """Everything one serving run measured."""

    setting_label: str
    policy: str
    records: List[QueryRecord] = field(default_factory=list)
    counters: SchedulerCounters = field(default_factory=SchedulerCounters)
    epc_budget_bytes: float = 0.0
    epc_high_water_bytes: int = 0
    duration_s: float = 0.0  # submission window of the workload
    failures: List[FailureRecord] = field(default_factory=list)
    downtime_s: float = 0.0  # summed enclave teardown + re-init time

    @property
    def makespan_s(self) -> float:
        """Time from the first arrival to the last completion.

        Anchored at the first *arrival*, not t=0: a stream whose first
        query arrives late (a staggered tenant, a warm-up gap) must not
        have the idle lead-in billed against its throughput.
        """
        if not self.records:
            return 0.0
        cols = self._columns()
        return float(cols["finish"].max() - cols["arrival"].min())

    def _columns(self) -> Dict[str, np.ndarray]:
        """Lazily built column arrays over ``records`` (cached).

        The cache token is ``(id(records), len(records))``: replacing or
        growing the record list invalidates it, so a metrics object that
        is filled incrementally (the scheduler appends in place only
        before handing the list over) always answers from fresh columns.
        """
        token = (id(self.records), len(self.records))
        cached = self.__dict__.get("_column_cache")
        if cached is not None and cached["token"] == token:
            return cached
        recs = self.records
        n = len(recs)
        cols: Dict[str, np.ndarray] = {
            "token": token,  # type: ignore[dict-item]
            "arrival": np.fromiter(
                (r.arrival_s for r in recs), np.float64, count=n
            ),
            "start": np.fromiter(
                (r.start_s for r in recs), np.float64, count=n
            ),
            "finish": np.fromiter(
                (r.finish_s for r in recs), np.float64, count=n
            ),
            "stream": np.array(
                [r.stream for r in recs] if n else [], dtype=str
            ),
            "template": np.array(
                [r.template for r in recs] if n else [], dtype=str
            ),
        }
        self.__dict__["_column_cache"] = cols
        return cols

    def _mask(
        self, stream: Optional[str] = None, template: Optional[str] = None
    ) -> Tuple[Dict[str, np.ndarray], Optional[np.ndarray]]:
        """The column arrays plus the boolean row mask of a filter."""
        cols = self._columns()
        mask: Optional[np.ndarray] = None
        if stream is not None:
            mask = cols["stream"] == stream
        if template is not None:
            selected = cols["template"] == template
            mask = selected if mask is None else mask & selected
        return cols, mask

    def latencies_s(
        self, stream: Optional[str] = None, template: Optional[str] = None
    ) -> List[float]:
        cols, mask = self._mask(stream, template)
        latency = cols["finish"] - cols["arrival"]
        if mask is not None:
            latency = latency[mask]
        return latency.tolist()

    def latency_percentile_s(
        self,
        p: float,
        stream: Optional[str] = None,
        template: Optional[str] = None,
    ) -> float:
        cols, mask = self._mask(stream, template)
        latency = cols["finish"] - cols["arrival"]
        if mask is not None:
            latency = latency[mask]
        return percentile(latency, p)

    def mean_queue_wait_s(self, stream: Optional[str] = None) -> float:
        cols, mask = self._mask(stream)
        wait = cols["start"] - cols["arrival"]
        if mask is not None:
            wait = wait[mask]
        if wait.size == 0:
            raise BenchmarkError("no records to average")
        # Sequential sum on purpose: numpy's pairwise reduction can differ
        # from ``sum()`` in the last ulp, which would shift golden values.
        return sum(wait.tolist()) / int(wait.size)

    def achieved_qps(self, stream: Optional[str] = None) -> float:
        """Completed queries per second of total serving time (incl. drain).

        Under overload the makespan stretches past the submission window,
        so achieved QPS converges to the service capacity — the saturation
        plateau of a latency-throughput curve.  The span is computed from
        the *filtered* records' own first arrival and last completion, so
        a stream that overlaps the run only partially is rated over its
        own active window, not the global makespan.
        """
        cols, mask = self._mask(stream)
        finish, arrival = cols["finish"], cols["arrival"]
        if mask is not None:
            finish, arrival = finish[mask], arrival[mask]
        if finish.size == 0:
            raise BenchmarkError("no completed queries to rate")
        span = float(finish.max() - arrival.min())
        if span <= 0:
            raise ZeroLengthWindowError(
                f"{int(finish.size)} completed queries span a zero-length "
                "window (first arrival coincides with last completion); "
                "a per-second rate is undefined"
            )
        return int(finish.size) / span

    def slo_attainment(
        self, threshold_s: float, stream: Optional[str] = None
    ) -> float:
        """Share of terminally resolved queries finishing within the SLO.

        Failures count against attainment (a shed or crashed query missed
        its SLO by definition), so this is a *goodput-style* fraction: a
        shard that sheds half its load cannot report perfect attainment.
        Returns 1.0 for an empty slice, matching :meth:`availability`.
        """
        if threshold_s <= 0:
            raise BenchmarkError("SLO threshold must be positive")
        cols, mask = self._mask(stream)
        latency = cols["finish"] - cols["arrival"]
        if mask is not None:
            latency = latency[mask]
        failures = self.failures
        if stream is not None:
            failures = [f for f in failures if f.stream == stream]
        resolved = int(latency.size) + len(failures)
        if resolved == 0:
            return 1.0
        within = int(np.count_nonzero(latency <= threshold_s))
        return within / resolved

    # -- serving under faults ---------------------------------------------

    @property
    def availability(self) -> float:
        """Completed share of terminally resolved queries (1.0 if none).

        A retried-then-successful query counts as available; a shed or
        retry-exhausted query counts against.  In-flight queries cannot
        exist here (the scheduler drains every event before returning).
        """
        resolved = self.counters.completed + len(self.failures)
        if resolved == 0:
            return 1.0
        return self.counters.completed / resolved

    def goodput_qps(self) -> float:
        """Successful completions per second of total serving activity.

        Unlike :meth:`achieved_qps`, the span covers failures too — time
        burned on doomed attempts stretches the denominator, which is
        exactly why goodput (not raw throughput) is the metric that drops
        under faults and recovers under mitigation.
        """
        if not self.records:
            return 0.0
        cols = self._columns()
        end = float(cols["finish"].max())
        start = float(cols["arrival"].min())
        if self.failures:
            end = max(end, max(f.failed_s for f in self.failures))
            start = min(start, min(f.arrival_s for f in self.failures))
        span = end - start
        if span <= 0:
            raise ZeroLengthWindowError(
                f"{len(self.records)} completed queries span a zero-length "
                "window (first arrival coincides with last resolution); "
                "goodput is undefined"
            )
        return len(self.records) / span

    def fault_summary(self) -> str:
        """One-line digest of the run's failure/mitigation activity."""
        c = self.counters
        try:
            goodput = f"{self.goodput_qps():.1f} QPS"
        except ZeroLengthWindowError:
            goodput = "n/a (zero-length window)"
        return (
            f"availability {self.availability:.2%}, "
            f"goodput {goodput}, "
            f"{c.retries} retries, {c.failed} failed, {c.shed} shed "
            f"({c.crashes} crashes, {c.timeouts} timeouts, "
            f"{c.edmm_denied} EDMM denials, {c.poisoned} poisoned, "
            f"{c.degraded} degraded), downtime {self.downtime_s:.2f} s"
        )

    def summary(self) -> str:
        """One-line digest for report notes (also for zero-query runs)."""
        if not self.records:
            return (
                f"0 queries completed ({self.setting_label}, "
                f"policy {self.policy})"
            )
        try:
            achieved = f"{self.achieved_qps():.1f} QPS achieved"
        except ZeroLengthWindowError:
            # A single instantaneous record has latencies but no rateable
            # window; the digest must survive it, not crash the report.
            achieved = "QPS n/a (zero-length window)"
        return (
            f"{self.counters.completed} queries, "
            f"p50 {self.latency_percentile_s(50) * 1e3:.1f} ms, "
            f"p99 {self.latency_percentile_s(99) * 1e3:.1f} ms, "
            f"{achieved}, "
            f"EPC high water {self.epc_high_water_bytes / 1e9:.2f} GB"
        )


class MetricsRegistry:
    """Per-shard metrics with a deterministic cluster-wide merge.

    The cluster scheduler registers each shard's :class:`WorkloadMetrics`
    under its shard label; :meth:`merged` folds them into one cluster-wide
    view whose records are re-sorted on ``(arrival_s, query_id)`` — a total
    order independent of registration order, so serial runs, ``--jobs N``
    workers, and cached replays all aggregate byte-identically.  Per-shard
    and cluster-wide percentiles then flow through the *same* nearest-rank
    path (:func:`percentile` via :class:`WorkloadMetrics`), never a second
    implementation that could drift.
    """

    def __init__(self) -> None:
        self._shards: Dict[str, WorkloadMetrics] = {}

    def register(self, label: str, metrics: WorkloadMetrics) -> None:
        if not label:
            raise BenchmarkError("shard label must be non-empty")
        if label in self._shards:
            raise BenchmarkError(f"shard {label!r} registered twice")
        self._shards[label] = metrics

    @property
    def labels(self) -> List[str]:
        return sorted(self._shards)

    def shard(self, label: str) -> WorkloadMetrics:
        if label not in self._shards:
            raise BenchmarkError(f"no metrics registered for shard {label!r}")
        return self._shards[label]

    def merged(
        self, setting_label: str = "", policy: str = ""
    ) -> WorkloadMetrics:
        """One cluster-wide :class:`WorkloadMetrics` over every shard.

        The merged view's ``setting_label``/``policy`` default to the
        shards' shared values; if the shards *disagree*, the merge
        refuses rather than silently stamping shard[0]'s labels onto
        everyone's records — pass an explicit non-empty override to
        merge heterogeneous shards under a label of your choosing.
        """
        if not self._shards:
            raise BenchmarkError("no shard metrics registered")
        shards = [self._shards[label] for label in self.labels]
        if not setting_label:
            settings = sorted({m.setting_label for m in shards})
            if len(settings) > 1:
                raise BenchmarkError(
                    "shards disagree on setting_label "
                    f"({', '.join(repr(s) for s in settings)}); pass an "
                    "explicit setting_label to merge them anyway"
                )
            setting_label = settings[0]
        if not policy:
            policies = sorted({m.policy for m in shards})
            if len(policies) > 1:
                raise BenchmarkError(
                    "shards disagree on policy "
                    f"({', '.join(repr(s) for s in policies)}); pass an "
                    "explicit policy to merge them anyway"
                )
            policy = policies[0]
        counters = SchedulerCounters()
        for m in shards:
            for name in vars(counters):
                setattr(
                    counters, name,
                    getattr(counters, name) + getattr(m.counters, name),
                )
        records = sorted(
            (r for m in shards for r in m.records),
            key=lambda r: (r.arrival_s, r.query_id),
        )
        failures = sorted(
            (f for m in shards for f in m.failures),
            key=lambda f: (f.failed_s, f.query_id),
        )
        return WorkloadMetrics(
            setting_label=setting_label,
            policy=policy,
            records=records,
            counters=counters,
            epc_budget_bytes=sum(m.epc_budget_bytes for m in shards),
            epc_high_water_bytes=sum(m.epc_high_water_bytes for m in shards),
            duration_s=max(m.duration_s for m in shards),
            failures=failures,
            downtime_s=sum(m.downtime_s for m in shards),
        )
