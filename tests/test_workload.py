"""The serving-workload subsystem: generators, policies, scheduler, engine."""

import random

import pytest

from repro.enclave.runtime import ExecutionSetting
from repro.errors import (
    BenchmarkError,
    ConfigurationError,
    ZeroLengthWindowError,
)
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    make_injector,
)
from repro.workload import (
    Arrival,
    ClosedLoopStream,
    EpcAwarePolicy,
    FifoPolicy,
    JobCatalog,
    JobCost,
    JobKind,
    JobTemplate,
    OpenLoopStream,
    QueryMix,
    ServingEngine,
    WorkloadConfig,
    WorkloadScheduler,
    make_policy,
    percentile,
)

MB = 1_000_000

#: Synthetic priced costs: scheduler tests need no operator runs.
COSTS = {
    "small": JobCost("small", threads=1, service_s=0.01,
                     working_set_bytes=10 * MB),
    "big": JobCost("big", threads=4, service_s=0.10,
                   working_set_bytes=400 * MB),
}


def scheduler(policy="fifo", *, cores=8, epc=1_000 * MB, bypass=None):
    return WorkloadScheduler(
        COSTS,
        make_policy(policy, bypass_bytes=bypass),
        cores=cores,
        epc_budget_bytes=epc,
        setting_label="test",
    )


class TestPercentile:
    def test_nearest_rank(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert percentile(samples, 50) == 20.0
        assert percentile(samples, 99) == 40.0
        assert percentile(samples, 0) == 10.0

    def test_extremes_hit_min_and_max(self):
        samples = [30.0, 10.0, 20.0, 40.0]
        assert percentile(samples, 0) == 10.0
        assert percentile(samples, 100) == 40.0

    def test_single_sample_is_every_percentile(self):
        for p in (0, 1, 50, 99, 100):
            assert percentile([7.5], p) == 7.5

    def test_validation(self):
        with pytest.raises(BenchmarkError):
            percentile([], 50)
        with pytest.raises(BenchmarkError):
            percentile([1.0], 101)
        with pytest.raises(BenchmarkError):
            percentile([1.0], -0.1)

    def test_nan_rejected(self):
        # NaN is unordered: sorted([nan, ...]) leaves it wherever it
        # started, so a nearest-rank percentile would silently depend on
        # input order.  The poisoned sample must be an error, not a value.
        with pytest.raises(BenchmarkError, match="NaN"):
            percentile([1.0, float("nan"), 3.0], 50)
        with pytest.raises(BenchmarkError, match="NaN"):
            percentile([float("nan")], 99)

    def test_numpy_arrays_accepted(self):
        import numpy as np

        assert percentile(np.array([10.0, 20.0, 30.0, 40.0]), 50) == 20.0
        assert isinstance(percentile(np.array([7.5]), 99), float)


class TestQueryMix:
    def test_sampling_follows_weights(self):
        mix = QueryMix.of({"a": 3.0, "b": 1.0})
        rng = random.Random(0)
        draws = [mix.sample(rng) for _ in range(4000)]
        assert 0.70 < draws.count("a") / len(draws) < 0.80

    def test_rejects_bad_weights(self):
        with pytest.raises(ConfigurationError):
            QueryMix.of({})
        with pytest.raises(ConfigurationError):
            QueryMix.of({"a": 0.0})


class TestStreams:
    def test_open_loop_deterministic_per_seed(self):
        mix = QueryMix.of({"small": 1.0})
        a = OpenLoopStream("s", qps=100.0, mix=mix, seed=7).arrivals(2.0)
        b = OpenLoopStream("s", qps=100.0, mix=mix, seed=7).arrivals(2.0)
        c = OpenLoopStream("s", qps=100.0, mix=mix, seed=8).arrivals(2.0)
        assert a == b
        assert a != c
        assert len(a) == pytest.approx(200, rel=0.3)
        assert all(0 <= arr.time_s < 2.0 for arr in a)

    def test_closed_loop_initial_arrivals(self):
        mix = QueryMix.of({"small": 1.0})
        stream = ClosedLoopStream("c", clients=5, think_s=0.1, mix=mix, seed=3)
        arrivals = stream.initial_arrivals(stream.session_rng())
        assert sorted(a.client for a in arrivals) == [0, 1, 2, 3, 4]
        assert all(0 <= a.time_s <= 0.1 for a in arrivals)

    def test_closed_loop_next_arrival_after_finish(self):
        mix = QueryMix.of({"small": 1.0})
        stream = ClosedLoopStream("c", clients=1, think_s=0.1, mix=mix)
        nxt = stream.next_arrival(stream.session_rng(), client=0,
                                  finished_at_s=5.0)
        assert nxt.time_s >= 5.0
        assert nxt.client == 0

    def test_stream_validation(self):
        mix = QueryMix.of({"small": 1.0})
        with pytest.raises(ConfigurationError):
            OpenLoopStream("s", qps=0.0, mix=mix)
        with pytest.raises(ConfigurationError):
            ClosedLoopStream("c", clients=0, think_s=0.1, mix=mix)


class TestPolicies:
    def pick(self, policy, queue, free_cores=8, epc_used=0.0):
        """``policy``'s pick as the scheduler asks for it: 8 free cores and
        a 500 MB budget's headroom, clamped at zero."""
        return policy.pick(queue, free_cores, max(0.0, 500 * MB - epc_used))

    def pending(self, name="big"):
        from repro.workload.scheduler import PendingQuery

        cost = COSTS[name]
        return PendingQuery(
            query_id=0, stream="s", template=name, client=-1, arrival_s=0.0,
            threads=cost.threads, service_s=cost.service_s,
            working_set_bytes=cost.working_set_bytes,
        )

    def test_fifo_admits_overflow_with_penalty(self):
        from collections import deque

        queue = deque([self.pending("big")])
        decision = self.pick(FifoPolicy(), queue, epc_used=300 * MB)
        assert decision is not None
        assert decision.overflow_bytes == 200 * MB  # 400 demanded, 200 left

    def test_epc_aware_holds_until_headroom(self):
        from collections import deque

        policy = EpcAwarePolicy()
        queue = deque([self.pending("big")])
        assert self.pick(policy, queue, epc_used=300 * MB) is None
        assert policy.last_block_reason == "epc"
        decision = self.pick(policy, queue, epc_used=0.0)
        assert decision is not None and decision.overflow_bytes == 0

    def test_bypass_lane_jumps_blocked_head(self):
        from collections import deque

        policy = EpcAwarePolicy(bypass_bytes=50 * MB)
        queue = deque([self.pending("big"), self.pending("small")])
        decision = self.pick(policy, queue, epc_used=300 * MB)
        assert decision is not None
        assert decision.queue_index == 1
        assert decision.bypassed

    def test_make_policy(self):
        assert make_policy("fifo").label == "fifo"
        assert make_policy("epc-aware+bypass", bypass_bytes=1).label == \
            "epc-aware+bypass"
        with pytest.raises(ConfigurationError):
            make_policy("epc-aware+bypass")  # no threshold supplied
        with pytest.raises(ConfigurationError):
            make_policy("lifo")

    def test_squeezed_budget_never_yields_negative_headroom(self):
        from collections import deque

        # Regression: an EPC_SQUEEZE can shrink the budget below what
        # running queries already hold; headroom used to go negative,
        # over-penalising FIFO overflow accounting and making EpcAware
        # admission depend on sign conventions.  The scheduler clamps.
        # FIFO overflow is capped at the query's whole demand.
        queue = deque([self.pending("big")])
        decision = self.pick(FifoPolicy(), queue, epc_used=600 * MB)
        assert decision.overflow_bytes == self.pending("big").working_set_bytes
        # EpcAware holds the query instead of admitting on a negative.
        policy = EpcAwarePolicy()
        assert self.pick(policy, queue, epc_used=600 * MB) is None
        assert policy.last_block_reason == "epc"

    def test_bypass_threshold_validated_against_plausible_epc(self):
        from repro.workload.policies import MAX_BYPASS_BYTES

        # Regression: thresholds beyond any plausible EPC budget used to be
        # silently accepted, turning the "small-query" lane into a full
        # queue reorder.
        with pytest.raises(ConfigurationError):
            make_policy("fifo", bypass_bytes=MAX_BYPASS_BYTES + 1)
        with pytest.raises(ConfigurationError):
            EpcAwarePolicy(bypass_bytes=2 * MAX_BYPASS_BYTES)
        assert make_policy("fifo", bypass_bytes=MAX_BYPASS_BYTES) \
            .bypass_bytes == MAX_BYPASS_BYTES


class TestScheduler:
    MIX = QueryMix.of({"small": 0.7, "big": 0.3})

    def run(self, policy="fifo", *, epc=1_000 * MB, bypass=None, qps=120.0):
        return scheduler(policy, epc=epc, bypass=bypass).run(
            open_streams=(OpenLoopStream("t", qps=qps, mix=self.MIX, seed=5),),
            duration_s=2.0,
        )

    def test_every_arrival_completes(self):
        metrics = self.run()
        assert metrics.counters.arrivals == metrics.counters.completed
        assert len(metrics.records) == metrics.counters.completed
        assert metrics.counters.dispatched_immediately \
            + metrics.counters.queued == metrics.counters.arrivals

    def test_deterministic_given_seed(self):
        a, b = self.run(), self.run()
        assert a.records == b.records
        assert a.counters.as_dict() == b.counters.as_dict()
        assert a.epc_high_water_bytes == b.epc_high_water_bytes

    def test_records_internally_consistent(self):
        for r in self.run().records:
            assert r.arrival_s <= r.start_s < r.finish_s
            assert r.queue_wait_s >= 0
            assert r.service_s > 0

    def test_epc_aware_never_exceeds_budget(self):
        metrics = self.run("epc-aware", epc=500 * MB)
        assert metrics.epc_high_water_bytes <= 500 * MB
        assert metrics.counters.edmm_admissions == 0

    def test_fifo_overflows_and_pays(self):
        tight = self.run("fifo", epc=500 * MB)
        roomy = self.run("fifo", epc=100_000 * MB)
        assert tight.epc_high_water_bytes > 500 * MB
        assert tight.counters.edmm_admissions > 0
        # The overflow penalty stretches service times.
        assert tight.latency_percentile_s(99) > roomy.latency_percentile_s(99)

    def test_bypass_improves_small_query_latency(self):
        plain = self.run("epc-aware", epc=500 * MB)
        lane = self.run("epc-aware+bypass", epc=500 * MB, bypass=20 * MB)
        assert lane.counters.bypass_dispatches > 0
        assert lane.latency_percentile_s(99, template="small") < \
            plain.latency_percentile_s(99, template="small")

    def test_closed_loop_in_flight_never_exceeds_clients(self):
        mix = QueryMix.of({"small": 1.0})
        sched = WorkloadScheduler(
            {"small": COSTS["small"]},
            make_policy("fifo"),
            cores=2,
            epc_budget_bytes=1_000 * MB,
            setting_label="test",
        )
        metrics = sched.run(
            closed_streams=(
                ClosedLoopStream("c", clients=2, think_s=0.01, mix=mix, seed=2),
            ),
            duration_s=1.0,
        )
        events = sorted(
            [(r.arrival_s, 1) for r in metrics.records]
            + [(r.finish_s, -1) for r in metrics.records]
        )
        in_flight = peak = 0
        for _, delta in events:
            in_flight += delta
            peak = max(peak, in_flight)
        assert peak <= 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            scheduler(cores=0)
        with pytest.raises(ConfigurationError):
            scheduler(epc=0)
        with pytest.raises(ConfigurationError):
            scheduler(cores=2)  # big needs 4 threads
        with pytest.raises(ConfigurationError):
            scheduler().run(open_streams=(), duration_s=1.0)

    def test_result_is_final(self):
        # Regression: result() said "call exactly once" but a second call
        # appended another run-end event and counted every scheduler.*
        # counter into the tracer again.
        from repro.trace import Tracer, use_tracer

        tracer = Tracer()
        served = scheduler()
        with use_tracer(tracer):
            metrics = served.run(
                open_streams=(
                    OpenLoopStream("t", qps=50.0, mix=self.MIX, seed=5),
                ),
                duration_s=1.0,
            )
            counted = dict(tracer.counters)
            with pytest.raises(ConfigurationError, match="already called"):
                served.result()
        assert tracer.counters == counted
        assert counted["scheduler.completed"] == metrics.counters.completed
        run_ends = [r for r in tracer.records if r.name == "serving.run_end"]
        assert len(run_ends) == 1


class _FixedStream:
    """A stub open stream: a name and a fixed arrival list."""

    def __init__(self, name, arrivals):
        self.name = name
        self._arrivals = [Arrival(t, name, template) for t, template in arrivals]

    def arrivals(self, duration_s):
        return list(self._arrivals)


class TestSameInstantOrdering:
    """Ties resolve as one heap keyed (time, kind, seq) would: finishes,
    then wakes, then pre-generated arrivals in stream order, then arrivals
    pushed during the run (retries).

    One query runs at a time (two cores, two threads each), so every
    service is its base time.  The timeline, by hand:

    * 0.00  q0 ``p`` (s1) runs, poisoned;      0.25 it fails, retry at 0.50
    * 0.50  q1 ``a`` (s2) runs to 1.00; the retry of q0 queues behind it
    * 1.00  q0's retry runs to 1.25 (the poison window has closed)
    * 1.25  q0 finishes, then q2 (s1) runs at once to 1.75, q3 (s2) queues
    * 1.50  wake (squeeze starts): q3 still blocked on cores
    * 1.75  q2 finishes; the squeezed budget (50 MB) blocks q3 on EPC
    * 2.00  wake (squeeze ends): q3 runs to 2.50, then q4 (s1) queues
    * 2.50  q4 runs to 3.00
    """

    COSTS = {
        "a": JobCost("a", threads=2, service_s=0.5, working_set_bytes=60 * MB),
        "p": JobCost("p", threads=2, service_s=0.25, working_set_bytes=60 * MB),
    }

    def run(self):
        plan = FaultPlan(
            "ties",
            specs=(
                FaultSpec(FaultKind.POISON_JOB, 0.0, 0.5, template="p"),
                FaultSpec(FaultKind.EPC_SQUEEZE, 1.5, 2.0, magnitude=0.5),
            ),
        )
        sched = WorkloadScheduler(
            self.COSTS,
            make_policy("epc-aware"),
            cores=2,
            epc_budget_bytes=100 * MB,
            setting_label="test",
            injector=make_injector(plan),
            resilience=ResiliencePolicy(
                max_retries=1, backoff_base_s=0.25, jitter=0.0
            ),
        )
        return sched.run(
            open_streams=(
                _FixedStream("s1", [(0.0, "p"), (1.25, "a"), (2.0, "a")]),
                _FixedStream("s2", [(0.5, "a"), (1.25, "a")]),
            ),
            duration_s=3.0,
        )

    def test_finish_frees_cores_before_same_instant_arrivals(self):
        counters = self.run().counters
        # q2 is dispatched by its own arrival at 1.25, not queued until
        # q0's finish at the same instant frees the cores.
        assert counters.dispatched_immediately == 3  # q0, q1, q2
        assert counters.queued == 2  # q3, q4
        # The retry's round at 0.50, q3's at 1.25, the wake at 1.50 and
        # q4's at 2.00 (after the wake has dispatched q3, not before).
        assert counters.blocked_on_cores == 4
        assert counters.blocked_on_epc == 1
        assert (counters.poisoned, counters.retries) == (1, 1)

    def test_same_instant_arrivals_take_ids_in_stream_order(self):
        streams = {r.query_id: r.stream for r in self.run().records}
        assert streams == {0: "s1", 1: "s2", 2: "s1", 3: "s2", 4: "s1"}

    def test_schedule_matches_the_hand_computed_one(self):
        metrics = self.run()
        schedule = {
            r.query_id: (r.arrival_s, r.start_s, r.finish_s, r.attempts)
            for r in metrics.records
        }
        assert schedule == {
            0: (0.0, 1.0, 1.25, 2),
            1: (0.5, 0.5, 1.0, 1),
            2: (1.25, 1.25, 1.75, 1),
            3: (1.25, 2.0, 2.5, 1),
            4: (2.0, 2.5, 3.0, 1),
        }
        assert metrics.failures == []


class TestMetricsRegressions:
    """Regressions for the PR-1 serving-metrics bugs."""

    @staticmethod
    def record(query_id, stream, arrival_s, finish_s, start_s=None):
        from repro.workload.metrics import QueryRecord

        return QueryRecord(
            query_id=query_id,
            stream=stream,
            template="small",
            client=-1,
            arrival_s=arrival_s,
            start_s=arrival_s if start_s is None else start_s,
            finish_s=finish_s,
            working_set_bytes=MB,
        )

    @staticmethod
    def metrics(records):
        from repro.workload.metrics import WorkloadMetrics

        return WorkloadMetrics(
            setting_label="test", policy="fifo", records=records
        )

    def test_per_stream_qps_uses_stream_own_span(self):
        # Stream A serves 10 queries over [0, 10]; stream B starts only at
        # t=20 and serves 5 over [20, 30].  Dividing by the global makespan
        # (the old bug) would understate both streams' throughput.
        records = [
            self.record(i, "A", float(i), float(i) + 1.0) for i in range(10)
        ] + [
            self.record(10 + i, "B", 20.0 + 2.0 * i, 22.0 + 2.0 * i)
            for i in range(5)
        ]
        metrics = self.metrics(records)
        assert metrics.achieved_qps(stream="A") == pytest.approx(10 / 10.0)
        assert metrics.achieved_qps(stream="B") == pytest.approx(5 / 10.0)
        # The global rate still spans first arrival to last completion.
        assert metrics.achieved_qps() == pytest.approx(15 / 30.0)

    def test_makespan_anchored_at_first_arrival(self):
        # Every query arrives at t=5: the 5 idle lead-in seconds are not
        # serving time (the docstring always said so; the code disagreed).
        records = [self.record(i, "A", 5.0, 15.0) for i in range(3)]
        metrics = self.metrics(records)
        assert metrics.makespan_s == pytest.approx(10.0)
        assert metrics.achieved_qps() == pytest.approx(3 / 10.0)

    def test_zero_query_summary_does_not_raise(self):
        metrics = self.metrics([])
        digest = metrics.summary()
        assert "0 queries" in digest
        assert "fifo" in digest

    def test_empty_rate_still_raises(self):
        with pytest.raises(BenchmarkError):
            self.metrics([]).achieved_qps()
        with pytest.raises(BenchmarkError):
            self.metrics([self.record(0, "A", 0.0, 1.0)]).achieved_qps(
                stream="ghost"
            )


class TestJobs:
    def test_template_validation(self):
        with pytest.raises(ConfigurationError):
            JobTemplate("bad", JobKind.TPCH, query="Q99")
        with pytest.raises(ConfigurationError):
            JobTemplate("bad", JobKind.JOIN, build_bytes=0, probe_bytes=1)
        with pytest.raises(ConfigurationError):
            JobTemplate("bad", JobKind.SCAN, scan_bytes=0)
        with pytest.raises(ConfigurationError):
            JobTemplate("bad", JobKind.SCAN, threads=0, scan_bytes=1)

    def test_catalog_prices_and_caches(self):
        catalog = JobCatalog(quick=True)
        template = JobTemplate("tiny-scan", JobKind.SCAN, threads=1,
                               scan_bytes=4e6)
        first = catalog.profile(template)
        assert catalog.profile(template) is first  # cached
        plain = catalog.cost(template, ExecutionSetting.plain_cpu())
        sgx = catalog.cost(template, ExecutionSetting.sgx_data_in_enclave())
        assert plain.service_s > 0
        assert sgx.service_s >= plain.service_s
        assert sgx.working_set_bytes > 0

    def test_unpriced_setting_rejected(self):
        from repro.workload.jobs import JobProfile

        profile = JobProfile("x", threads=1, working_set_bytes=0,
                             service_seconds_by_setting={})
        with pytest.raises(ConfigurationError):
            profile.service_seconds(ExecutionSetting.plain_cpu())


class TestServingEngine:
    @pytest.fixture(scope="class")
    def engine(self):
        templates = {
            "tiny-scan": JobTemplate("tiny-scan", JobKind.SCAN, threads=1,
                                     scan_bytes=4e6),
        }
        return ServingEngine(JobCatalog(quick=True), templates)

    def config(self, setting, **kwargs):
        mix = QueryMix.of({"tiny-scan": 1.0})
        return WorkloadConfig(
            setting=setting,
            open_streams=(OpenLoopStream("t", qps=50.0, mix=mix, seed=9),),
            duration_s=2.0,
            cores=4,
            **kwargs,
        )

    def test_run_is_deterministic(self, engine):
        config = self.config(ExecutionSetting.sgx_data_in_enclave())
        a, b = engine.run(config), engine.run(config)
        assert a.records == b.records
        assert a.counters.as_dict() == b.counters.as_dict()

    def test_epc_budget_defaults(self, engine):
        import math

        plain = self.config(ExecutionSetting.plain_cpu())
        sgx = self.config(ExecutionSetting.sgx_data_in_enclave())
        capped = self.config(ExecutionSetting.sgx_data_in_enclave(),
                             epc_budget_bytes=123.0)
        assert engine.epc_budget(plain) == math.inf
        assert engine.epc_budget(sgx) == 64 * 2**30  # socket EPC (Table 1)
        assert engine.epc_budget(capped) == 123.0

    def test_unknown_template_rejected(self, engine):
        mix = QueryMix.of({"no-such": 1.0})
        config = WorkloadConfig(
            setting=ExecutionSetting.plain_cpu(),
            open_streams=(OpenLoopStream("t", qps=1.0, mix=mix),),
        )
        with pytest.raises(ConfigurationError):
            engine.run(config)

    def test_config_validation(self):
        mix = QueryMix.of({"tiny-scan": 1.0})
        with pytest.raises(ConfigurationError):
            WorkloadConfig(setting=ExecutionSetting.plain_cpu())
        with pytest.raises(ConfigurationError):
            WorkloadConfig(
                setting=ExecutionSetting.plain_cpu(),
                open_streams=(
                    OpenLoopStream("dup", qps=1.0, mix=mix),
                    OpenLoopStream("dup", qps=2.0, mix=mix),
                ),
            )


from repro.workload.metrics import (  # noqa: E402
    FailureRecord,
    MetricsRegistry,
    QueryRecord,
    SchedulerCounters,
    WorkloadMetrics,
)


def _record(query_id, arrival_s, finish_s, stream="t"):
    return QueryRecord(
        query_id=query_id,
        stream=stream,
        template="small",
        client=0,
        arrival_s=arrival_s,
        start_s=arrival_s,
        finish_s=finish_s,
        working_set_bytes=MB,
    )


def _failure(query_id, arrival_s, stream="t"):
    return FailureRecord(
        query_id=query_id,
        stream=stream,
        template="small",
        client=0,
        arrival_s=arrival_s,
        failed_s=arrival_s + 1.0,
        attempts=1,
        outcome="shed",
    )


class TestSloAttainment:
    def metrics(self):
        counters = SchedulerCounters()
        counters.completed = 3
        return WorkloadMetrics(
            setting_label="test",
            policy="fifo",
            records=[
                _record(1, 0.0, 0.01),
                _record(2, 0.0, 0.05),
                _record(3, 0.0, 0.50, stream="u"),
            ],
            counters=counters,
            failures=[_failure(4, 0.0)],
        )

    def test_counts_failures_against_attainment(self):
        metrics = self.metrics()
        # Of 4 resolved queries, 2 finish within 100 ms (the failure and
        # the 500 ms straggler miss).
        assert metrics.slo_attainment(0.1) == pytest.approx(0.5)
        assert metrics.slo_attainment(1.0) == pytest.approx(0.75)

    def test_stream_filter(self):
        metrics = self.metrics()
        # Stream "t": records at 10/50 ms plus the shed query.
        assert metrics.slo_attainment(0.1, stream="t") == pytest.approx(2 / 3)
        assert metrics.slo_attainment(0.1, stream="u") == 0.0

    def test_empty_slice_is_perfect(self):
        metrics = self.metrics()
        assert metrics.slo_attainment(0.1, stream="ghost") == 1.0

    def test_non_positive_threshold_rejected(self):
        with pytest.raises(BenchmarkError):
            self.metrics().slo_attainment(0.0)


class TestMetricsRegistry:
    def shard_metrics(self, base, n=3, stream="t"):
        counters = SchedulerCounters()
        counters.arrivals = counters.completed = n
        return WorkloadMetrics(
            setting_label="test",
            policy="fifo",
            records=[
                _record(base + i, 0.01 * i, 0.01 * i + 0.005, stream=stream)
                for i in range(n)
            ],
            counters=counters,
            epc_budget_bytes=100.0,
            epc_high_water_bytes=10,
            duration_s=1.0 + base / 1000.0,
        )

    def test_merge_is_registration_order_independent(self):
        # The --jobs N guarantee: whatever order shard results arrive in,
        # the merged view is identical.
        a, b, c = (self.shard_metrics(base) for base in (0, 100, 200))
        forward = MetricsRegistry()
        for label, m in (("s0", a), ("s1", b), ("s2", c)):
            forward.register(label, m)
        backward = MetricsRegistry()
        for label, m in (("s2", c), ("s0", a), ("s1", b)):
            backward.register(label, m)
        first, second = forward.merged(), backward.merged()
        assert first.records == second.records
        assert first.failures == second.failures
        assert vars(first.counters) == vars(second.counters)
        assert first.epc_budget_bytes == second.epc_budget_bytes == 300.0
        assert first.duration_s == second.duration_s == 1.2

    def test_merge_sorts_by_arrival_then_query_id(self):
        registry = MetricsRegistry()
        registry.register("s1", self.shard_metrics(100))
        registry.register("s0", self.shard_metrics(0))
        merged = registry.merged()
        keys = [(r.arrival_s, r.query_id) for r in merged.records]
        assert keys == sorted(keys)

    def test_counters_sum_across_shards(self):
        registry = MetricsRegistry()
        registry.register("s0", self.shard_metrics(0, n=2))
        registry.register("s1", self.shard_metrics(100, n=5))
        assert registry.merged().counters.completed == 7

    def test_duplicate_and_empty_labels_rejected(self):
        registry = MetricsRegistry()
        registry.register("s0", self.shard_metrics(0))
        with pytest.raises(BenchmarkError):
            registry.register("s0", self.shard_metrics(100))
        with pytest.raises(BenchmarkError):
            registry.register("", self.shard_metrics(100))

    def test_empty_registry_cannot_merge(self):
        with pytest.raises(BenchmarkError):
            MetricsRegistry().merged()

    def test_unknown_shard_lookup_rejected(self):
        with pytest.raises(BenchmarkError):
            MetricsRegistry().shard("ghost")


class TestZeroLengthWindows:
    """A run whose records exist but span zero time: rates are undefined,
    digests must survive."""

    def metrics(self, *, failures=()):
        counters = SchedulerCounters()
        counters.completed = 1
        return WorkloadMetrics(
            setting_label="test",
            policy="fifo",
            records=[_record(1, 5.0, 5.0)],  # instantaneous completion
            counters=counters,
            failures=list(failures),
        )

    def test_achieved_qps_raises_distinct_error(self):
        with pytest.raises(ZeroLengthWindowError):
            self.metrics().achieved_qps()
        # ...which is still a BenchmarkError, so existing handlers hold.
        with pytest.raises(BenchmarkError):
            self.metrics().achieved_qps()

    def test_goodput_qps_raises_distinct_error(self):
        with pytest.raises(ZeroLengthWindowError):
            self.metrics().goodput_qps()

    def test_goodput_failures_can_widen_the_window(self):
        # A failure resolving later than the instantaneous record gives
        # goodput a real window again: no error, rated over the failure's
        # span.
        metrics = self.metrics(failures=[_failure(2, 5.0)])  # fails at 6.0
        assert metrics.goodput_qps() == pytest.approx(1.0)

    def test_summary_survives(self):
        digest = self.metrics().summary()
        assert "zero-length window" in digest
        assert "1 queries" in digest

    def test_fault_summary_survives(self):
        digest = self.metrics().fault_summary()
        assert "zero-length window" in digest

    def test_empty_still_plain_benchmark_error(self):
        # No records at all stays the historical BenchmarkError, not the
        # zero-length-window flavor: nothing happened vs. rate undefined.
        try:
            WorkloadMetrics(
                setting_label="test", policy="fifo", records=[]
            ).achieved_qps()
        except ZeroLengthWindowError:  # pragma: no cover - regression trap
            pytest.fail("empty metrics must not raise ZeroLengthWindowError")
        except BenchmarkError:
            pass


class TestMergedLabelGuards:
    """merged() must not silently stamp one shard's labels onto another."""

    def shard(self, base, *, setting_label="sgx", policy="fifo"):
        counters = SchedulerCounters()
        counters.arrivals = counters.completed = 2
        return WorkloadMetrics(
            setting_label=setting_label,
            policy=policy,
            records=[
                _record(base + i, 0.01 * i, 0.01 * i + 0.005)
                for i in range(2)
            ],
            counters=counters,
        )

    def test_mixed_setting_labels_rejected(self):
        registry = MetricsRegistry()
        registry.register("s0", self.shard(0, setting_label="sgx"))
        registry.register("s1", self.shard(100, setting_label="native"))
        with pytest.raises(BenchmarkError, match="setting_label"):
            registry.merged()

    def test_mixed_policies_rejected(self):
        registry = MetricsRegistry()
        registry.register("s0", self.shard(0, policy="fifo"))
        registry.register("s1", self.shard(100, policy="epc-aware"))
        with pytest.raises(BenchmarkError, match="policy"):
            registry.merged()

    def test_explicit_override_merges_anyway(self):
        registry = MetricsRegistry()
        registry.register("s0", self.shard(0, setting_label="sgx"))
        registry.register("s1", self.shard(100, setting_label="native"))
        merged = registry.merged(setting_label="mixed")
        assert merged.setting_label == "mixed"
        assert len(merged.records) == 4

    def test_agreeing_shards_merge_without_override(self):
        registry = MetricsRegistry()
        registry.register("s0", self.shard(0))
        registry.register("s1", self.shard(100))
        merged = registry.merged()
        assert merged.setting_label == "sgx"
        assert merged.policy == "fifo"


class TestEngineClusterChannel:
    """The engine's cluster resolution: explicit, ambient, spec string."""

    def config(self, **overrides):
        from repro.enclave.runtime import ExecutionSetting

        base = dict(
            setting=ExecutionSetting.sgx_data_in_enclave(),
            open_streams=(
                OpenLoopStream(
                    "t", qps=200.0, mix=QueryMix.of({"scan-small": 1.0}),
                    seed=3,
                ),
            ),
            duration_s=1.0,
            policy="fifo",
        )
        base.update(overrides)
        return WorkloadConfig(**base)

    def test_ambient_cluster_matches_explicit(self):
        from repro.cluster import ClusterConfig
        from repro.runconfig import RunConfig, use_run_config

        engine = ServingEngine(JobCatalog(quick=True))
        cluster = ClusterConfig.parse("2x2")
        explicit = engine.run(self.config(cluster=cluster))
        with use_run_config(RunConfig(cluster=cluster)):
            ambient = engine.run(self.config())
        assert explicit.records == ambient.records
        assert vars(explicit.counters) == vars(ambient.counters)

    def test_spec_string_parses_like_a_config(self):
        from repro.cluster import ClusterConfig

        engine = ServingEngine(JobCatalog(quick=True))
        by_string = engine.run(self.config(cluster="2x2"))
        by_config = engine.run(
            self.config(cluster=ClusterConfig.parse("2x2"))
        )
        assert by_string.records == by_config.records

    def test_run_returns_the_merged_cluster_metrics(self):
        engine = ServingEngine(JobCatalog(quick=True))
        run_metrics = engine.run(self.config(cluster="2x2"))
        result = engine.run_cluster(self.config(cluster="2x2"))
        assert run_metrics.records == result.metrics.records
        assert len(result.registry.labels) == 4

    def test_bad_cluster_type_rejected(self):
        engine = ServingEngine(JobCatalog(quick=True))
        with pytest.raises(ConfigurationError):
            engine.run_config_of(self.config(cluster=42))

    def test_without_cluster_nothing_changes(self):
        engine = ServingEngine(JobCatalog(quick=True))
        assert engine.run_config_of(self.config()).cluster is None
        with pytest.raises(ConfigurationError):
            engine.run_cluster(self.config())
