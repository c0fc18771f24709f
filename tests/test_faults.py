"""The fault-injection + resilience subsystem: plans, injector, scheduler."""

import pytest

from repro.cache import experiment_key
from repro.errors import ConfigurationError
from repro.faults import (
    NO_FAULTS,
    NULL_INJECTOR,
    CircuitBreaker,
    FaultKind,
    FaultPlan,
    FaultSpec,
    PlanInjector,
    ResiliencePolicy,
    fault_plans,
    get_fault_plan,
    make_injector,
)
from repro.runconfig import RunConfig
from repro.trace import Tracer, fault_breakdown, use_tracer
from repro.trace.breakdown import FAILED, RETRY, SHED
from repro.workload import (
    ClosedLoopStream,
    JobCost,
    OpenLoopStream,
    QueryMix,
    WorkloadScheduler,
    make_policy,
)

MB = 1_000_000

COSTS = {
    "small": JobCost("small", threads=1, service_s=0.01,
                     working_set_bytes=10 * MB),
    "big": JobCost("big", threads=4, service_s=0.10,
                   working_set_bytes=400 * MB),
}


def scheduler(policy="fifo", *, cores=8, epc=1_000 * MB, injector=None,
              resilience=None):
    return WorkloadScheduler(
        COSTS,
        make_policy(policy),
        cores=cores,
        epc_budget_bytes=epc,
        setting_label="test",
        injector=injector,
        resilience=resilience,
    )


def stream(qps=50.0, mix=None, seed=7, name="s"):
    return OpenLoopStream(
        name, qps=qps, mix=QueryMix.of(mix or {"small": 1.0}), seed=seed
    )


def run(sched, *, duration=2.0, streams=None, closed=()):
    return sched.run(
        open_streams=streams if streams is not None else (stream(),),
        closed_streams=closed,
        duration_s=duration,
    )


def plan_of(*specs, seed=23):
    return FaultPlan(name="t", seed=seed, specs=tuple(specs))


class TestFaultSpec:
    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.AEX_STORM, start_s=2.0, end_s=2.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.AEX_STORM, start_s=-1.0)

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.ENCLAVE_CRASH, probability=1.5)

    def test_storm_cannot_speed_up(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.AEX_STORM, magnitude=0.5)

    def test_squeeze_magnitude_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.EPC_SQUEEZE, magnitude=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.EPC_SQUEEZE, magnitude=0.0)

    def test_poison_needs_template(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.POISON_JOB)

    def test_active_window(self):
        spec = FaultSpec(FaultKind.AEX_STORM, start_s=1.0, end_s=2.0)
        assert not spec.active(0.5)
        assert spec.active(1.0)
        assert not spec.active(2.0)


class TestFaultPlan:
    def test_catalog_contains_chaos(self):
        plans = fault_plans()
        assert "none" in plans and "chaos" in plans
        assert plans["none"].empty
        assert len(plans["chaos"].specs) == 5

    def test_unknown_plan_lists_known(self):
        with pytest.raises(ConfigurationError, match="chaos"):
            get_fault_plan("nope")

    def test_window_edges_only_squeezes(self):
        plan = plan_of(
            FaultSpec(FaultKind.EPC_SQUEEZE, start_s=1.0, end_s=3.0,
                      magnitude=0.5),
            FaultSpec(FaultKind.AEX_STORM, start_s=0.5, end_s=2.5),
        )
        assert plan.window_edges(10.0) == (1.0, 3.0)
        assert plan.window_edges(2.0) == (1.0,)  # end past the horizon


class TestInjector:
    def test_null_injector_is_identity(self):
        inj = NULL_INJECTOR
        assert not inj.active
        assert inj.service_multiplier(1.0, 0, 0) == 1.0
        assert inj.epc_multiplier(1.0) == 1.0
        assert not inj.edmm_denied(1.0, 0, 0)
        assert not inj.squeezed(1.0)
        assert inj.crash(1.0, 0, 0) is None
        assert not inj.poisoned(1.0, "small")
        assert inj.wake_times(10.0) == ()

    def test_make_injector_empty_plan_is_null(self):
        assert make_injector(None) is NULL_INJECTOR
        assert make_injector(NO_FAULTS) is NULL_INJECTOR
        assert make_injector(get_fault_plan("chaos")).active

    def test_storms_compose(self):
        inj = PlanInjector(plan_of(
            FaultSpec(FaultKind.AEX_STORM, end_s=5.0, magnitude=2.0),
            FaultSpec(FaultKind.AEX_STORM, end_s=5.0, magnitude=3.0),
        ))
        assert inj.service_multiplier(1.0, 0, 0) == 6.0
        assert inj.service_multiplier(7.0, 0, 0) == 1.0

    def test_draws_are_order_independent(self):
        plan = plan_of(FaultSpec(FaultKind.ENCLAVE_CRASH, probability=0.5))
        a, b = PlanInjector(plan), PlanInjector(plan)
        # Query the two instances in different orders: per-query outcomes
        # must match exactly (pure function of identity, not call order).
        ids = list(range(50))
        first = {i: a.crash(0.0, i, 0) is not None for i in ids}
        second = {i: b.crash(0.0, i, 0) is not None for i in reversed(ids)}
        assert first == second
        assert any(first.values()) and not all(first.values())

    def test_seed_changes_draws(self):
        spec = FaultSpec(FaultKind.ENCLAVE_CRASH, probability=0.5)
        a = PlanInjector(plan_of(spec, seed=1))
        b = PlanInjector(plan_of(spec, seed=2))
        outcomes_a = [a.crash(0.0, i, 0) is not None for i in range(64)]
        outcomes_b = [b.crash(0.0, i, 0) is not None for i in range(64)]
        assert outcomes_a != outcomes_b

    def test_crash_fraction_strictly_inside_service(self):
        inj = PlanInjector(plan_of(
            FaultSpec(FaultKind.ENCLAVE_CRASH, probability=1.0, reinit_s=0.4)
        ))
        for i in range(32):
            draw = inj.crash(0.0, i, 0)
            assert 0.0 < draw.fraction < 1.0
            assert draw.reinit_s == 0.4


class TestResiliencePolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(breaker_threshold=0)

    def test_backoff_grows_exponentially_without_jitter(self):
        policy = ResiliencePolicy(backoff_base_s=0.1, backoff_multiplier=2.0,
                                  jitter=0.0)
        assert policy.backoff_s(5, 1) == pytest.approx(0.1)
        assert policy.backoff_s(5, 2) == pytest.approx(0.2)
        assert policy.backoff_s(5, 3) == pytest.approx(0.4)

    def test_jitter_is_bounded_and_deterministic(self):
        policy = ResiliencePolicy(backoff_base_s=0.1, jitter=0.5)
        delays = [policy.backoff_s(q, 1) for q in range(32)]
        assert delays == [policy.backoff_s(q, 1) for q in range(32)]
        assert all(0.05 <= d <= 0.15 for d in delays)
        assert len(set(delays)) > 1  # jitter actually varies per query


class TestCircuitBreaker:
    def test_opens_after_threshold_and_cools_down(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=1.0)
        assert not breaker.record_failure("t", 0.0)
        assert not breaker.record_failure("t", 0.1)
        assert breaker.record_failure("t", 0.2)  # opens exactly here
        assert breaker.is_open("t", 0.5)
        assert not breaker.is_open("t", 1.3)  # cooldown elapsed: closed
        assert breaker.opened_total == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=1.0)
        breaker.record_failure("t", 0.0)
        breaker.record_success("t")
        assert not breaker.record_failure("t", 0.1)
        assert breaker.record_failure("t", 0.2)

    def test_streams_are_independent(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0)
        breaker.record_failure("a", 0.0)
        assert breaker.is_open("a", 1.0)
        assert not breaker.is_open("b", 1.0)


class TestScheduledFaults:
    def test_null_injector_equals_plain_run(self):
        plain = run(scheduler())
        nulled = run(scheduler(injector=NULL_INJECTOR))
        assert plain.records == nulled.records
        assert plain.counters == nulled.counters
        assert nulled.failures == [] and nulled.downtime_s == 0.0

    def test_aex_storm_inflates_services(self):
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.AEX_STORM, magnitude=3.0)
        ))
        base = run(scheduler())
        stormy = run(scheduler(injector=inj))
        assert stormy.counters.aex_inflations == stormy.counters.completed
        assert stormy.makespan_s > base.makespan_s
        # Same arrivals, same completions: the storm only stretches time.
        assert [r.query_id for r in stormy.records] == [
            r.query_id for r in base.records
        ]

    def test_crash_without_resilience_fails_terminally(self):
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.ENCLAVE_CRASH, probability=0.3, reinit_s=0.2)
        ))
        metrics = run(scheduler(injector=inj))
        assert metrics.counters.crashes > 0
        assert metrics.counters.failed == len(metrics.failures) > 0
        assert all(f.outcome == "crash" and f.attempts == 1
                   for f in metrics.failures)
        assert metrics.downtime_s == pytest.approx(
            0.2 * metrics.counters.crashes
        )
        assert metrics.availability < 1.0

    def test_crash_with_retries_recovers(self):
        plan = plan_of(
            FaultSpec(FaultKind.ENCLAVE_CRASH, probability=0.3, reinit_s=0.05)
        )
        unmitigated = run(scheduler(injector=make_injector(plan)))
        mitigated = run(scheduler(
            injector=make_injector(plan),
            resilience=ResiliencePolicy(max_retries=5, breaker_threshold=100),
        ))
        assert mitigated.counters.retries > 0
        assert mitigated.counters.completed > unmitigated.counters.completed
        assert mitigated.availability > unmitigated.availability
        assert any(r.attempts > 1 for r in mitigated.records)

    def test_poison_breaker_sheds_stream(self):
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.POISON_JOB, template="small")
        ))
        metrics = run(scheduler(
            injector=inj,
            resilience=ResiliencePolicy(
                max_retries=0, breaker_threshold=3, breaker_cooldown_s=100.0
            ),
        ))
        assert metrics.counters.completed == 0
        assert metrics.counters.poisoned >= 3
        assert metrics.counters.shed > 0
        # Shed arrivals fail instantly: no service time burned.
        shed = [f for f in metrics.failures if f.outcome == "shed"]
        assert shed and all(f.failed_s == f.arrival_s for f in shed)

    def test_epc_squeeze_overflows_without_degradation(self):
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.EPC_SQUEEZE, end_s=10.0, magnitude=0.3)
        ))
        base = run(scheduler(epc=1_000 * MB),
                   streams=(stream(mix={"big": 1.0}, qps=30.0),))
        squeezed = run(scheduler(epc=1_000 * MB, injector=inj),
                       streams=(stream(mix={"big": 1.0}, qps=30.0),))
        assert base.counters.edmm_admissions == 0
        assert squeezed.counters.edmm_admissions > 0
        assert squeezed.counters.degraded == 0

    def test_degradation_replaces_overflow_under_squeeze(self):
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.EPC_SQUEEZE, end_s=10.0, magnitude=0.3)
        ))
        degraded = run(
            scheduler(
                epc=1_000 * MB,
                injector=inj,
                resilience=ResiliencePolicy(degrade_on_squeeze=True),
            ),
            streams=(stream(mix={"big": 1.0}, qps=30.0),),
        )
        assert degraded.counters.degraded > 0
        assert degraded.counters.edmm_admissions == 0
        assert degraded.counters.completed == degraded.counters.arrivals
        # Degradation is far cheaper than the EDMM overflow penalty.
        overflowed = run(
            scheduler(epc=1_000 * MB, injector=inj),
            streams=(stream(mix={"big": 1.0}, qps=30.0),),
        )
        assert (degraded.latency_percentile_s(99)
                < overflowed.latency_percentile_s(99))

    def test_edmm_denied_fails_overflow_admissions(self):
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.EDMM_DENIED, probability=1.0),
            FaultSpec(FaultKind.EPC_SQUEEZE, end_s=10.0, magnitude=0.3),
        ))
        metrics = run(scheduler(epc=1_000 * MB, injector=inj),
                      streams=(stream(mix={"big": 1.0}, qps=30.0),))
        assert metrics.counters.edmm_denied > 0
        assert any(f.outcome == "edmm_denied" for f in metrics.failures)

    def test_timeout_bounds_attempts(self):
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.AEX_STORM, magnitude=50.0)
        ))
        metrics = run(
            scheduler(
                injector=inj,
                resilience=ResiliencePolicy(
                    max_retries=0, timeout_s=0.05, breaker_threshold=1000
                ),
            ),
            streams=(stream(qps=5.0),),
        )
        assert metrics.counters.timeouts > 0
        assert all(f.outcome == "timeout" for f in metrics.failures)
        # A timed-out attempt burns exactly the timeout, never the full
        # inflated service.
        assert metrics.makespan_s < 50.0 * 0.01 * metrics.counters.arrivals

    def test_closed_loop_resubmits_after_terminal_failure(self):
        # A poisoned closed-loop stream must keep cycling: each client
        # resubmits after its query fails, so failures accumulate well
        # beyond the client count instead of the stream going silent.
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.POISON_JOB, template="small")
        ))
        closed = ClosedLoopStream(
            "loop", clients=2, think_s=0.01,
            mix=QueryMix.of({"small": 1.0}), seed=3,
        )
        metrics = scheduler(injector=inj).run(
            open_streams=(), closed_streams=(closed,), duration_s=1.0
        )
        assert metrics.counters.completed == 0
        assert len(metrics.failures) > 2 * 5

    def test_faulted_run_is_deterministic(self):
        plan = get_fault_plan("chaos")
        resilience = ResiliencePolicy()

        def once():
            return run(
                scheduler(injector=make_injector(plan),
                          resilience=resilience),
                streams=(stream(mix={"small": 0.8, "big": 0.2}),),
            )

        a, b = once(), once()
        assert a.records == b.records
        assert a.failures == b.failures
        assert a.counters == b.counters
        assert a.downtime_s == b.downtime_s


class TestFaultTracing:
    def test_unfaulted_trace_has_no_fault_events(self):
        tracer = Tracer()
        with use_tracer(tracer):
            run(scheduler())
        names = {e.name for e in tracer.records}
        assert not any(n.startswith(("fault.", "resilience."))
                       for n in names)
        assert FAILED not in names
        breakdown = fault_breakdown(tracer)
        assert breakdown.lost_s == 0.0 and breakdown.retries == 0

    def test_fault_breakdown_matches_counters(self):
        plan = plan_of(
            FaultSpec(FaultKind.ENCLAVE_CRASH, probability=0.3, reinit_s=0.1)
        )
        tracer = Tracer()
        with use_tracer(tracer):
            metrics = run(scheduler(
                injector=make_injector(plan),
                resilience=ResiliencePolicy(max_retries=2,
                                            breaker_threshold=1000),
            ))
        breakdown = fault_breakdown(tracer)
        assert breakdown.retries == metrics.counters.retries
        assert breakdown.failed == metrics.counters.failed
        assert breakdown.downtime_s == pytest.approx(metrics.downtime_s)
        assert breakdown.retry_wait_s > 0
        names = {e.name for e in tracer.records}
        assert RETRY in names

    def test_shed_events_emitted(self):
        tracer = Tracer()
        inj = make_injector(plan_of(
            FaultSpec(FaultKind.POISON_JOB, template="small")
        ))
        with use_tracer(tracer):
            run(scheduler(
                injector=inj,
                resilience=ResiliencePolicy(max_retries=0,
                                            breaker_threshold=2,
                                            breaker_cooldown_s=100.0),
            ))
        names = [e.name for e in tracer.records]
        assert SHED in names


class TestFaultCacheKeys:
    def test_plan_changes_experiment_key(self):
        base = experiment_key("wl01", quick=True, base_seed=42)
        chaos = experiment_key("wl01", quick=True, base_seed=42,
                               run=RunConfig(faults=get_fault_plan("chaos")))
        storm = experiment_key(
            "wl01", quick=True, base_seed=42,
            run=RunConfig(faults=get_fault_plan("aex-storm")),
        )
        assert len({base, chaos, storm}) == 3

    def test_plan_seed_changes_key(self):
        plan = get_fault_plan("chaos")
        reseeded = FaultPlan(name=plan.name, seed=plan.seed + 1,
                             specs=plan.specs)
        assert experiment_key("wl01", quick=True, base_seed=42,
                              run=RunConfig(faults=plan)) \
            != experiment_key("wl01", quick=True, base_seed=42,
                              run=RunConfig(faults=reseeded))
