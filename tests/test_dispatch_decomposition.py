"""The dispatch-time service decomposition accounts for every second.

For each pinned serving config (one per dispatch branch), a completed
query's ``query.finish`` latency must equal its final ``query.dispatch``'s
queue wait plus base service plus every :data:`DISPATCH_TERMS` term, and
:func:`serving_breakdown` must attribute exactly the dispatch events'
summed seconds — no term dropped.  Holding the penalty stages must not
keep a finished scheduler alive past its run, and a scheduler's second
run must start from the same fresh state as its first.
"""

import dataclasses
import gc

import pytest

from repro.faults import ResiliencePolicy, get_fault_plan, make_injector
from repro.trace import Event, Tracer, serving_breakdown, to_jsonl, use_tracer
from repro.trace.breakdown import DISPATCH, DISPATCH_TERMS, FINISH
from repro.workload import WorkloadScheduler
from tests.test_serving_bytes_pinned import RUNS, _closed, _open, _scheduler


def _dispatch_seconds(attrs):
    return (
        attrs["queue_wait_s"]
        + attrs["base_service_s"]
        + sum(attrs.get(term, 0.0) for term in DISPATCH_TERMS)
    )


@pytest.mark.parametrize("name", sorted(RUNS))
def test_latency_is_final_dispatch_decomposition(name):
    tracer = Tracer()
    with use_tracer(tracer):
        RUNS[name]()
    final = {}
    dispatched_s = 0.0
    finished = 0
    for record in tracer.snapshot():
        if not isinstance(record, Event):
            continue
        attrs = record.attrs
        if record.name == DISPATCH:
            seconds = _dispatch_seconds(attrs)
            final[attrs["query_id"]] = seconds
            dispatched_s += seconds
        elif record.name == FINISH:
            finished += 1
            assert attrs["latency_s"] == pytest.approx(
                final[attrs["query_id"]], rel=1e-9
            ), attrs["query_id"]
    assert finished > 0
    breakdown = serving_breakdown(tracer)
    assert breakdown.completed == finished
    assert breakdown.total_s == pytest.approx(dispatched_s, rel=1e-9)
    assert sum(breakdown.fractions().values()) == pytest.approx(1.0)


def test_every_term_is_a_breakdown_field():
    breakdown = serving_breakdown([])
    for term in DISPATCH_TERMS:
        assert getattr(breakdown, term) == 0.0
    assert set(breakdown.fractions()) == {"queueing", "service"} | {
        term[: -len("_s")] for term in DISPATCH_TERMS
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_served_loop_is_freed_without_the_cyclic_gc(name):
    """A scheduler that references itself (say, through bound-method
    stages it keeps) holds its records and event heap until the cyclic GC
    runs, which raises a serving process's peak memory."""
    gc.collect()
    gc.disable()
    try:
        RUNS[name]()
        leaked = [
            o for o in gc.get_objects() if isinstance(o, WorkloadScheduler)
        ]
    finally:
        gc.enable()
    assert leaked == []


def test_a_second_run_starts_from_fresh_state():
    """The run state (queue, heap, counters, records, breaker, closed-loop
    sessions) lives on the scheduler, so each run must reset all of it:
    the same scheduler run twice gives equal metrics and trace text."""
    plan = dataclasses.replace(get_fault_plan("chaos"), seed=31)
    scheduler = _scheduler(
        "fifo",
        injector=make_injector(plan),
        resilience=ResiliencePolicy(
            degrade_on_squeeze=True, timeout_s=0.6, seed=7
        ),
    )
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with use_tracer(tracer):
            metrics = scheduler.run(
                open_streams=(_open(35.0),),
                closed_streams=(_closed(clients=2, think_s=0.2),),
                duration_s=9.0,
            )
        runs.append((metrics, to_jsonl(tracer)))
    assert runs[0][0].counters.retries > 0
    assert runs[0][0].counters.shed > 0
    assert runs[1] == runs[0]
