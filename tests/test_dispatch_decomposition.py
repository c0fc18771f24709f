"""The dispatch-time service decomposition accounts for every second.

For each pinned serving config (one per dispatch branch), a completed
query's ``query.finish`` latency must equal its final ``query.dispatch``'s
queue wait plus base service plus every :data:`DISPATCH_TERMS` term, and
:func:`serving_breakdown` must attribute exactly the dispatch events'
summed seconds — no term dropped.  Holding the penalty stages must not
keep a finished loop alive past its run.
"""

import gc

import pytest

from repro.trace import Event, Tracer, serving_breakdown, use_tracer
from repro.trace.breakdown import DISPATCH, DISPATCH_TERMS, FINISH
from repro.workload.scheduler import SchedulerLoop
from tests.test_serving_bytes_pinned import RUNS


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
    """A loop that references itself (say, through bound-method stages it
    keeps) holds its records and event heap until the cyclic GC runs,
    which raises a serving process's peak memory."""
    gc.collect()
    gc.disable()
    try:
        RUNS[name]()
        leaked = [o for o in gc.get_objects() if isinstance(o, SchedulerLoop)]
    finally:
        gc.enable()
    assert leaked == []
