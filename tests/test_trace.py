"""The repro.trace subsystem: records, tracer, exporters, breakdowns."""

import json

import pytest

from repro.errors import BenchmarkError
from repro.trace import (
    Counter,
    Event,
    Gauge,
    NULL_TRACER,
    Span,
    Tracer,
    current_tracer,
    phase_breakdown,
    read_jsonl,
    record_from_dict,
    serving_breakdown,
    serving_runs,
    tee,
    to_csv,
    to_jsonl,
    use_tracer,
    write_csv,
    write_jsonl,
)
from repro.workload import (
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


def traced_run(policy="fifo", *, epc=300 * MB, qps=150.0, seed=5):
    """One serving run under a fresh tracer; returns (tracer, metrics)."""
    scheduler = WorkloadScheduler(
        COSTS,
        make_policy(policy),
        cores=8,
        epc_budget_bytes=epc,
        setting_label="test",
    )
    mix = QueryMix.of({"small": 0.7, "big": 0.3})
    tracer = Tracer()
    with use_tracer(tracer):
        metrics = scheduler.run(
            open_streams=(OpenLoopStream("t", qps=qps, mix=mix, seed=seed),),
            duration_s=2.0,
        )
    return tracer, metrics


class TestRecords:
    def test_round_trip_each_kind(self):
        records = [
            Span("hist1", category="operator-phase", start=0.0,
                 duration=123.5, attrs={"setting": "Plain CPU"}),
            Event("query.arrival", time_s=1.5, attrs={"query_id": 7}),
            Event("enclave.init", time_s=None, attrs={"heap_bytes": 42}),
            Counter("enclave.allocations", 3),
            Counter("scheduler.spilled_bytes", 884762000000.0),
            Gauge("scheduler.epc_high_water_bytes", 1e9),
            Gauge("scheduler.queue_depth", 4),
        ]
        for record in records:
            text = json.dumps(record.as_dict())
            rebuilt = record_from_dict(json.loads(text))
            assert rebuilt == record
            # Values keep their JSON number type: 884762000000.0 stays a float.
            assert json.dumps(rebuilt.as_dict()) == text

    def test_dict_round_trip_each_kind(self):
        records = [
            Span("s", category="c", start=1.0, duration=2.0),
            Span("s", category="c", start=1, duration=2, unit="s", attrs={"k": 1}),
            Event("e"),
            Event("e", time_s=0.5, attrs={"k": [1, 2]}),
            Counter("n", 4),
            Gauge("g", 0.25),
        ]
        for record in records:
            assert record_from_dict(record.as_dict()) == record

    @pytest.mark.parametrize(
        "record, field",
        [
            (Event("e", time_s=1.0), "time_s"),
            (Event("e"), "name"),
            (Span("s", category="c", start=0.0, duration=1.0), "duration"),
            (Span("s", category="c", start=0.0, duration=1.0), "attrs"),
        ],
    )
    def test_records_are_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 3.0)

    def test_default_attrs_cannot_be_mutated(self):
        with pytest.raises(TypeError):
            Event("e").attrs["k"] = 1
        assert Event("e").attrs == {}

    def test_equality_is_per_kind(self):
        assert Counter("n", 1) != Gauge("n", 1)
        assert Event("e", 1.0, {}) != ("e", 1.0, {})
        assert Event("e", 1.0, {}) == Event("e", time_s=1.0)
        assert hash(Counter("n", 1)) == hash(Counter("n", 1))
        assert [Counter.kind, Event.kind, Gauge.kind, Span.kind] == [
            "counter",
            "event",
            "gauge",
            "span",
        ]

    def test_span_end(self):
        span = Span("x", category="c", start=10.0, duration=5.0)
        assert span.end == 15.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(BenchmarkError):
            record_from_dict({"kind": "nope", "name": "x"})
        with pytest.raises(BenchmarkError):
            record_from_dict({"name": "missing kind"})


class TestTracer:
    def test_null_tracer_is_default_and_inert(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled
        NULL_TRACER.event("ignored")
        NULL_TRACER.count("ignored")
        assert NULL_TRACER.snapshot() == []

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            with use_tracer(Tracer()) as inner:
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_counters_and_gauges_registry(self):
        tracer = Tracer()
        tracer.count("hits")
        tracer.count("hits", 2)
        tracer.gauge("level", 1.0)
        tracer.gauge("level", 3.0)
        assert tracer.counters == {"hits": 3}
        assert tracer.gauges == {"level": 3.0}
        snapshot = tracer.snapshot()
        assert Counter("hits", 3) in snapshot
        assert Gauge("level", 3.0) in snapshot

    def test_tee_records_into_all_enabled_children(self):
        a, b = Tracer(), Tracer()
        combined = tee(a, NULL_TRACER, b, None)
        combined.event("e", time_s=1.0)
        combined.count("c")
        assert len(a) == len(b) == 1
        assert a.counters == b.counters == {"c": 1}

    def test_tee_appends_one_shared_record_to_every_child(self):
        a, b = Tracer(), Tracer()
        sink = tee(a, b)
        event = sink.event("e", time_s=1.0, query_id=3)
        span = sink.span("s", category="c", start=0.0, duration=2.0)
        sink.count("c", 2)
        sink.gauge("g", 0.5)
        assert a.records == [event, span]
        assert all(x is y for x, y in zip(a.records, b.records))
        assert a.counters == b.counters == {"c": 2}
        assert a.gauges == b.gauges == {"g": 0.5}

    def test_nested_tee_records_once_into_each_leaf(self):
        a, b, c = Tracer("a"), Tracer("b"), Tracer("c")
        sink = tee(tee(a, b), c)
        assert sink.children == (a, b, c)
        assert sink.label == "a+b+c"
        sink.event("e", time_s=1.0)
        sink.span("s", category="c", start=0.0, duration=1.0)
        sink.count("n")
        sink.gauge("g", 2.0)
        for leaf in (a, b, c):
            assert [r.name for r in leaf.records] == ["e", "s"]
            assert leaf.counters == {"n": 1}
            assert leaf.gauges == {"g": 2.0}

    def test_tee_collapses_to_single_or_null(self):
        only = Tracer()
        assert tee(only, NULL_TRACER) is only
        assert tee(NULL_TRACER, None) is NULL_TRACER


class TestExporters:
    def test_jsonl_round_trip_to_breakdown(self, tmp_path):
        tracer, _ = traced_run()
        path = write_jsonl(tracer, tmp_path / "run.trace.jsonl")
        rebuilt = read_jsonl(path)
        assert rebuilt == tracer.snapshot()
        # The reporter reproduces the same decomposition from the file.
        direct = serving_breakdown(tracer)
        from_file = serving_breakdown(rebuilt)
        assert from_file == direct
        assert from_file.total_s > 0

    def test_csv_has_one_row_per_record(self):
        tracer, _ = traced_run()
        lines = to_csv(tracer).strip().splitlines()
        assert lines[0].startswith("kind,name,category")
        assert len(lines) == 1 + len(tracer.snapshot())

    def test_csv_uses_unix_line_endings(self):
        # csv.DictWriter defaults to "\r\n": mixed-EOL trace exports broke
        # byte-level golden comparisons on non-Windows platforms.
        tracer, _ = traced_run()
        text = to_csv(tracer)
        assert "\r" not in text
        assert text.endswith("\n")

    def test_csv_export_is_byte_deterministic(self, tmp_path):
        first, _ = traced_run(seed=5)
        second, _ = traced_run(seed=5)
        assert to_csv(first).encode() == to_csv(second).encode()
        path = write_csv(first, tmp_path / "run.trace.csv")
        assert path.read_bytes() == to_csv(first).encode()

    def test_empty_tracer_exports_empty(self):
        assert to_jsonl(Tracer()) == ""
        assert read_jsonl([]) == []

    def test_malformed_jsonl_rejected(self):
        with pytest.raises(BenchmarkError):
            read_jsonl(["not json at all {"])

    def test_failed_attrs_encode_leaves_the_encoder_clean(self):
        # The attrs encoder is built once and reused; a failed encode must
        # not leave circular-reference markers behind for the next one.
        attrs = {"nested": {"bad": object()}}
        for _ in range(2):
            with pytest.raises(TypeError):
                to_jsonl([Event("e", time_s=1.0, attrs=attrs)])
        attrs["nested"] = {"ok": 1}
        assert to_jsonl([Event("e", time_s=1.0, attrs=attrs)]) == (
            '{"attrs": {"nested": {"ok": 1}}, "kind": "event", '
            '"name": "e", "time_s": 1.0}\n'
        )

    def test_attrs_encoder_falls_back_without_the_c_accelerator(
        self, monkeypatch
    ):
        import json

        from repro.trace import exporters

        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        assert exporters._reused_encoder() is exporters._encode


class TestDeterminism:
    def test_two_traced_runs_same_seed_identical(self):
        first, _ = traced_run(seed=5)
        second, _ = traced_run(seed=5)
        assert to_jsonl(first) == to_jsonl(second)

    def test_different_seed_differs(self):
        first, _ = traced_run(seed=5)
        second, _ = traced_run(seed=6)
        assert to_jsonl(first) != to_jsonl(second)

    def test_tracing_does_not_change_results(self):
        _, traced = traced_run(seed=5)
        scheduler = WorkloadScheduler(
            COSTS,
            make_policy("fifo"),
            cores=8,
            epc_budget_bytes=300 * MB,
            setting_label="test",
        )
        mix = QueryMix.of({"small": 0.7, "big": 0.3})
        untraced = scheduler.run(
            open_streams=(OpenLoopStream("t", qps=150.0, mix=mix, seed=5),),
            duration_s=2.0,
        )
        assert untraced.records == traced.records
        assert untraced.counters.as_dict() == traced.counters.as_dict()


class TestTracedExperimentOutput:
    def test_traced_report_bit_identical_to_untraced(self):
        from repro.bench.registry import run_experiment

        plain = run_experiment("fig06", quick=True)
        traced_tracer = Tracer()
        traced = run_experiment("fig06", quick=True, tracer=traced_tracer)
        assert [(r.series, r.x, r.value) for r in plain.rows] == \
            [(r.series, r.x, r.value) for r in traced.rows]
        assert len(traced_tracer) > 0


class TestServingBreakdown:
    def test_buckets_sum_to_total_attributed_time(self):
        tracer, metrics = traced_run()
        breakdown = serving_breakdown(tracer)
        assert breakdown.completed == metrics.counters.completed
        assert breakdown.dispatched == metrics.counters.completed
        total = sum(
            (r.queue_wait_s + r.service_s) for r in metrics.records
        )
        assert breakdown.total_s == pytest.approx(total, rel=1e-9)
        shares = breakdown.fractions()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_edmm_penalty_only_under_overflow(self):
        overflowing, _ = traced_run("fifo", epc=300 * MB)
        roomy, _ = traced_run("fifo", epc=100_000 * MB)
        assert serving_breakdown(overflowing).edmm_penalty_s > 0
        assert serving_breakdown(roomy).edmm_penalty_s == 0

    def test_stream_filter(self):
        tracer, metrics = traced_run()
        all_streams = serving_breakdown(tracer)
        only = serving_breakdown(tracer, stream="t")
        none = serving_breakdown(tracer, stream="ghost")
        assert only == all_streams
        assert none.completed == 0 and none.total_s == 0

    def test_serving_runs_segments_multi_run_traces(self):
        tracer = Tracer()
        with use_tracer(tracer):
            for seed in (5, 6):
                scheduler = WorkloadScheduler(
                    COSTS,
                    make_policy("fifo"),
                    cores=8,
                    epc_budget_bytes=300 * MB,
                    setting_label=f"run-{seed}",
                )
                mix = QueryMix.of({"small": 1.0})
                scheduler.run(
                    open_streams=(
                        OpenLoopStream("t", qps=100.0, mix=mix, seed=seed),
                    ),
                    duration_s=1.0,
                )
        runs = serving_runs(tracer)
        assert len(runs) == 2
        assert [attrs["setting"] for attrs, _ in runs] == ["run-5", "run-6"]
        assert all(b.completed > 0 for _, b in runs)

    def test_empty_trace_yields_zero_breakdown(self):
        breakdown = serving_breakdown([])
        assert breakdown.total_s == 0
        assert set(breakdown.fractions().values()) == {0.0}


class TestPhaseBreakdown:
    def test_matches_executor_trace_exactly(self):
        from repro.core.joins import RadixJoin
        from repro.enclave.runtime import ExecutionSetting
        from repro.machine import SimMachine
        from repro.tables import generate_join_relation_pair

        machine = SimMachine()
        build, probe = generate_join_relation_pair(
            8e6, 32e6, seed=3, physical_row_cap=20_000
        )
        tracer = Tracer()
        with use_tracer(tracer):
            with machine.context(
                ExecutionSetting.sgx_data_in_enclave(), threads=1
            ) as ctx:
                result = RadixJoin().run(ctx, build, probe)
        phases = phase_breakdown(tracer)
        assert phases == result.phase_cycles
        assert sum(phases.values()) == pytest.approx(result.cycles)

    def test_setting_filter(self):
        tracer = Tracer()
        tracer.span("scan", category="operator-phase", start=0, duration=10.0,
                    setting="Plain CPU")
        tracer.span("scan", category="operator-phase", start=0, duration=99.0,
                    setting="SGX (Data in Enclave)")
        tracer.span("not-a-phase", category="other", start=0, duration=1.0)
        assert phase_breakdown(tracer, setting="Plain CPU") == {"scan": 10.0}
        assert phase_breakdown(tracer) == {"scan": 109.0}


class TestShardedTraces:
    """Scheduler events carry shard ids once multiplexed (cluster PR)."""

    def _sharded_scheduler(self, shard, base):
        return WorkloadScheduler(
            COSTS,
            make_policy("fifo"),
            cores=8,
            epc_budget_bytes=300 * MB,
            setting_label="test",
            shard=shard,
            query_id_base=base,
        )

    def test_two_shards_into_one_tracer_stay_disjoint_and_ordered(self):
        tracer = Tracer()
        mix = QueryMix.of({"small": 1.0})
        with use_tracer(tracer):
            for index, shard in enumerate(("m0.s0.e0", "m0.s1.e0")):
                scheduler = self._sharded_scheduler(shard, index * 1000)
                scheduler.run(
                    open_streams=(
                        OpenLoopStream("t", qps=100.0, mix=mix, seed=5),
                    ),
                    duration_s=1.0,
                )
        runs = serving_runs(tracer)
        assert len(runs) == 2
        assert [attrs["shard"] for attrs, _ in runs] == [
            "m0.s0.e0", "m0.s1.e0"
        ]
        # Every event between the run markers belongs to that run's shard,
        # and the two shards' query ids never collide.
        shards_seen = {}
        current = None
        for record in tracer.records:
            if not isinstance(record, Event):
                continue
            if record.name == "serving.run_start":
                current = record.attrs["shard"]
            if "query_id" in record.attrs:
                shards_seen.setdefault(current, set()).add(
                    record.attrs["query_id"]
                )
            assert record.attrs.get("shard") == current
        assert set(shards_seen) == {"m0.s0.e0", "m0.s1.e0"}
        assert not (
            shards_seen["m0.s0.e0"] & shards_seen["m0.s1.e0"]
        )
        assert max(shards_seen["m0.s0.e0"]) < 1000 <= min(
            shards_seen["m0.s1.e0"]
        )

    def test_unsharded_events_carry_no_shard_attr(self):
        tracer, _ = traced_run()
        events = [r for r in tracer.records if isinstance(r, Event)]
        assert events
        assert all("shard" not in e.attrs for e in events)
