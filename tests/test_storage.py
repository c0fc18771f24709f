"""Sealed storage: config, pricing, spill operators, serving integration.

The load-bearing property here is **bag identity**: the spill-aware
operator variants must produce exactly the results of their in-memory
counterparts for any (template, budget) pair — spilling changes where
bytes live and what the run costs, never what it computes.  The rest
covers the ``--storage`` plumbing: the ambient config channel, the
priced seal/unseal path, the scheduler's spill counters, the storage
fault hazards, and the cache keys' storage component.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.joins import ParallelHashJoin
from repro.core.ops.aggregate import AggFunc, HashAggregate
from repro.enclave.runtime import ExecutionSetting
from repro.errors import ConfigurationError
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.hardware.calibration import CostParameters
from repro.memory.access import CodeVariant
from repro.runconfig import RunConfig, use_run_config
from repro.storage import (
    ExternalGroupAggregate,
    GraceHashJoin,
    SealedStore,
    SpillModel,
    StorageConfig,
    parse_size,
)
from repro.storage.spill import partition_count
from repro.tables import generate_join_relation_pair
from repro.trace import Tracer, storage_breakdown, use_tracer
from repro.units import GiB, MB, MiB
from repro.workload import (
    JobCatalog,
    OpenLoopStream,
    QueryMix,
    ServingEngine,
    WorkloadConfig,
)

SGX = ExecutionSetting.sgx_data_in_enclave()


class TestStorageConfig:
    def test_parse_sizes(self):
        assert parse_size("1048576") == 1048576
        assert parse_size("256m") == 256 * 10**6
        assert parse_size("2G") == 2 * 10**9
        assert parse_size("1gib") == GiB
        assert parse_size("4mi") == 4 * MiB

    @pytest.mark.parametrize("bad", ["", "abc", "-1", "1.5g", "2 g", "g"])
    def test_bad_sizes_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_size(bad)

    def test_parse_budget_and_block(self):
        config = StorageConfig.parse("256m")
        assert config.budget_bytes == 256 * 10**6
        assert config.block_bytes == MiB  # the default
        both = StorageConfig.parse("256m:4mi")
        assert both.block_bytes == 4 * MiB

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StorageConfig(budget_bytes=100)  # below one page
        with pytest.raises(ConfigurationError):
            StorageConfig(budget_bytes=MiB, block_bytes=100)
        with pytest.raises(ConfigurationError):
            StorageConfig(budget_bytes=MiB, block_bytes=2 * MiB)

    def test_canonical_round_trips(self):
        for text in ("1048576", "268435456:4194304"):
            assert StorageConfig.parse(text).canonical() == text


@pytest.fixture
def store(machine):
    return SealedStore(machine.params)


class TestSealedStore:
    def test_blocks_for_is_a_ceiling(self, store):
        assert store.blocks_for(0) == 0
        assert store.blocks_for(1) == 1
        assert store.blocks_for(MiB) == 1
        assert store.blocks_for(MiB + 1) == 2

    def test_pricing_positive_and_monotone(self, store):
        assert store.seal_cycles(MB) > 0
        assert store.unseal_cycles(MB) > 0
        assert store.seal_cycles(10 * MB) > store.seal_cycles(MB)
        assert store.roundtrip_cycles(MB) == pytest.approx(
            store.seal_cycles(MB) + store.unseal_cycles(MB)
        )

    def test_small_blocks_pay_more_transitions(self, machine):
        coarse = SealedStore(machine.params, block_bytes=4 * MiB)
        fine = SealedStore(machine.params, block_bytes=64 * 1024)
        assert fine.seal_cycles(64 * MB) > coarse.seal_cycles(64 * MB)

    def test_charge_counts_whole_bytes_prices_thread_share(self, machine):
        from repro.memory.access import AccessProfile

        solo = SealedStore(machine.params)
        wide = SealedStore(machine.params)
        solo_cycles = solo.charge_seal(AccessProfile(), 64 * MB, threads=1)
        wide_cycles = wide.charge_seal(AccessProfile(), 64 * MB, threads=8)
        # An 8-thread phase seals in parallel: per-thread cycles shrink...
        assert wide_cycles < solo_cycles
        # ...but the traffic counters still record every sealed byte.
        assert wide.sealed_bytes == solo.sealed_bytes == 64 * MB
        assert wide.sealed_blocks == solo.sealed_blocks

    def test_unpriced_calibration_rejected(self, machine):
        import dataclasses

        unpriced = dataclasses.replace(
            machine.params,
            seal_cycles_per_byte=0.0,
            unseal_cycles_per_byte=0.0,
            storage_io_cycles_per_byte=0.0,
        )
        with pytest.raises(ConfigurationError):
            SealedStore(unpriced)

    def test_sgxv1_seals_slower_than_sgxv2(self, machine):
        from repro.hardware.platforms import sgxv1_calibration

        v1 = SealedStore(sgxv1_calibration())
        v2 = SealedStore(machine.params)
        assert v1.seal_cycles(MB) > v2.seal_cycles(MB)


class TestSpillModel:
    def test_frequency_validated(self, store):
        with pytest.raises(ConfigurationError):
            SpillModel(store, 0.0)

    def test_charge_returns_seconds_and_counts(self, store, machine):
        hz = machine.spec.base_frequency_hz
        model = SpillModel(store, hz)
        seal_s, unseal_s = model.charge(64 * MB)
        assert seal_s > 0 and unseal_s > 0
        assert seal_s == store.seal_cycles(64 * MB) / hz
        assert unseal_s == store.unseal_cycles(64 * MB) / hz
        # The scheduler counts its spills; the store counts only what
        # operators charge through charge_seal/charge_unseal.
        assert store.sealed_bytes == store.unsealed_bytes == 0
        assert store.sealed_blocks == store.unsealed_blocks == 0


class TestPartitionCount:
    def test_in_memory_fast_path(self):
        assert partition_count(1 * MB, 1_000 * MB) == 1

    def test_fan_out_grows_with_pressure(self):
        narrow = partition_count(400 * MB, 100 * MB)
        tight = partition_count(400 * MB, 25 * MB)
        assert narrow > 1
        assert tight > narrow
        # Power-of-two fan-out.
        assert narrow & (narrow - 1) == 0

    def test_budget_validated(self):
        with pytest.raises(ConfigurationError):
            partition_count(1 * MB, 0.0)


#: (logical build MB, logical probe MB) shapes for the bag-identity sweep.
SHAPES = ((100, 400), (30, 60))

#: Spill budgets in MB: from "forces deep partitioning" to "fits, the
#: spill variant degenerates to the in-memory path".
BUDGETS_MB = (16, 64, 10_000)


class TestBagIdentity:
    """Property sweep: spill variants == in-memory variants, any budget."""

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("budget_mb", BUDGETS_MB)
    def test_grace_join_matches_pht(self, machine, shape, budget_mb):
        build, probe = generate_join_relation_pair(
            shape[0] * 1e6, shape[1] * 1e6, seed=11, physical_row_cap=30_000
        )
        with machine.context(SGX, threads=4) as ctx:
            reference = ParallelHashJoin(CodeVariant.NAIVE).run(
                ctx, build, probe
            )
        store = SealedStore(machine.params)
        join = GraceHashJoin(
            CodeVariant.NAIVE, store=store, budget_bytes=budget_mb * 1e6
        )
        with machine.context(SGX, threads=4) as ctx:
            spilled = join.run(ctx, build, probe)
        assert spilled.matches == reference.matches
        assert np.array_equal(spilled.match_index, reference.match_index)
        parts = partition_count(float(build.logical_bytes), budget_mb * 1e6)
        if parts > 1:
            assert store.sealed_bytes > 0  # the spill really happened
        else:
            assert store.sealed_bytes == 0  # degenerated to in-memory

    @pytest.mark.parametrize("budget_mb", BUDGETS_MB)
    def test_external_aggregate_matches_hash_aggregate(
        self, machine, rng, budget_mb
    ):
        keys = rng.integers(0, 500, 20_000)
        values = rng.integers(0, 1000, 20_000).astype(np.float64)
        functions = (AggFunc.COUNT, AggFunc.SUM, AggFunc.MIN, AggFunc.MAX)
        sim_scale = 4000.0  # logical ~80M rows: larger than small budgets
        with machine.context(SGX, threads=4) as ctx:
            reference = HashAggregate(CodeVariant.NAIVE).run(
                ctx, keys, values, functions, sim_scale=sim_scale
            )
        store = SealedStore(machine.params)
        agg = ExternalGroupAggregate(
            CodeVariant.NAIVE, store=store, budget_bytes=budget_mb * 1e6
        )
        with machine.context(SGX, threads=4) as ctx:
            external = agg.run(
                ctx, keys, values, functions, sim_scale=sim_scale
            )
        ref_order = np.argsort(reference.group_keys, kind="stable")
        assert np.array_equal(
            external.group_keys, reference.group_keys[ref_order]
        )
        for name in reference.aggregates:
            assert np.allclose(
                external.aggregates[name],
                reference.aggregates[name][ref_order],
            )

    def test_forced_spill_seals_the_whole_input_once(self, machine):
        build, probe = generate_join_relation_pair(
            100e6, 400e6, seed=11, physical_row_cap=30_000
        )
        store = SealedStore(machine.params)
        tight = GraceHashJoin(
            CodeVariant.NAIVE, store=store, budget_bytes=32e6
        )
        with machine.context(SGX, threads=4) as ctx:
            tight.run(ctx, build, probe)
        # Grace partitioning is one sealed round-trip of both inputs:
        # every byte out is priced, and every byte comes back exactly once.
        volume = float(build.logical_bytes + probe.logical_bytes)
        assert store.sealed_bytes == pytest.approx(volume)
        assert store.unsealed_bytes == pytest.approx(volume)
        assert store.sealed_blocks >= store.blocks_for(volume) - 1


class TestServingSpill:
    """The scheduler's admission-time spill path under a --storage budget."""

    def engine(self):
        return ServingEngine(JobCatalog(quick=True))

    def config(self, **kwargs):
        mix = QueryMix.of({"join-medium": 1.0})
        return WorkloadConfig(
            setting=SGX,
            open_streams=(OpenLoopStream("t", qps=8.0, mix=mix, seed=9),),
            duration_s=2.0,
            cores=8,
            **kwargs,
        )

    def test_no_storage_means_no_spill_counters(self):
        metrics = self.engine().run(self.config())
        assert metrics.counters.spills == 0
        assert metrics.counters.spilled_bytes == 0.0
        # The trace-stable dict is not widened by the storage fields.
        assert "spills" not in metrics.counters.as_dict()

    def test_budget_forces_spills_and_counts_them(self):
        metrics = self.engine().run(self.config(storage="64m"))
        c = metrics.counters
        assert c.spills > 0
        assert c.spilled_bytes > 0
        assert c.storage_dict()["spills"] == c.spills
        # Spilled queries still complete: the spill path fails nothing.
        assert metrics.availability == 1.0

    def test_spill_run_is_deterministic(self):
        config = self.config(storage="64m")
        a, b = self.engine().run(config), self.engine().run(config)
        assert a.records == b.records
        assert a.counters.storage_dict() == b.counters.storage_dict()

    def test_spill_slower_than_unconstrained_faster_than_thrash(self):
        engine = self.engine()
        free = engine.run(self.config())
        spill = engine.run(self.config(storage="64m"))
        thrash = engine.run(self.config(epc_budget_bytes=64e6))
        assert free.latency_percentile_s(99) < spill.latency_percentile_s(99)
        assert spill.latency_percentile_s(99) < thrash.latency_percentile_s(99)

    def test_ambient_storage_config_applies(self):
        engine = self.engine()
        with use_run_config(RunConfig(storage="64m")):
            ambient = engine.run(self.config())
        explicit = engine.run(self.config(storage="64m"))
        assert ambient.counters.storage_dict() == \
            explicit.counters.storage_dict()

    def test_bad_storage_value_rejected(self):
        with pytest.raises(ConfigurationError):
            self.engine().run(self.config(storage=123))

    def test_spill_events_traced_and_aggregated(self):
        tracer = Tracer(label="spill-test")
        with use_tracer(tracer):
            metrics = self.engine().run(self.config(storage="64m"))
        down = storage_breakdown(tracer)
        assert down.spills == metrics.counters.spills
        assert down.spilled_bytes == pytest.approx(
            metrics.counters.spilled_bytes
        )
        assert down.seal_s > 0 and down.unseal_s > 0
        assert down.spill_s == pytest.approx(down.seal_s + down.unseal_s)

    def test_storage_stall_inflates_and_counts(self):
        plan = FaultPlan(
            name="stall-everything",
            specs=(
                FaultSpec(
                    FaultKind.STORAGE_STALL,
                    start_s=0.0,
                    end_s=1e9,
                    magnitude=5.0,
                ),
            ),
        )
        engine = self.engine()
        calm = engine.run(self.config(storage="64m"))
        stalled = engine.run(self.config(storage="64m", faults=plan))
        assert stalled.counters.storage_stalled == stalled.counters.spills
        assert stalled.latency_percentile_s(99) > \
            calm.latency_percentile_s(99)

    def test_stall_without_storage_is_inert(self):
        plan = FaultPlan(
            name="stall-everything",
            specs=(
                FaultSpec(
                    FaultKind.STORAGE_STALL,
                    start_s=0.0,
                    end_s=1e9,
                    magnitude=5.0,
                ),
            ),
        )
        engine = self.engine()
        assert engine.run(self.config(faults=plan)).records == \
            engine.run(self.config()).records

    def test_torn_blocks_abort_attempts(self):
        plan = FaultPlan(
            name="all-torn",
            specs=(FaultSpec(FaultKind.TORN_BLOCK, probability=1.0),),
        )
        metrics = self.engine().run(
            self.config(storage="64m", faults=plan)
        )
        assert metrics.counters.torn_blocks > 0
        assert metrics.availability < 1.0
        assert any(
            f.outcome == "torn_block" for f in metrics.failures
        )

    def test_stall_magnitude_validated(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.STORAGE_STALL, magnitude=0.5)

    def test_storage_plans_in_catalog(self):
        from repro.faults import get_fault_plan

        assert get_fault_plan("storage-stall").specs[0].kind is \
            FaultKind.STORAGE_STALL
        torn = get_fault_plan("torn-block").specs[0]
        assert torn.kind is FaultKind.TORN_BLOCK
        kinds = {s.kind for s in get_fault_plan("storage-chaos").specs}
        assert kinds == {FaultKind.STORAGE_STALL, FaultKind.TORN_BLOCK}
        # The classic composite is untouched (byte-stability of old runs).
        classic = {s.kind for s in get_fault_plan("chaos").specs}
        assert FaultKind.STORAGE_STALL not in classic
        assert FaultKind.TORN_BLOCK not in classic


class TestClusterSpill:
    def test_shards_spill_locally_with_shard_attr(self):
        from repro.cluster import ClusterConfig, ClusterSpec

        mix = QueryMix.of({"join-medium": 1.0})
        config = WorkloadConfig(
            setting=SGX,
            open_streams=tuple(
                OpenLoopStream(f"t{i}", qps=2.0, mix=mix, seed=9 + i)
                for i in range(8)
            ),
            duration_s=2.0,
            storage="64m",
            cluster=ClusterConfig(spec=ClusterSpec.parse("2x2")),
        )
        tracer = Tracer(label="cluster-spill")
        with use_tracer(tracer):
            result = ServingEngine(JobCatalog(quick=True)).run_cluster(config)
        total = storage_breakdown(tracer)
        assert total.spills > 0
        shards = {
            str(r.attrs["shard"])
            for r in tracer.records
            if getattr(r, "attrs", None) and "shard" in r.attrs
        }
        per_shard = sum(
            storage_breakdown(tracer, shard=s).spills for s in shards
        )
        assert per_shard == total.spills
        assert result.metrics.counters.spills == total.spills


class TestPlannerSpill:
    def test_spill_twins_only_with_storage_and_only_pht(self):
        from repro.planner.candidates import enumerate_candidates
        from repro.workload.jobs import serving_templates

        template = serving_templates()["join-medium"]
        plain = enumerate_candidates(template)
        twinned = enumerate_candidates(template, spills=(False, True))
        assert not any(c.spill for c in plain)
        spill_arms = [c for c in twinned if c.spill]
        assert spill_arms
        assert all(c.algorithm == "PHT" for c in spill_arms)
        assert all("+spill" in c.label() for c in spill_arms)

    def test_tight_budget_picks_the_spill_twin(self):
        from repro.machine import SimMachine
        from repro.planner import Planner
        from repro.workload.jobs import serving_templates

        template = serving_templates()["join-medium"]
        machine = SimMachine()
        budget = 64e6
        storage = StorageConfig(budget_bytes=int(budget))
        planner = Planner(
            machine, SGX, epc_budget_bytes=budget, storage=storage
        )
        decision = planner.decide(template)
        assert decision.chosen.spill
        # Unconstrained, the in-memory arm wins: spilling is never free.
        roomy = Planner(machine, SGX, storage=storage)
        assert not roomy.decide(template).chosen.spill


class TestCacheKeysStorage:
    def test_experiment_key_rotates_with_storage(self):
        from repro.cache.keys import experiment_key

        base = experiment_key("wl01", quick=True, base_seed=42)
        stored = experiment_key(
            "wl01",
            quick=True,
            base_seed=42,
            run=RunConfig(storage=StorageConfig.parse("256m")),
        )
        other = experiment_key(
            "wl01",
            quick=True,
            base_seed=42,
            run=RunConfig(storage=StorageConfig.parse("512m")),
        )
        assert len({base, stored, other}) == 3

    def test_profile_key_rotates_with_storage(self):
        from repro.cache.keys import query_profile_key

        kwargs = dict(
            kind="join",
            template="join-medium",
            setting=SGX.label,
            candidate="PHT",
            pricing_seed=7,
            row_cap=100,
            sf_cap=1.0,
        )
        base = query_profile_key(**kwargs)
        stored = query_profile_key(
            **kwargs, storage=StorageConfig.parse("256m")
        )
        assert base != stored
