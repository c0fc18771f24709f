"""The repro.cluster subsystem: specs, routing, shard faults, serving."""

import math

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterFaultPlan,
    ClusterScheduler,
    ClusterSpec,
    ElasticPolicy,
    HashRouter,
    LoadAwareRouter,
    NO_SHARD_FAULTS,
    ShardFaultKind,
    ShardFaultSpec,
    make_router,
)
from repro.cluster.scheduler import QUERY_ID_STRIDE
from repro.errors import ConfigurationError
from repro.hardware import paper_calibration, paper_testbed
from repro.workload import (
    JobCost,
    OpenLoopStream,
    QueryMix,
    WorkloadScheduler,
    make_policy,
)

MB = 1_000_000

#: Synthetic priced costs: cluster tests need no operator runs.
COSTS = {
    "small": JobCost("small", threads=1, service_s=0.01,
                     working_set_bytes=10 * MB),
    "big": JobCost("big", threads=2, service_s=0.05,
                   working_set_bytes=50 * MB),
}

MIX = QueryMix.of({"small": 0.8, "big": 0.2})


def cluster_run(config, *, qps=400.0, duration_s=2.0, seed=11, streams=None):
    """One synthetic cluster run; returns its ClusterResult."""
    spec = paper_testbed()
    shards = config.spec.shards(spec)
    schedulers = [
        WorkloadScheduler(
            COSTS,
            make_policy("fifo"),
            cores=shard.cores,
            epc_budget_bytes=shard.epc_budget_bytes,
            setting_label="test",
            shard=shard.label,
            query_id_base=shard.shard_id * QUERY_ID_STRIDE,
        )
        for shard in shards
    ]
    scheduler = ClusterScheduler(
        cluster=config,
        shards=shards,
        schedulers=schedulers,
        costs=COSTS,
        spec=spec,
        params=paper_calibration(),
    )
    if streams is None:
        streams = tuple(
            OpenLoopStream(f"t{i}", qps=qps / 8, mix=MIX, seed=seed + i)
            for i in range(8)
        )
    return scheduler.run(open_streams=streams, duration_s=duration_s)


class TestClusterSpec:
    def test_parse_two_part_shape(self):
        spec = ClusterSpec.parse("2x4")
        assert spec.machines == 1
        assert spec.sockets == 2
        assert spec.enclaves_per_socket == 4
        assert spec.shard_count == 8

    def test_parse_three_part_shape(self):
        spec = ClusterSpec.parse("2x2x4")
        assert spec.machines == 2
        assert spec.shard_count == 16

    def test_canonical_round_trips(self):
        for text in ("2x4", "1x1", "2x2x4"):
            assert ClusterSpec.parse(text).canonical() == text

    @pytest.mark.parametrize("bad", ["", "2", "2x", "axb", "2x4x2x1", "2,4"])
    def test_bad_shapes_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ClusterSpec.parse(bad)

    @pytest.mark.parametrize("bad", ["0x4", "2x0", "0x0", "2x2x0"])
    def test_zero_shard_counts_rejected_at_parse(self, bad):
        # Regression: int() accepted the zeros and the spec's own
        # validation only fired later, with a worse message.
        with pytest.raises(ConfigurationError):
            ClusterSpec.parse(bad)

    @pytest.mark.parametrize("bad", ["-1x4", "2x-4", "+2x4"])
    def test_signed_counts_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ClusterSpec.parse(bad)

    @pytest.mark.parametrize("bad", [" 2x4", "2x4 ", "2 x4", "2x 4", "\t2x4"])
    def test_whitespace_padded_specs_rejected(self, bad):
        # Regression: ``" 2x4"`` used to parse (str.strip + int's own
        # whitespace tolerance) so typos silently produced a cluster.
        with pytest.raises(ConfigurationError):
            ClusterSpec.parse(bad)

    def test_zero_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(sockets=0)
        with pytest.raises(ConfigurationError):
            ClusterSpec(enclaves_per_socket=0)
        with pytest.raises(ConfigurationError):
            ClusterSpec(machines=0)

    def test_shards_split_socket_cores_and_epc_evenly(self):
        hw = paper_testbed()
        shards = ClusterSpec.parse("2x4").shards(hw)
        assert len(shards) == 8
        assert all(s.cores == hw.cores_per_socket // 4 for s in shards)
        assert all(
            s.epc_budget_bytes == hw.epc_bytes_per_socket / 4 for s in shards
        )
        assert len({s.label for s in shards}) == 8
        assert [s.shard_id for s in shards] == list(range(8))
        # Sockets are covered machine-major, socket, enclave.
        assert [s.socket for s in shards] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_home_cores_land_on_the_shard_socket(self):
        hw = paper_testbed()
        for shard in ClusterSpec.parse("2x4").shards(hw):
            core = shard.home_core(hw)
            assert core // hw.cores_per_socket == shard.socket

    def test_shards_reject_shapes_beyond_the_hardware(self):
        hw = paper_testbed()
        with pytest.raises(ConfigurationError):
            ClusterSpec(sockets=3).shards(hw)
        with pytest.raises(ConfigurationError):
            ClusterSpec(enclaves_per_socket=17).shards(hw)


class TestRouters:
    def shards(self, shape="2x4"):
        return ClusterSpec.parse(shape).shards(paper_testbed())

    def test_hash_router_is_deterministic_and_sticky(self):
        shards = self.shards()
        router = make_router("hash", shards)
        eligible = {s.shard_id for s in shards}
        first = [router.route(f"tenant-{i}", eligible, lambda s: 0.0)
                 for i in range(64)]
        second = [router.route(f"tenant-{i}", eligible, lambda s: 0.0)
                  for i in range(64)]
        assert first == second
        assert len(set(first)) > 1  # keys spread over the ring

    def test_hash_router_only_moves_keys_of_the_lost_shard(self):
        shards = self.shards()
        router = HashRouter(shards)
        eligible = {s.shard_id for s in shards}
        before = {
            f"tenant-{i}": router.route(f"tenant-{i}", eligible, lambda s: 0.0)
            for i in range(128)
        }
        lost = before["tenant-0"]
        survivors = eligible - {lost}
        for key, owner in before.items():
            after = router.route(key, survivors, lambda s: 0.0)
            if owner != lost:
                assert after == owner  # unaffected keys stay put
            else:
                assert after in survivors

    def test_load_aware_routes_to_least_loaded(self):
        shards = self.shards()
        router = LoadAwareRouter(shards)
        eligible = {s.shard_id for s in shards}
        loads = {s.shard_id: float(s.shard_id) for s in shards}
        loads[5] = -1.0
        assert router.route("any", eligible, loads.__getitem__) == 5

    def test_load_aware_breaks_ties_by_shard_id(self):
        router = LoadAwareRouter(self.shards())
        assert router.route("any", {3, 6, 1}, lambda s: 0.0) == 1

    def test_empty_eligible_set_rejected(self):
        for name in ("hash", "load-aware"):
            router = make_router(name, self.shards())
            with pytest.raises(ConfigurationError):
                router.route("any", set(), lambda s: 0.0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_router("round-robin", self.shards())

    def test_router_needs_shards(self):
        with pytest.raises(ConfigurationError):
            HashRouter(())


class TestShardFaults:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ShardFaultSpec(ShardFaultKind.SHARD_CRASH, start_s=1.0, end_s=1.0)
        with pytest.raises(ConfigurationError):
            ShardFaultSpec(ShardFaultKind.SHARD_CRASH, start_s=-1.0, end_s=1.0)
        with pytest.raises(ConfigurationError):
            ShardFaultSpec(
                ShardFaultKind.REBALANCE_STORM, start_s=0.0, end_s=1.0,
                probability=1.5,
            )

    def test_crash_edges_are_time_ordered(self):
        plan = ClusterFaultPlan(
            name="p",
            specs=(
                ShardFaultSpec(ShardFaultKind.SHARD_CRASH, start_s=3.0,
                               end_s=4.0, shard=1),
                ShardFaultSpec(ShardFaultKind.SHARD_CRASH, start_s=1.0,
                               end_s=2.0, shard=0),
            ),
        )
        assert plan.crash_edges() == [
            (1.0, "down", 0), (2.0, "up", 0), (3.0, "down", 1), (4.0, "up", 1)
        ]

    def test_storm_draws_are_deterministic_and_windowed(self):
        plan = ClusterFaultPlan(
            name="p",
            seed=7,
            specs=(
                ShardFaultSpec(ShardFaultKind.REBALANCE_STORM, start_s=1.0,
                               end_s=2.0, probability=0.5),
            ),
        )
        inside = [plan.storm_diverts(1.5, seq) for seq in range(200)]
        assert inside == [plan.storm_diverts(1.5, seq) for seq in range(200)]
        assert any(inside) and not all(inside)  # a real Bernoulli split
        assert not any(plan.storm_diverts(0.5, seq) for seq in range(200))

    def test_probability_extremes(self):
        def plan(p):
            return ClusterFaultPlan(
                name="p",
                specs=(
                    ShardFaultSpec(ShardFaultKind.REBALANCE_STORM,
                                   start_s=0.0, end_s=1.0, probability=p),
                ),
            )
        assert not any(plan(0.0).storm_diverts(0.5, s) for s in range(50))
        assert all(plan(1.0).storm_diverts(0.5, s) for s in range(50))

    def test_no_shard_faults_is_inactive(self):
        assert not NO_SHARD_FAULTS.active
        assert NO_SHARD_FAULTS.crash_edges() == []


class TestElasticPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ElasticPolicy(min_shards=0, max_shards=2)
        with pytest.raises(ConfigurationError):
            ElasticPolicy(min_shards=4, max_shards=2)
        with pytest.raises(ConfigurationError):
            ElasticPolicy(min_shards=1, max_shards=2, interval_s=0.0)
        with pytest.raises(ConfigurationError):
            ElasticPolicy(min_shards=1, max_shards=2, low_watermark=0.9,
                          high_watermark=0.8)

    def test_activation_delay_follows_the_edmm_model(self):
        policy = ElasticPolicy(min_shards=1, max_shards=2)
        spec = paper_testbed()
        params = paper_calibration()
        ws = 10 * MB
        pages = math.ceil(ws / 4096)
        expected = pages * params.edmm_page_add_cycles / spec.base_frequency_hz
        assert policy.activation_delay_s(ws, spec, params) == pytest.approx(
            expected
        )

    def test_explicit_grow_delay_overrides_the_model(self):
        policy = ElasticPolicy(min_shards=1, max_shards=2, grow_delay_s=0.25)
        assert policy.activation_delay_s(
            10 * MB, paper_testbed(), paper_calibration()
        ) == 0.25


class TestClusterConfig:
    def test_parse_shape_and_routing(self):
        config = ClusterConfig.parse("2x4:load-aware")
        assert config.spec.shard_count == 8
        assert config.routing == "load-aware"
        assert ClusterConfig.parse("2x4").routing == "hash"

    def test_unknown_routing_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig.parse("2x4:round-robin")

    def test_elastic_ceiling_must_fit_the_cluster(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(
                spec=ClusterSpec.parse("2x1"),
                elastic=ElasticPolicy(min_shards=1, max_shards=4),
            )

    def test_describe_names_the_interesting_pieces(self):
        config = ClusterConfig(
            spec=ClusterSpec.parse("2x4"),
            routing="load-aware",
            failover=False,
            elastic=ElasticPolicy(min_shards=2, max_shards=8),
        )
        text = config.describe()
        for token in ("2x4", "load-aware", "no-failover", "elastic[2-8]"):
            assert token in text


class TestClusterServing:
    def test_all_queries_served_and_merged(self):
        config = ClusterConfig(spec=ClusterSpec.parse("2x4"))
        result = cluster_run(config)
        metrics = result.metrics
        assert metrics.counters.completed > 0
        assert metrics.counters.completed == len(metrics.records)
        assert result.routed == metrics.counters.arrivals
        per_shard = sum(
            result.registry.shard(label).counters.completed
            for label in result.registry.labels
        )
        assert per_shard == metrics.counters.completed

    def test_query_id_ranges_stay_disjoint_per_shard(self):
        config = ClusterConfig(spec=ClusterSpec.parse("2x4"))
        result = cluster_run(config)
        for label in result.registry.labels:
            ids = [r.query_id for r in result.registry.shard(label).records]
            if not ids:
                continue
            bands = {q // QUERY_ID_STRIDE for q in ids}
            assert len(bands) == 1

    def test_runs_are_deterministic(self):
        config = ClusterConfig(spec=ClusterSpec.parse("2x4"))
        first = cluster_run(config)
        second = cluster_run(config)
        assert first.metrics.records == second.metrics.records
        assert first.metrics.counters == second.metrics.counters
        assert first.routed == second.routed

    def test_routing_policies_place_differently(self):
        hash_result = cluster_run(
            ClusterConfig(spec=ClusterSpec.parse("2x4"), routing="hash")
        )
        load_result = cluster_run(
            ClusterConfig(spec=ClusterSpec.parse("2x4"), routing="load-aware")
        )
        def placement(result):
            return {
                label: result.registry.shard(label).counters.completed
                for label in result.registry.labels
            }
        assert placement(hash_result) != placement(load_result)
        assert load_result.shuffle_s > 0  # off-home placements are priced

    def test_failover_recovers_availability(self):
        spec = ClusterSpec.parse("2x4")
        plan = ClusterFaultPlan(
            name="crash",
            specs=(
                ShardFaultSpec(ShardFaultKind.SHARD_CRASH, start_s=0.5,
                               end_s=1.5, shard=0),
            ),
        )
        with_failover = cluster_run(
            ClusterConfig(spec=spec, faults=plan, failover=True)
        )
        without = cluster_run(
            ClusterConfig(spec=spec, faults=plan, failover=False)
        )
        assert with_failover.metrics.availability == 1.0
        assert with_failover.failovers > 0
        assert without.metrics.availability < 1.0
        assert without.rejected > 0
        assert without.metrics.counters.failed + \
            without.metrics.counters.shed > 0

    def test_crash_without_failover_only_hits_homed_tenants(self):
        spec = ClusterSpec.parse("2x4")
        plan = ClusterFaultPlan(
            name="crash",
            specs=(
                ShardFaultSpec(ShardFaultKind.SHARD_CRASH, start_s=0.5,
                               end_s=1.5, shard=0),
            ),
        )
        result = cluster_run(
            ClusterConfig(spec=spec, faults=plan, failover=False)
        )
        # The other seven shards keep serving through the outage.
        assert result.metrics.counters.completed > 0
        failed_streams = {f.stream for f in result.metrics.failures}
        all_streams = {r.stream for r in result.metrics.records}
        assert failed_streams < all_streams

    def test_rebalance_storm_diverts_traffic(self):
        plan = ClusterFaultPlan(
            name="storm",
            seed=3,
            specs=(
                ShardFaultSpec(ShardFaultKind.REBALANCE_STORM, start_s=0.0,
                               end_s=2.0, probability=0.3),
            ),
        )
        result = cluster_run(
            ClusterConfig(spec=ClusterSpec.parse("2x4"), faults=plan)
        )
        assert result.diverted > 0
        assert result.metrics.availability == 1.0

    def test_elastic_pool_grows_under_load_and_respects_ceiling(self):
        config = ClusterConfig(
            spec=ClusterSpec.parse("2x4"),
            elastic=ElasticPolicy(
                min_shards=2, max_shards=4, interval_s=0.05
            ),
        )
        result = cluster_run(config, qps=2500.0)
        assert result.scale_ups > 0
        assert 2 <= result.peak_active <= 4

    def test_cluster_needs_matching_shards_and_schedulers(self):
        config = ClusterConfig(spec=ClusterSpec.parse("2x1"))
        shards = config.spec.shards(paper_testbed())
        with pytest.raises(ConfigurationError):
            ClusterScheduler(
                cluster=config,
                shards=shards,
                schedulers=[],
                costs=COSTS,
                spec=paper_testbed(),
                params=paper_calibration(),
            )

    def test_crash_spec_beyond_the_shard_map_rejected(self):
        plan = ClusterFaultPlan(
            name="crash",
            specs=(
                ShardFaultSpec(ShardFaultKind.SHARD_CRASH, start_s=0.5,
                               end_s=1.5, shard=7),
            ),
        )
        config = ClusterConfig(spec=ClusterSpec.parse("2x1"), faults=plan)
        with pytest.raises(ConfigurationError):
            cluster_run(config)
