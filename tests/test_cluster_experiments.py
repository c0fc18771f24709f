"""wl06 golden-shape checks and the cluster determinism gate."""

from repro.bench.experiments.wl06_cluster_scaleout import SLO_MS
from repro.bench.parallel import run_session
from repro.bench.registry import EXPERIMENTS, run_experiment
from repro.cache import MemoStore, experiment_key
from repro.cluster import ClusterConfig
from repro.runconfig import RunConfig

# One quick wl06 run shared across the module (deterministic per seed).
_cache = {}


def report_for(experiment_id):
    if experiment_id not in _cache:
        _cache[experiment_id] = run_experiment(experiment_id, quick=True)
    return _cache[experiment_id]


class TestWl06Registered:
    def test_wl06_in_registry(self):
        assert "wl06" in EXPERIMENTS


class TestWl06ScaleOutSweep:
    def test_all_sweep_points_reported(self):
        report = report_for("wl06")
        for shards in (1, 2, 4, 8):
            assert report.value("scale-out p99", shards) > 0
            assert report.value("scale-out achieved", shards) > 0

    def test_single_enclave_baseline_saturates(self):
        report = report_for("wl06")
        # The offered load exceeds one socket: the 1-shard arm's tail
        # blows through the SLO and most queries miss it.
        assert report.value("scale-out p99", 1) > 3 * SLO_MS
        assert report.value("scale-out SLO attainment", 1) < 0.5
        # Goodput plateaus below what the sharded pools complete.
        assert report.value("scale-out goodput", 1) < \
            0.8 * report.value("scale-out goodput", 8)

    def test_eight_shards_sustain_10k_qps_inside_the_slo(self):
        report = report_for("wl06")
        assert report.value("scale-out achieved", 8) >= 10_000
        assert report.value("scale-out p99", 8) < SLO_MS
        assert report.value("scale-out SLO attainment", 8) > 0.95


class TestWl06Skew:
    def test_load_aware_rescues_the_hot_tenant(self):
        report = report_for("wl06")
        hash_p99 = report.value("skew hot-tenant p99", "hash")
        aware_p99 = report.value("skew hot-tenant p99", "load-aware")
        assert hash_p99 > 5 * aware_p99
        assert report.value("skew SLO attainment", "load-aware") > \
            report.value("skew SLO attainment", "hash")

    def test_load_aware_pays_for_shuffles(self):
        report = report_for("wl06")
        assert report.value("skew shuffle time", "hash") == 0.0
        assert report.value("skew shuffle time", "load-aware") > 0.0


class TestWl06Failover:
    def test_failover_recovers_availability(self):
        report = report_for("wl06")
        assert report.value("crash availability", "failover") == 1.0
        assert report.value("crash availability", "no-failover") < 0.99

    def test_failover_arm_still_clears_10k_qps(self):
        report = report_for("wl06")
        assert report.value("crash goodput", "failover") >= 10_000


class TestWl06Elastic:
    def test_elastic_pool_absorbs_the_peak(self):
        report = report_for("wl06")
        assert report.value("elastic p99", "elastic") < \
            0.5 * report.value("elastic p99", "static-2")
        assert report.value("elastic SLO attainment", "elastic") > \
            report.value("elastic SLO attainment", "static-2")

    def test_pool_sizes_respect_their_ceilings(self):
        report = report_for("wl06")
        assert report.value("elastic peak shards", "elastic") > 2
        assert report.value("elastic peak shards", "static-2") == 2


class TestWl06Determinism:
    def test_repeat_runs_are_identical(self):
        first = report_for("wl06")
        second = run_experiment("wl06", quick=True)
        assert [(r.series, r.x, r.value) for r in first.rows] == \
            [(r.series, r.x, r.value) for r in second.rows]
        assert first.notes == second.notes


class TestClusterDeterminismGate:
    """Serial == --jobs N == cached replay under --cluster 2x4 --seed 7."""

    def test_serial_parallel_and_replay_agree(self, tmp_path):
        run = RunConfig(cluster="2x4")
        ids = ["wl01", "tab01"]  # two pending: exercises the spawn pool
        serial = run_session(ids, base_seed=7, run=run)
        store = MemoStore(tmp_path / "cache")
        cold = run_session(ids, jobs=2, base_seed=7, run=run, cache=store)
        warm = run_session(ids, jobs=2, base_seed=7, run=run, cache=store)
        for runs in zip(serial.runs, cold.runs, warm.runs):
            texts = {run.report.to_csv() for run in runs}
            assert len(texts) == 1
        assert all(run.from_cache for run in warm.runs)
        assert not any(run.from_cache for run in cold.runs)

    def test_cluster_rotates_the_cache_key(self):
        plain = experiment_key("wl01", quick=True, base_seed=7)
        sharded = experiment_key(
            "wl01", quick=True, base_seed=7,
            run=RunConfig(cluster=ClusterConfig.parse("2x4")),
        )
        other = experiment_key(
            "wl01", quick=True, base_seed=7,
            run=RunConfig(cluster=ClusterConfig.parse("2x4:load-aware")),
        )
        assert len({plain, sharded, other}) == 3

    def test_ambient_cluster_reshapes_wl01(self):
        sharded = run_experiment(
            "wl01", quick=True, base_seed=7,
            run=RunConfig(cluster=ClusterConfig.parse("2x4")),
        )
        plain = run_experiment("wl01", quick=True, base_seed=7)
        assert [(r.series, r.x, r.value) for r in sharded.rows] != \
            [(r.series, r.x, r.value) for r in plain.rows]
