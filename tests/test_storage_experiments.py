"""wl07 golden-shape checks and the storage determinism gate."""

from repro.bench.experiments.wl07_spill_scaleout import (
    BUDGET_FRACTIONS,
    SHARD_SPEC,
)
from repro.bench.parallel import run_session
from repro.bench.registry import EXPERIMENTS, run_experiment
from repro.cache import MemoStore
from repro.runconfig import RunConfig
from repro.storage import StorageConfig

# One quick wl07 run shared across the module (deterministic per seed).
_cache = {}


def report_for(experiment_id):
    if experiment_id not in _cache:
        _cache[experiment_id] = run_experiment(experiment_id, quick=True)
    return _cache[experiment_id]


class TestWl07Registered:
    def test_wl07_in_registry(self):
        assert "wl07" in EXPERIMENTS


class TestWl07Sweep:
    def test_squeeze_forces_the_spill_regime(self):
        report = report_for("wl07")
        for fraction in BUDGET_FRACTIONS:
            assert report.value("spills", fraction) > 0
            assert report.value("seal time", fraction) > 0
            assert report.value("unseal time", fraction) > 0

    def test_spill_volume_grows_as_the_budget_shrinks(self):
        report = report_for("wl07")
        ordered = sorted(BUDGET_FRACTIONS, reverse=True)  # roomy -> tight
        volumes = [report.value("spilled volume", f) for f in ordered]
        assert volumes == sorted(volumes)

    def test_sealed_spill_beats_edmm_thrash_when_deep(self):
        report = report_for("wl07")
        tight = BUDGET_FRACTIONS[-1]
        assert report.value("spill p99", tight) < \
            report.value("edmm p99", tight)
        assert report.value("spill goodput", tight) > \
            report.value("edmm goodput", tight)

    def test_reference_arm_is_the_floor(self):
        report = report_for("wl07")
        ref_p99 = report.value("reference latency", 99)
        for fraction in BUDGET_FRACTIONS:
            assert report.value("spill p99", fraction) > ref_p99


class TestWl07FaultAndShardArms:
    def test_faulted_arm_hits_both_hazards(self):
        report = report_for("wl07")
        assert report.value("stalled spills", "spill-faulted") > 0

    def test_sharded_arm_spills(self):
        report = report_for("wl07")
        assert report.value("sharded spills", SHARD_SPEC) > 0


class TestWl07Determinism:
    def test_repeat_runs_are_identical(self):
        first = report_for("wl07")
        second = run_experiment("wl07", quick=True)
        assert [(r.series, r.x, r.value) for r in first.rows] == \
            [(r.series, r.x, r.value) for r in second.rows]
        assert first.notes == second.notes


class TestStorageDeterminismGate:
    """Serial == --jobs N == cached replay under --storage 200m --seed 7."""

    def test_serial_parallel_and_replay_agree(self, tmp_path):
        run = RunConfig(storage="200m")
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

    def test_ambient_storage_reshapes_wl01(self):
        spilling = run_experiment(
            "wl01", quick=True, base_seed=7,
            run=RunConfig(storage=StorageConfig.parse("200m")),
        )
        plain = run_experiment("wl01", quick=True, base_seed=7)
        assert [(r.series, r.x, r.value) for r in spilling.rows] != \
            [(r.series, r.x, r.value) for r in plain.rows]

    def test_spec_string_accepted_too(self):
        by_string = run_experiment(
            "wl01", quick=True, base_seed=7, run=RunConfig(storage="200m")
        )
        by_config = run_experiment(
            "wl01", quick=True, base_seed=7,
            run=RunConfig(storage=StorageConfig.parse("200m")),
        )
        assert [(r.series, r.x, r.value) for r in by_string.rows] == \
            [(r.series, r.x, r.value) for r in by_config.rows]
