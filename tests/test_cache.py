"""Content-addressed cache: canonical keys and the memo store."""

import dataclasses
import json

import pytest

from repro.cache import (
    MemoStore,
    calibration_digest,
    canonical,
    experiment_key,
    fingerprint,
)
from repro.cluster import ClusterConfig
from repro.enclave.runtime import ExecutionSetting
from repro.errors import CacheError, ConfigurationError
from repro.faults import NO_FAULTS, get_fault_plan
from repro.hardware.calibration import paper_calibration
from repro.hardware.platforms import sgxv1_calibration
from repro.runconfig import RunConfig, current_run_config, use_run_config
from repro.storage import StorageConfig

#: Run configs that serve identically, so they must compare and key equal.
EQUIVALENT = {
    "planner-None-static": ({"planner": None}, {"planner": "static"}),
    "backend-None-sim": ({"backend": None}, {"backend": "sim"}),
    "rewrite-None-off": ({"rewrite": None}, {"rewrite": "off"}),
    "faults-None-none": ({"faults": None}, {"faults": "none"}),
    "faults-None-NO_FAULTS": ({"faults": None}, {"faults": NO_FAULTS}),
    "faults-name-plan": (
        {"faults": "chaos"}, {"faults": get_fault_plan("chaos")}
    ),
    "cluster-spec-config": (
        {"cluster": "2x4"}, {"cluster": ClusterConfig.parse("2x4")}
    ),
    "storage-spec-config": (
        {"storage": "256m"}, {"storage": StorageConfig.parse("256m")}
    ),
}

#: Non-default values per field: each must key apart from the default
#: and from every other one.
NON_DEFAULT = (
    ("faults", get_fault_plan("chaos")),
    ("faults", get_fault_plan("aex-storm")),
    ("faults", dataclasses.replace(get_fault_plan("chaos"), seed=24)),
    ("planner", "cost"),
    ("planner", "adaptive"),
    ("cluster", "2x4"),
    ("cluster", "2x4:load-aware"),
    ("storage", "256m"),
    ("storage", "512m"),
    ("backend", "sqlite"),
    ("backend", "duckdb"),
    ("rewrite", "prove"),
    ("rewrite", "race"),
    ("rewrite", "learned"),
)

#: (outer, inner) scope values per field for the nesting test.
NESTED = {
    "faults": ("chaos", "aex-storm"),
    "planner": ("cost", "adaptive"),
    "cluster": ("2x1", "2x4"),
    "storage": ("256m", "64m"),
    "backend": ("sqlite", "sim"),
    "rewrite": ("learned", "prove"),
}


class TestCanonical:
    def test_scalars_pass_through(self):
        assert canonical(3) == 3
        assert canonical(2.5) == 2.5
        assert canonical("x") == "x"
        assert canonical(None) is None
        assert canonical(True) is True

    def test_sequences_and_dicts(self):
        assert canonical((1, 2)) == [1, 2]
        assert canonical({"b": 2, "a": (1,)}) == {"a": [1], "b": 2}

    def test_dataclasses_carry_type_name(self):
        setting = ExecutionSetting.sgx_data_in_enclave()
        payload = canonical(setting)
        assert payload["__dataclass__"] == "ExecutionSetting"
        assert payload["data_in_enclave"] is True
        assert payload["mode"] == {"__enum__": "Mode.SGX"}

    def test_canonical_is_json_safe(self):
        json.dumps(canonical(paper_calibration()), sort_keys=True)

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(CacheError):
            canonical({1: "x"})

    def test_unhashable_object_rejected(self):
        with pytest.raises(CacheError):
            canonical(object())


class TestFingerprint:
    def test_deterministic_and_order_insensitive(self):
        assert fingerprint(a=1, b=2) == fingerprint(b=2, a=1)
        assert len(fingerprint(a=1)) == 64

    def test_distinguishes_values_and_names(self):
        assert fingerprint(a=1) != fingerprint(a=2)
        assert fingerprint(a=1) != fingerprint(b=1)

    def test_settings_distinguished(self):
        inside = fingerprint(setting=ExecutionSetting.sgx_data_in_enclave())
        outside = fingerprint(setting=ExecutionSetting.sgx_data_outside_enclave())
        assert inside != outside


class TestExperimentKey:
    def test_every_component_rotates_the_key(self):
        base = dict(quick=True, base_seed=42)
        key = experiment_key("fig08", **base)
        assert key != experiment_key("fig09", **base)
        assert key != experiment_key("fig08", quick=False, base_seed=42)
        assert key != experiment_key("fig08", quick=True, base_seed=43)
        assert key != experiment_key("fig08", traced=True, **base)

    def test_calibration_change_invalidates(self):
        default = experiment_key("fig08", quick=True, base_seed=42)
        nudged = dataclasses.replace(
            paper_calibration(), transition_cycles=9_000.0
        )
        assert default != experiment_key(
            "fig08", quick=True, base_seed=42, params=nudged
        )

    def test_calibration_digest_differs_across_platforms(self):
        assert calibration_digest() != calibration_digest(sgxv1_calibration())

    def test_extra_operator_params_keyed(self):
        plain = experiment_key("fig08", quick=True, base_seed=42)
        with_setting = experiment_key(
            "fig08",
            quick=True,
            base_seed=42,
            extra={"setting": ExecutionSetting.plain_cpu()},
        )
        assert plain != with_setting


class TestRunConfigKeys:
    BASE = dict(quick=True, base_seed=42)

    @pytest.mark.parametrize("name", sorted(EQUIVALENT))
    def test_equivalent_configs_key_equal(self, name):
        left, right = (RunConfig(**fields) for fields in EQUIVALENT[name])
        assert left == right
        assert experiment_key("wl01", run=left, **self.BASE) == \
            experiment_key("wl01", run=right, **self.BASE)

    def test_every_non_default_value_keys_apart(self):
        sampled = {name for name, _ in NON_DEFAULT}
        assert sampled == {f.name for f in dataclasses.fields(RunConfig)}
        keys = {experiment_key("wl01", **self.BASE)}
        for name, value in NON_DEFAULT:
            keys.add(
                experiment_key(
                    "wl01", run=RunConfig(**{name: value}), **self.BASE
                )
            )
        assert len(keys) == len(NON_DEFAULT) + 1

    def test_default_config_is_the_none_key(self):
        assert experiment_key("wl01", **self.BASE) == experiment_key(
            "wl01", run=RunConfig(), **self.BASE
        )

    @pytest.mark.parametrize("field", sorted(NESTED))
    def test_use_run_config_nests_and_restores(self, field):
        default = current_run_config()
        assert default == RunConfig()
        outer_value, inner_value = NESTED[field]
        outer = RunConfig(**{field: outer_value})
        with use_run_config(outer) as active:
            assert active is outer and current_run_config() is outer
            inner = dataclasses.replace(outer, **{field: inner_value})
            with use_run_config(inner):
                assert current_run_config() is inner
                assert getattr(inner, field) == getattr(
                    RunConfig(**{field: inner_value}), field
                )
            assert current_run_config() is outer
        assert current_run_config() is default

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"planner": "oracle"}, "unknown planner mode"),
            ({"backend": "postgres"}, "unknown backend"),
            ({"rewrite": "aggressive"}, "unknown rewrite mode"),
            ({"backend": "sqlite", "planner": "cost"}, "the static plans"),
            ({"backend": "sqlite", "rewrite": "race"}, "the reference plans"),
        ],
    )
    def test_validate_rejects_with_a_reason(self, fields, reason):
        config = RunConfig(**fields)  # construction only normalizes
        with pytest.raises(ConfigurationError, match=reason):
            config.validate()

    def test_bad_spec_types_rejected_at_construction(self):
        for fields in ({"cluster": 42}, {"storage": 123}, {"faults": 1}):
            with pytest.raises(ConfigurationError, match="must be a"):
                RunConfig(**fields)


class TestMemoStore:
    def test_roundtrip_and_stats(self, tmp_path):
        store = MemoStore(tmp_path)
        assert store.get("a" * 64) is None
        store.put("a" * 64, {"value": 1})
        assert store.get("a" * 64) == {"value": 1}
        assert store.stats == {"hits": 1, "misses": 1, "entries": 1}

    def test_memory_only_store(self):
        store = MemoStore()
        store.put("k", {"v": 2})
        assert store.get("k") == {"v": 2}
        assert store.path_for("k") is None

    def test_disk_persistence_across_instances(self, tmp_path):
        MemoStore(tmp_path).put("key1", {"x": [1, 2]})
        fresh = MemoStore(tmp_path)
        assert fresh.get("key1") == {"x": [1, 2]}
        assert fresh.hits == 1

    def test_lru_evicts_memory_not_disk(self, tmp_path):
        store = MemoStore(tmp_path, memory_entries=2)
        for i in range(4):
            store.put(f"key{i}", {"i": i})
        assert len(store._memory) == 2
        # Evicted entries re-promote from disk.
        assert store.get("key0") == {"i": 0}
        assert len(store) == 4

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = MemoStore(tmp_path)
        store.put("key1", {"ok": True})
        store.path_for("key1").write_text("{not json")
        fresh = MemoStore(tmp_path)
        assert fresh.get("key1") is None
        assert fresh.misses == 1

    def test_malformed_keys_rejected(self, tmp_path):
        store = MemoStore(tmp_path)
        for bad in ("", "../escape", "a/b", "a.b"):
            with pytest.raises(CacheError):
                store.path_for(bad)

    def test_non_json_value_rejected(self, tmp_path):
        store = MemoStore(tmp_path)
        with pytest.raises(CacheError):
            store.put("key1", {"bad": object()})
        with pytest.raises(CacheError):
            store.put("key1", [1, 2])

    def test_zero_capacity_rejected(self, tmp_path):
        with pytest.raises(CacheError):
            MemoStore(tmp_path, memory_entries=0)
        with pytest.raises(CacheError):
            MemoStore(tmp_path, disk_entries=0)

    def test_disk_tier_capped_oldest_out_first(self, tmp_path):
        import os

        store = MemoStore(tmp_path, disk_entries=3)
        for i in range(5):
            store.put(f"key{i}", {"i": i})
            # Distinct mtimes so the eviction order is age, not name.
            os.utime(store.path_for(f"key{i}"), (i, i))
        assert len(list(tmp_path.glob("*.json"))) == 3
        assert store.path_for("key0").exists() is False
        assert store.path_for("key1").exists() is False
        assert store.path_for("key4").exists()

    def test_disk_cap_holds_across_sessions(self, tmp_path):
        import os

        # Session one fills the directory to its cap...
        first = MemoStore(tmp_path, disk_entries=2)
        for i in range(2):
            first.put(f"key{i}", {"i": i})
            os.utime(first.path_for(f"key{i}"), (i, i))
        # ...and a later session's writes evict the oldest survivors
        # instead of growing the directory without bound.
        second = MemoStore(tmp_path, disk_entries=2)
        second.put("key9", {"i": 9})
        assert len(list(tmp_path.glob("*.json"))) == 2
        assert second.get("key0") is None  # oldest, evicted
        assert second.get("key9") == {"i": 9}  # just written, kept

    def test_uncapped_default_is_generous(self, tmp_path):
        from repro.cache.store import DEFAULT_DISK_ENTRIES

        assert DEFAULT_DISK_ENTRIES >= 1024
        store = MemoStore(tmp_path)
        for i in range(8):
            store.put(f"key{i}", {"i": i})
        assert len(list(tmp_path.glob("*.json"))) == 8


class TestTraceSidecars:
    """Trace texts live in raw sidecar files next to their JSON entry."""

    TEXTS = {"trace_jsonl": '{"a": 1}\r\nnaïve ✓\n', "trace_csv": "k,v\r\nß,漢\n"}

    @pytest.fixture
    def cached(self, tmp_path):
        from repro.bench.parallel import run_session

        session = run_session(["fig15"], cache=MemoStore(tmp_path), traced=True)
        (entry,) = tmp_path.glob("*.json")
        return tmp_path, entry, session.runs[0]

    def test_traced_session_writes_entry_without_text_plus_two_sidecars(
        self, cached
    ):
        directory, entry, run = cached
        key = entry.stem
        stored = json.loads(entry.read_text())
        assert "trace_jsonl" not in stored and "trace_csv" not in stored
        assert run.trace_jsonl.splitlines()[0] not in entry.read_text()
        assert sorted(p.name for p in directory.glob("*.trace.*")) == [
            f"{key}.trace.csv",
            f"{key}.trace.jsonl",
        ]
        jsonl = (directory / f"{key}.trace.jsonl").read_bytes()
        csv_bytes = (directory / f"{key}.trace.csv").read_bytes()
        assert jsonl == run.trace_jsonl.encode("utf-8")
        assert csv_bytes == run.trace_csv.encode("utf-8")
        assert stored["sidecars"] == {
            "trace_jsonl": {"name": f"{key}.trace.jsonl", "bytes": len(jsonl)},
            "trace_csv": {"name": f"{key}.trace.csv", "bytes": len(csv_bytes)},
        }

    @pytest.mark.parametrize("damage", ["truncated", "deleted"])
    def test_damaged_sidecar_is_a_corrupt_miss_and_recomputes(
        self, cached, damage
    ):
        from repro.bench.parallel import run_session
        from repro.trace import Tracer, use_tracer

        directory, entry, cold = cached
        sidecar = directory / f"{entry.stem}.trace.jsonl"
        if damage == "truncated":
            sidecar.write_bytes(sidecar.read_bytes()[:-10])
        else:
            sidecar.unlink()
        tracer = Tracer()
        with use_tracer(tracer):
            warm = run_session(["fig15"], cache=MemoStore(directory), traced=True)
        corrupt = [r for r in tracer.records if r.name == "cache.corrupt_entry"]
        assert [r.attrs["key"] for r in corrupt] == [entry.stem]
        assert warm.cache_misses == 1 and not warm.runs[0].from_cache
        rerun = warm.runs[0]
        assert rerun.report.as_dict() == cold.report.as_dict()
        assert rerun.trace_jsonl == cold.trace_jsonl
        assert rerun.trace_csv == cold.trace_csv
        # The recomputed run rewrote a whole entry: the next read hits.
        again = run_session(["fig15"], cache=MemoStore(directory), traced=True)
        assert again.cache_hits == 1
        assert again.runs[0].trace_jsonl == cold.trace_jsonl

    def test_disk_eviction_removes_sidecars(self, tmp_path):
        import os

        store = MemoStore(tmp_path, disk_entries=1)
        store.put("key0", dict(self.TEXTS))
        os.utime(store.path_for("key0"), (0, 0))
        store.put("key1", dict(self.TEXTS))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "key1.json",
            "key1.trace.csv",
            "key1.trace.jsonl",
        ]
        assert len(store) == 1

    def test_texts_round_trip_byte_for_byte(self, tmp_path):
        MemoStore(tmp_path).put("key1", {"other": 1, **self.TEXTS})
        assert MemoStore(tmp_path).get("key1") == {"other": 1, **self.TEXTS}
        for field, suffix in (("trace_jsonl", "jsonl"), ("trace_csv", "csv")):
            raw = (tmp_path / f"key1.trace.{suffix}").read_bytes()
            assert raw == self.TEXTS[field].encode("utf-8")

    def test_untraced_values_and_memory_stores_keep_no_sidecars(self, tmp_path):
        store = MemoStore(tmp_path)
        store.put("key1", {"trace_jsonl": None, "trace_csv": None})
        assert MemoStore(tmp_path).get("key1") == {
            "trace_jsonl": None,
            "trace_csv": None,
        }
        assert not list(tmp_path.glob("*.trace.*"))
        memory = MemoStore()
        memory.put("key1", dict(self.TEXTS))
        assert memory.get("key1") == self.TEXTS

    def test_sidecar_field_is_reserved(self, tmp_path):
        with pytest.raises(CacheError):
            MemoStore(tmp_path).put("key1", {"sidecars": {}})
