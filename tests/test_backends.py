"""repro.backends: equivalence gate, SGX cost envelope, backend wiring."""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import os
import pathlib
import re
import sqlite3
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import repro

from repro.backends import (
    BACKENDS_EXTRA,
    ENGINE_MODES,
    ColumnBag,
    SQLiteBackend,
    assert_equivalent,
    bag_digest,
    canonical_bag,
    make_engine,
    materialize,
    missing_reason,
    sim_rows,
    validate_mode,
)
from repro.backends import engines, serving
from repro.backends.dataset import Dataset
from repro.backends.engines import FETCH_ROWS, MAX_BOUND_PARAMS
from repro.backends.envelope import (
    PROFILES_PATH,
    SgxCostEnvelope,
    get_profile,
    load_profiles,
)
from repro.backends.equivalence import canonical_value
from repro.backends.serving import (
    engine_profile,
    gate_template,
    gate_templates,
)
from repro.cache import experiment_key
from repro.cli import main as cli_main
from repro.enclave.runtime import ExecutionSetting
from repro.errors import ConfigurationError, EquivalenceError
from repro.hardware.platforms import sgxv1_calibration, sgxv1_testbed
from repro.machine import SimMachine
from repro.planner.standin import standin_key
from repro.runconfig import RunConfig, use_run_config
from repro.tables.table import Column, Table
from repro.trace import Tracer, backend_breakdown, use_tracer
from repro.workload.jobs import (
    JobCatalog,
    JobKind,
    JobTemplate,
    serving_templates,
)

HAVE_DUCKDB = importlib.util.find_spec("duckdb") is not None

#: The engines this environment can run (SQLite always).
ENGINES = [mode for mode in ENGINE_MODES if missing_reason(mode) is None]


class TestEquivalence:
    def test_empty_bags_agree(self):
        assert assert_equivalent({"a": [], "b": []}) == bag_digest([])

    def test_empty_vs_nonempty_fails(self):
        with pytest.raises(EquivalenceError, match="row counts differ"):
            assert_equivalent({"a": [], "b": [(1,)]})

    def test_all_null_columns(self):
        rows = [(None, None), (None, None)]
        assert assert_equivalent({"a": rows, "b": list(rows)})
        with pytest.raises(EquivalenceError):
            assert_equivalent({"a": rows, "b": [(None, None), (None, 0)]})

    def test_duplicate_rows_are_a_bag_not_a_set(self):
        with pytest.raises(EquivalenceError):
            assert_equivalent({"a": [(1,), (1,)], "b": [(1,)]})
        assert assert_equivalent({"a": [(1,), (1,)], "b": [(1,), (1,)]})

    def test_float_ties_at_quantization_boundary(self):
        # Differences far below the quantum collapse to one digest...
        assert bag_digest([(0.1 + 0.2,)]) == bag_digest([(0.3,)])
        assert bag_digest([(1.0000000000004,)]) == bag_digest([(1,)])
        # ...but real differences above it stay distinct.
        assert bag_digest([(1.00001,)]) != bag_digest([(1,)])

    def test_int_float_unify(self):
        assert bag_digest([(1,)]) == bag_digest([(1.0,)])
        assert bag_digest([(-0.0,)]) == bag_digest([(0,)])
        assert bag_digest([(True,)]) == bag_digest([(1,)])

    def test_nan_and_infinities_are_stable(self):
        weird = [(float("nan"), float("inf"), float("-inf"))]
        assert bag_digest(weird) == bag_digest(list(weird))

    def test_digest_ignores_column_order(self):
        # The digest sorts values within rows; the check does not (below).
        assert bag_digest([(1, 2), (3, 4)]) == bag_digest([(2, 1), (4, 3)])

    def test_digest_ignores_column_order_for_large_ints(self):
        # Regression guard: value ordering must be exact, not via a lossy
        # float rendering (2**60 and 2**60 + 1 format identically there).
        a, b = 2**60, 2**60 + 1
        assert bag_digest([(a, b)]) == bag_digest([(b, a)])

    def test_row_order_insensitivity(self):
        assert bag_digest([(1,), (2,)]) == bag_digest([(2,), (1,)])

    def test_canonical_bag_is_json_stable(self):
        bag = canonical_bag([(2, None), (1.5, "x")])
        json.dumps(bag)  # must be serializable as-is

    def test_error_names_backends_and_first_difference(self):
        with pytest.raises(EquivalenceError, match="sim.*other"):
            assert_equivalent(
                {"sim": [(1,)], "other": [(2,)]}, context="t"
            )


class TestEquivalenceMutations:
    """The check compares aligned columns: each mutation below must fail
    (or pass) exactly as the canonical values say."""

    def test_one_swapped_row_fails_naming_it(self):
        with pytest.raises(
            EquivalenceError,
            match=re.escape("first misaligned row #1: (3, 4) vs (4, 3)"),
        ):
            assert_equivalent({"a": [(1, 2), (3, 4)], "b": [(1, 2), (4, 3)]})

    def test_one_swapped_row_fails_among_many(self):
        rows = [(i, 10 * i) for i in range(1000)]
        swapped = list(rows)
        swapped[500] = (5000, 500)
        with pytest.raises(EquivalenceError, match="misaligned row"):
            assert_equivalent({"a": rows, "b": swapped})

    def test_values_recombined_across_rows_fail(self):
        # Each column keeps its values; the rows do not.
        with pytest.raises(EquivalenceError, match="first differing row"):
            assert_equivalent({"a": [(1, 2), (3, 4)], "b": [(1, 4), (3, 2)]})

    def test_dropped_duplicate_fails(self):
        with pytest.raises(EquivalenceError, match="row counts differ"):
            assert_equivalent({"a": [(1, 2), (1, 2), (3, 4)],
                               "b": [(1, 2), (3, 4)]})
        # Same count: one copy of a doubled row traded for another row.
        with pytest.raises(EquivalenceError, match="first differing row"):
            assert_equivalent({"a": [(1, 2), (1, 2), (3, 4)],
                               "b": [(1, 2), (3, 4), (3, 4)]})

    def test_negative_zero_equals_zero(self):
        assert assert_equivalent(
            {"a": [(-0.0, 1)], "b": [(0.0, 1)], "c": [(0, 1.0)]}
        ) == bag_digest([(0, 1)])

    def test_nan_equals_nan_only(self):
        nan = float("nan")
        assert assert_equivalent({"a": [(nan, 1)], "b": [(nan, 1)]})
        with pytest.raises(EquivalenceError, match="first differing row"):
            assert_equivalent({"a": [(nan, 1)], "b": [(0.0, 1)]})

    @pytest.mark.parametrize("step", [1.5e-9, 1 + 0.5e-9, -2.5e-9])
    def test_floats_one_ulp_around_a_quantization_step(self, step):
        below = math.nextafter(step, -math.inf)
        above = math.nextafter(step, math.inf)
        assert canonical_value(below) != canonical_value(above)
        for left in (below, step, above):
            for right in (below, step, above):
                agree = canonical_value(left) == canonical_value(right)
                try:
                    assert_equivalent({"a": [(left,)], "b": [(right,)]})
                except EquivalenceError:
                    assert not agree, (left, right)
                else:
                    assert agree, (left, right)

    def test_named_columns_align_in_any_order(self):
        digest = assert_equivalent(
            {"a": [(1, 2), (3, 4)], "b": [(2, 1), (4, 3)]},
            columns={"a": ("x", "y"), "b": ("y", "x")},
        )
        assert digest == bag_digest([(1, 2), (3, 4)])

    def test_permuted_columns_without_names_fail(self):
        with pytest.raises(EquivalenceError, match="misaligned row #0"):
            assert_equivalent({"a": [(1, 2), (3, 4)], "b": [(2, 1), (4, 3)]})

    def test_named_columns_must_match(self):
        with pytest.raises(EquivalenceError, match="column names differ"):
            assert_equivalent(
                {"a": [(1, 2)], "b": [(1, 2)]},
                columns={"a": ("x", "y"), "b": ("x", "z")},
            )
        with pytest.raises(EquivalenceError, match="width"):
            assert_equivalent(
                {"a": [(1, 2)], "b": [(1, 2, 3)]},
                columns={"a": ("x", "y"), "b": ("x", "y")},
            )


class TestBackendsAgree:
    """Sim and SQLite must produce identical bags on every template."""

    @pytest.mark.parametrize("name", sorted(serving_templates()))
    def test_serving_template_bags_match(self, name):
        # The gate's digest is the one the calibration artifact pins.
        catalog = JobCatalog()
        digest = gate_template(catalog, serving_templates()[name], "sqlite")
        assert digest == load_profiles()[("sqlite", name)].bag_digest

    def test_artifact_pins_every_serving_template(self):
        pinned = {name for mode, name in load_profiles() if mode == "sqlite"}
        assert pinned == set(serving_templates())

    def test_gate_materializes_the_dataset_once(self, monkeypatch):
        calls = []

        def counting(template, **caps):
            calls.append(template.name)
            return materialize(template, **caps)

        monkeypatch.setattr(serving, "materialize", counting)
        monkeypatch.setattr(engines, "materialize", counting)
        template = serving_templates()["scan-small"]
        gate_template(JobCatalog(), template, "sqlite")
        assert calls == ["scan-small"]

    def test_sqlite_rows_match_sim_rows_directly(self):
        template = serving_templates()["scan-small"]
        catalog = JobCatalog()
        dataset = materialize(
            template, seed=13, row_cap=catalog.row_cap, sf_cap=catalog.sf_cap
        )
        sim_bag = sim_rows(catalog, dataset)
        engine_bag, profile = SQLiteBackend().run_template(
            template, seed=13, row_cap=catalog.row_cap, sf_cap=catalog.sf_cap
        )
        assert canonical_bag(sim_bag) == canonical_bag(engine_bag)
        assert profile.prepare_s > 0 and profile.execute_s > 0

    def test_templates_with_one_standin_key_share_their_tables(self):
        catalog = JobCatalog()
        templates = sorted(serving_templates().values(), key=lambda t: t.name)
        caps = dict(
            seed=catalog.pricing_seed,
            row_cap=catalog.row_cap,
            sf_cap=catalog.sf_cap,
        )
        shared = [
            (left, right)
            for left, right in itertools.combinations(templates, 2)
            if standin_key(left, catalog.row_cap)
            == standin_key(right, catalog.row_cap)
        ]
        assert [(a.name, b.name) for a, b in shared] == [
            ("join-big", "join-medium"),
            ("q12", "q3"),
        ]
        for left, right in shared:
            ours = materialize(left, **caps)
            theirs = materialize(right, **caps)
            assert ours.params == theirs.params
            assert list(ours.tables) == list(theirs.tables)
            for name, table in ours.tables.items():
                other = theirs.tables[name]
                assert table.column_names == other.column_names
                for column in table.column_names:
                    assert np.array_equal(table[column], other[column])

    def test_gate_loads_each_shared_dataset_once(self, monkeypatch):
        materialized, engines = [], []

        def counting(template, **caps):
            materialized.append(template.name)
            return materialize(template, **caps)

        def recording(mode):
            engines.append(_RecordingSQLite())
            return engines[-1]

        monkeypatch.setattr(serving, "materialize", counting)
        monkeypatch.setattr(serving, "make_engine", recording)
        templates = serving_templates()
        names = ("join-medium", "q3", "join-big", "q12")
        digests = gate_templates(
            JobCatalog(), [templates[name] for name in names], "sqlite"
        )
        pinned = load_profiles()
        assert digests == {
            name: pinned[("sqlite", name)].bag_digest for name in names
        }
        assert materialized == ["join-medium", "q3"]
        assert [len(engine.connections) for engine in engines] == [2]
        assert all(connection.closed for connection in engines[0].connections)

    def test_gate_failures_are_collected_per_template(self, monkeypatch):
        def wrong_for_q3(catalog, dataset):
            bag = sim_rows(catalog, dataset)
            if dataset.template.name == "q3":
                return ColumnBag([bag.columns[0] + 1])
            return bag

        monkeypatch.setattr(serving, "sim_rows", wrong_for_q3)
        templates = serving_templates()
        chosen = [templates["q3"], templates["q12"]]
        failures = {}
        digests = gate_templates(
            JobCatalog(), chosen, "sqlite", failures=failures
        )
        assert list(digests) == ["q12"]
        assert list(failures) == ["q3"]
        assert "first differing row #0" in str(failures["q3"])
        with pytest.raises(EquivalenceError, match="template 'q3'"):
            gate_templates(JobCatalog(), chosen, "sqlite")


class TestGateMemory:
    """The gate keeps a result in columns from the producers to the
    digest: no per-row Python objects for an all-integer bag."""

    #: Bound on the join-medium gate's Python heap peak (tracemalloc).
    PEAK_BYTES = 14 * 2**20

    def test_join_medium_gate_peak_stays_columnar(self):
        template = serving_templates()["join-medium"]
        catalog = JobCatalog(quick=True)
        tracemalloc.start()
        try:
            digest = gate_template(catalog, template, "sqlite")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest == load_profiles()[("sqlite", "join-medium")].bag_digest
        assert peak <= self.PEAK_BYTES, f"{peak / 2**20:.1f} MiB"


class _RecordingConnection:
    """A real in-memory SQLite connection that records each statement's
    bound-parameter count and whether it was closed."""

    def __init__(self):
        self.conn = sqlite3.connect(":memory:")
        self.params = []
        self.closed = False

    def execute(self, sql, *args):
        self.params.append(sql.count("?"))
        return self.conn.execute(sql, *args)

    def executemany(self, sql, seq):
        self.params.append(sql.count("?"))
        return self.conn.executemany(sql, seq)

    def commit(self):
        self.conn.commit()

    def close(self):
        self.closed = True
        self.conn.close()


class _RecordingSQLite(SQLiteBackend):
    def __init__(self):
        self.connections = []

    def _connect(self):
        self.connections.append(_RecordingConnection())
        return self.connections[-1]


def _synthetic(tables):
    """A dataset of ``tables`` (template and caps are placeholders)."""
    return Dataset(
        template=serving_templates()["scan-small"],
        seed=0,
        row_cap=0,
        sf_cap=0.0,
        tables={table.name: table for table in tables},
    )


def _assert_round_trip(conn, dataset):
    """Each table reads back as its columns' own ``tolist()`` rows, in
    insertion order and as Python ints."""
    for name, table in dataset.tables.items():
        rows = conn.execute(f'SELECT * FROM "{name}" ORDER BY rowid').fetchall()
        expected = list(
            zip(*(table[column].tolist() for column in table.column_names))
        )
        assert rows == expected, name
        assert set(map(type, itertools.chain.from_iterable(rows))) == {int}


class TestLoader:
    """The engines' batched loader inserts exactly the bound values."""

    @pytest.mark.parametrize("name", sorted(serving_templates()))
    def test_serving_datasets_round_trip(self, name):
        catalog = JobCatalog()
        dataset = materialize(
            serving_templates()[name],
            seed=catalog.pricing_seed,
            row_cap=catalog.row_cap,
            sf_cap=catalog.sf_cap,
        )
        handle = SQLiteBackend().prepare(dataset)
        try:
            _assert_round_trip(handle.state, dataset)
        finally:
            handle.state.close()

    @pytest.mark.parametrize("width", [1, 2, 9])
    def test_batch_edges_round_trip(self, width):
        batch = max(1, MAX_BOUND_PARAMS // width)
        tables = [
            Table(
                f"t{rows}",
                [
                    Column(f"c{j}", np.arange(rows, dtype=np.int64) * 10 + j)
                    for j in range(width)
                ],
            )
            for rows in (1, batch - 1, batch, batch + 1)
        ]
        backend = _RecordingSQLite()
        dataset = _synthetic(tables)
        handle = backend.prepare(dataset)
        try:
            _assert_round_trip(handle.state.conn, dataset)
        finally:
            handle.state.close()
        assert max(backend.connections[0].params) <= MAX_BOUND_PARAMS

    def test_mixed_dtypes_bind_each_columns_own_values(self):
        # Stacking these columns into one array would promote them to
        # float64 and round the int64 values above 2**53.
        rows = 2 * MAX_BOUND_PARAMS + 7
        big = 2**53 + 1 + 2 * np.arange(rows, dtype=np.int64)
        table = Table(
            "mixed",
            [
                Column("small", np.arange(rows, dtype=np.int32) - 5),
                Column("big", big),
                Column("unsigned", big.astype(np.uint64)),
                Column("negative", -big),
            ],
        )
        dataset = _synthetic([table])
        handle = SQLiteBackend().prepare(dataset)
        try:
            _assert_round_trip(handle.state, dataset)
        finally:
            handle.state.close()

    @pytest.mark.parametrize("rows", [1, MAX_BOUND_PARAMS + 1])
    def test_failed_load_closes_the_connection(self, rows):
        # SQLite cannot bind a uint64 above 2**63 - 1.
        values = np.zeros(rows, dtype=np.uint64)
        values[0] = np.iinfo(np.uint64).max
        backend = _RecordingSQLite()
        with pytest.raises(OverflowError):
            backend.prepare(_synthetic([Table("t", [Column("v", values)])]))
        assert [conn.closed for conn in backend.connections] == [True]


@pytest.mark.parametrize("engine", ENGINES)
class TestEngineRoundTrip:
    """What an engine loads comes back through its batched fetch: int64
    columns for an all-integer result, the cursor's rows otherwise."""

    def _run(self, engine, tables, sql):
        backend = make_engine(engine)
        handle = backend.prepare(_synthetic(tables))
        try:
            return backend.execute(handle, sql)
        finally:
            backend.close(handle)

    @pytest.mark.parametrize("name", sorted(serving_templates()))
    def test_serving_tables_read_back_as_columns(self, engine, name):
        catalog = JobCatalog()
        dataset = materialize(
            serving_templates()[name],
            seed=catalog.pricing_seed,
            row_cap=catalog.row_cap,
            sf_cap=catalog.sf_cap,
        )
        backend = make_engine(engine)
        handle = backend.prepare(dataset)
        try:
            for table_name, table in dataset.tables.items():
                sql = f'SELECT * FROM "{table_name}" ORDER BY rowid'
                bag, _ = backend.execute(handle, sql)
                assert isinstance(bag, ColumnBag)
                assert len(bag) == table.num_rows
                for column, fetched in zip(table.column_names, bag.columns):
                    assert fetched.dtype == np.int64
                    assert np.array_equal(fetched, table[column]), column
        finally:
            backend.close(handle)

    @pytest.mark.parametrize(
        "rows", [0, 1, FETCH_ROWS - 1, FETCH_ROWS, FETCH_ROWS + 1]
    )
    def test_fetch_batch_edges(self, engine, rows):
        values = np.arange(rows, dtype=np.int64) - rows // 2
        table = Table("t", [Column("a", values), Column("b", -3 * values)])
        bag, _ = self._run(
            engine, [table], 'SELECT b, a FROM "t" ORDER BY rowid'
        )
        assert isinstance(bag, ColumnBag)
        assert len(bag) == rows
        assert len(bag.columns) == 2
        assert np.array_equal(bag.columns[0], -3 * values)
        assert np.array_equal(bag.columns[1], values)

    def test_int64_bounds_stay_exact(self, engine):
        table = Table("t", [Column("v", np.arange(1, dtype=np.int64))])
        bag, _ = self._run(
            engine,
            [table],
            "SELECT 9223372036854775807, -9223372036854775807 - 1 FROM t",
        )
        assert list(bag) == [(2**63 - 1, -(2**63))]

    @pytest.mark.parametrize("null_at", [0, FETCH_ROWS + 2])
    def test_non_integer_results_fall_back_to_rows(self, engine, null_at):
        rows = FETCH_ROWS + 3
        table = Table("t", [Column("v", np.arange(rows, dtype=np.int64))])
        bag, _ = self._run(
            engine,
            [table],
            f'SELECT CASE WHEN v = {null_at} THEN NULL ELSE v END, v '
            'FROM "t" ORDER BY rowid',
        )
        expected = [(v, v) for v in range(rows)]
        expected[null_at] = (None, null_at)
        assert bag == expected
        halves, _ = self._run(
            engine, [table], 'SELECT v * 0.5 FROM "t" ORDER BY rowid'
        )
        assert halves == [(v * 0.5,) for v in range(rows)]


class TestCalibrate:
    def test_sqlite_capture_matches_the_artifact(self, tmp_path):
        """Re-capturing the artifact reproduces every field but the
        wall-clock timings: the engine loads and answers as it did."""
        out = tmp_path / "profiles.json"
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.backends.calibrate",
                "--backend", "sqlite", "--repeats", "1", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]

        def untimed(payload):
            return {
                (entry["backend"], entry["template"]): {
                    key: value
                    for key, value in entry.items()
                    if key not in ("prepare_s", "execute_s")
                }
                for entry in payload["profiles"]
                if entry["backend"] == "sqlite"
            }

        captured = json.loads(out.read_text())
        stored = json.loads(PROFILES_PATH.read_text())
        assert captured["format"] == stored["format"]
        assert captured["captured"] == stored["captured"]
        assert untimed(captured) == untimed(stored)


class TestEnvelope:
    def test_artifact_loads_and_prices(self):
        profiles = load_profiles()
        template = serving_templates()["q12"]
        cost = SgxCostEnvelope().price(
            get_profile("sqlite", template, profiles), template
        )
        assert cost.plain_s > 0
        assert cost.init_s > 0
        assert cost.in_enclave_s > cost.plain_s
        assert cost.overhead > 1.0
        assert cost.paging_s == 0.0  # SGXv2: no EPC paging

    def test_sgxv1_pays_paging_beyond_the_epc(self):
        profiles = load_profiles()
        template = serving_templates()["join-medium"]
        profile = get_profile("sqlite", template, profiles)
        v2 = SgxCostEnvelope().price(profile, template)
        v1 = SgxCostEnvelope(
            SimMachine(sgxv1_testbed(), sgxv1_calibration())
        ).price(profile, template)
        assert v1.paging_s > 0.0
        assert v1.in_enclave_s > v2.in_enclave_s

    def test_unknown_profile_names_the_calibrate_command(self):
        template = JobTemplate(
            name="nowhere", kind=JobKind.SCAN, scan_bytes=1e6
        )
        with pytest.raises(ConfigurationError, match="calibrate"):
            get_profile("sqlite", template, load_profiles())


class TestConfig:
    def test_validate_mode(self):
        assert validate_mode("sim") == "sim"
        with pytest.raises(ConfigurationError, match="unknown backend"):
            validate_mode("postgres")

    def test_missing_reason_names_the_extra(self):
        assert missing_reason("sim") is None
        assert missing_reason("sqlite") is None
        if not HAVE_DUCKDB:
            assert BACKENDS_EXTRA in missing_reason("duckdb")

    @pytest.mark.skipif(HAVE_DUCKDB, reason="duckdb wheel installed")
    def test_unavailable_engine_raises_one_configuration_error(self):
        with pytest.raises(ConfigurationError, match=re.escape(BACKENDS_EXTRA)):
            make_engine("duckdb")


class TestCatalogRegression:
    def test_duplicate_template_name_rejected(self):
        catalog = JobCatalog()
        first = JobTemplate(
            name="dup", kind=JobKind.SCAN, threads=1, scan_bytes=1e6
        )
        catalog.profile(first)
        # Same name, same fields: fine (the cache answers).
        catalog.profile(
            JobTemplate(name="dup", kind=JobKind.SCAN, threads=1,
                        scan_bytes=1e6)
        )
        with pytest.raises(ConfigurationError, match="already registered"):
            catalog.profile(
                JobTemplate(name="dup", kind=JobKind.SCAN, threads=1,
                            scan_bytes=2e6)
            )
        with pytest.raises(ConfigurationError, match="already registered"):
            catalog.cost(
                JobTemplate(name="dup", kind=JobKind.SCAN, threads=2,
                            scan_bytes=1e6),
                ExecutionSetting.plain_cpu(),
            )

    def test_engine_and_sim_profiles_do_not_share_cache_entries(self):
        catalog = JobCatalog()
        template = serving_templates()["scan-small"]
        sim_cost = catalog.cost(template, ExecutionSetting.plain_cpu())
        with use_run_config(RunConfig(backend="sqlite")):
            engine_cost = catalog.cost(template, ExecutionSetting.plain_cpu())
        assert engine_cost.service_s != sim_cost.service_s
        # And the sim entry is still intact afterwards.
        again = catalog.cost(template, ExecutionSetting.plain_cpu())
        assert again.service_s == sim_cost.service_s


class TestServingBridge:
    def test_engine_profile_prices_both_settings_and_traces(self):
        catalog = JobCatalog()
        template = serving_templates()["q12"]
        tracer = Tracer()
        with use_tracer(tracer):
            profile = engine_profile(catalog, template, "sqlite")
        plain, enclave = JobCatalog.SETTINGS
        assert (
            profile.service_seconds_by_setting[enclave.label]
            > profile.service_seconds_by_setting[plain.label]
        )
        assert profile.working_set_bytes > 0
        names = [r.name for r in tracer.records]
        assert names.count("backend.equivalence") == 1
        assert names.count("backend.envelope") == 1
        breakdown = backend_breakdown(tracer)
        assert breakdown.gates_passed == 1
        assert breakdown.priced == 1
        assert breakdown.in_enclave_s > breakdown.plain_s * 0  # well-formed
        assert breakdown.gated_rows > 0

    def test_gate_runs_once_per_catalog_and_template(self):
        catalog = JobCatalog()
        template = serving_templates()["scan-small"]
        tracer = Tracer()
        with use_tracer(tracer):
            engine_profile(catalog, template, "sqlite")
            engine_profile(catalog, template, "sqlite")
        names = [r.name for r in tracer.records]
        assert names.count("backend.equivalence") == 1


class TestCacheKeys:
    def test_engine_backends_never_alias_sim(self):
        base = experiment_key("wl01", quick=True, base_seed=42)
        sqlite = experiment_key(
            "wl01", quick=True, base_seed=42, run=RunConfig(backend="sqlite")
        )
        duckdb = experiment_key(
            "wl01", quick=True, base_seed=42, run=RunConfig(backend="duckdb")
        )
        assert len({base, sqlite, duckdb}) == 3


class TestCli:
    def test_unknown_backend_exits_2(self, capsys):
        assert cli_main(["wl01", "--backend", "postgres"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    @pytest.mark.skipif(HAVE_DUCKDB, reason="duckdb wheel installed")
    def test_unavailable_backend_exits_2_naming_the_extra(
        self, capsys, tmp_path
    ):
        out = tmp_path / "csv"
        assert cli_main(
            ["wl01", "--backend", "duckdb", "--csv", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert BACKENDS_EXTRA in err
        assert "Traceback" not in err
        assert not out.exists()  # fail-fast: no dirs created

    def test_engine_backend_rejects_nonstatic_planner(self, capsys):
        assert cli_main(
            ["wl01", "--backend", "sqlite", "--planner", "cost"]
        ) == 2
        assert "static" in capsys.readouterr().err

    def test_sim_backend_allows_planners(self, capsys):
        # 'sim' + a planner is fine; unknown experiment keeps it cheap.
        assert cli_main(
            ["nope", "--backend", "sim", "--planner", "cost"]
        ) == 2
        assert "unknown experiment" in capsys.readouterr().err
