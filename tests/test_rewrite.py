"""repro.rewrite: candidates, proofs, racing, Q-error feedback, wiring."""

from __future__ import annotations

import pytest

from repro.bench import run_experiment
from repro.cache import experiment_key
from repro.cli import main as cli_main
from repro.core.queries.tpch_queries import TPCH_QUERIES
from repro.enclave.runtime import ExecutionSetting
from repro.errors import ConfigurationError
from repro.hardware.platforms import sgxv1_calibration, sgxv1_testbed
from repro.machine import SimMachine
from repro.planner.stats import (
    QErrorTracker,
    estimate_plan_cardinalities,
    tpch_base_rows,
)
from repro.rewrite import (
    REWRITE_KINDS,
    actual_cardinalities,
    base_tables,
    generate_rewrites,
    plan_rewrites,
    prove_candidate,
    static_physical,
    validate_mode,
)
from repro.runconfig import RunConfig, use_run_config
from repro.trace import Tracer, use_tracer
from repro.trace.breakdown import rewrite_breakdown
from repro.workload import (
    OpenLoopStream,
    QueryMix,
    ServingEngine,
    WorkloadConfig,
)
from repro.workload.jobs import JobCatalog, JobKind, JobTemplate

SETTING = ExecutionSetting.sgx_data_in_enclave()


def workload(**overrides) -> WorkloadConfig:
    return WorkloadConfig(
        setting=SETTING,
        open_streams=(
            OpenLoopStream(
                "clients", qps=1.0, mix=QueryMix.of({"q3": 1.0}), seed=1
            ),
        ),
        duration_s=1.0,
        **overrides,
    )


def tpch_template(query: str, scale_factor: float = 1.0) -> JobTemplate:
    return JobTemplate(
        name=f"{query.lower()}-test",
        kind=JobKind.TPCH,
        threads=4,
        query=query,
        scale_factor=scale_factor,
    )


def join_template() -> JobTemplate:
    return JobTemplate(
        name="join-test",
        kind=JobKind.JOIN,
        threads=4,
        build_bytes=8e6,
        probe_bytes=32e6,
    )


class TestConfig:
    def test_validate_mode(self):
        for mode in ("off", "prove", "race", "learned"):
            assert validate_mode(mode) == mode
        with pytest.raises(ConfigurationError, match="unknown rewrite mode"):
            validate_mode("aggressive")

    def test_ambient_channel_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown rewrite mode"):
            RunConfig(rewrite="nope").validate()


class TestCandidates:
    def test_every_tpch_template_has_candidates(self):
        for query in TPCH_QUERIES:
            names = [c.name for c in generate_rewrites(tpch_template(query))]
            assert len(names) == len(set(names))
            # The SET-style partition swaps and the pipeline fuse are
            # proposed everywhere; query-specific rewrites ride on top.
            assert "swap-join-pht" in names
            assert "swap-join-crkjoin" in names
            assert "fuse-pipeline" in names

    def test_non_tpch_template_has_none(self):
        assert generate_rewrites(join_template()) == ()

    def test_kinds_are_known_and_labels_prefixed(self):
        for query in TPCH_QUERIES:
            for candidate in generate_rewrites(tpch_template(query)):
                assert candidate.kind in REWRITE_KINDS
                assert candidate.label().startswith("rw:")

    def test_elimination_drops_the_base_table(self):
        candidates = {
            c.name: c for c in generate_rewrites(tpch_template("Q10"))
        }
        dropped = candidates["drop-customer-join"]
        assert "customer" not in base_tables(dropped.plan())
        assert "customer" in base_tables(TPCH_QUERIES["Q10"]())


class TestProofs:
    def test_sound_candidates_accepted_with_shared_digest(self):
        template = tpch_template("Q3")
        for candidate in generate_rewrites(template):
            proof = prove_candidate(template, candidate)
            assert proof.accepted, (candidate.name, proof.reason)
            assert proof.digest
            assert proof.rows > 0

    def test_unsound_candidate_rejected_not_raced(self):
        template = tpch_template("Q10")
        unsound = [
            c
            for c in generate_rewrites(template)
            if c.name == "build-on-orders"
        ]
        assert unsound, "the intentionally unsound candidate must exist"
        proof = prove_candidate(template, unsound[0])
        assert not proof.accepted
        assert "differ" in proof.reason
        decision = plan_rewrites(template, "race", SimMachine(), SETTING)
        raced = {est.candidate.name for est in decision.ranked}
        assert "build-on-orders" not in raced
        assert {p.candidate.name for p in decision.rejected} == {
            "build-on-orders"
        }

    def test_proofs_memoized(self):
        template = tpch_template("Q12")
        candidate = generate_rewrites(template)[0]
        first = prove_candidate(template, candidate)
        assert prove_candidate(template, candidate) is first


class TestProofDigestsPinned:
    """wl08's accepted proofs keep their digests byte for byte.

    The full digest is pinned per (query, rewrite); a ``rewrite.proved``
    trace event carries its first 16 hex digits.
    """

    Q3 = "8c88ddb0e21af0e054327c4d31bc5f6ca2f7d407f53313379058b48cba508c31"
    Q10 = "e5afce12e1e91f59bcabbfd8565a7a744634b7f48e967f0d92aa2f7ea319000e"
    PINNED = {
        ("Q3", "fuse-pipeline"): Q3,
        ("Q3", "knob-fanout6"): Q3,
        ("Q3", "reorder-lineitem-first"): Q3,
        ("Q3", "swap-join-crkjoin"): Q3,
        ("Q3", "swap-join-pht"): Q3,
        ("Q10", "drop-customer-join"): Q10,
        ("Q10", "fuse-pipeline"): Q10,
        ("Q10", "swap-join-crkjoin"): Q10,
        ("Q10", "swap-join-pht"): Q10,
    }

    def test_wl08_proved_events_carry_pinned_digests(self):
        tracer = Tracer(label="wl08")
        with use_tracer(tracer):
            run_experiment("wl08", quick=True)
        proved = {}
        for record in tracer.records:
            if record.name == "rewrite.proved":
                attrs = record.attrs
                proved[(attrs["query"], attrs["rewrite"])] = attrs["digest"]
        assert set(proved) == set(self.PINNED)
        for (query, rewrite), digest in proved.items():
            pinned = self.PINNED[(query, rewrite)]
            assert digest == pinned[:16]
            template = tpch_template(query)  # wl08's scale factor, 1.0
            candidate = next(
                c for c in generate_rewrites(template) if c.name == rewrite
            )
            assert prove_candidate(template, candidate).digest == pinned


class TestRace:
    def test_prove_mode_races_nothing(self):
        decision = plan_rewrites(tpch_template("Q3"), "prove")
        assert decision.proofs
        assert decision.ranked == ()
        assert decision.winner is None
        assert decision.speedup == 1.0

    def test_off_mode_is_rejected(self):
        with pytest.raises(ConfigurationError, match="'off'"):
            plan_rewrites(tpch_template("Q3"), "off")

    def test_race_is_deterministic(self):
        template = tpch_template("Q3")
        first = plan_rewrites(template, "learned", SimMachine(), SETTING)
        second = plan_rewrites(template, "learned", SimMachine(), SETTING)
        assert [e.candidate.name for e in first.ranked] == [
            e.candidate.name for e in second.ranked
        ]
        assert [e.seconds for e in first.ranked] == [
            e.seconds for e in second.ranked
        ]

    def test_sgxv1_partition_swap_clears_the_bar(self):
        # The acceptance headline: past the legacy EPC cliff the learned
        # winner beats the static logical plan by >= 1.3x priced time.
        legacy = SimMachine(sgxv1_testbed(), sgxv1_calibration())
        decision = plan_rewrites(
            tpch_template("Q3", scale_factor=4.5), "learned", legacy, SETTING
        )
        assert decision.winner is not None
        assert decision.speedup >= 1.3

    def test_winner_is_fastest_proved(self):
        decision = plan_rewrites(
            tpch_template("Q10"), "learned", SimMachine(), SETTING
        )
        assert decision.ranked
        if decision.winner is not None:
            assert decision.winner == decision.ranked[0]
            assert decision.winner.seconds < decision.reference.seconds

    def test_trace_events_and_breakdown(self):
        tracer = Tracer(label="rewrite-test")
        with use_tracer(tracer):
            plan_rewrites(
                tpch_template("Q10"), "learned", SimMachine(), SETTING
            )
        breakdown = rewrite_breakdown(tracer)
        assert breakdown.proved == 4
        assert breakdown.rejected == 1
        assert breakdown.raced == 4
        assert breakdown.q_error_raw > breakdown.q_error_corrected

    def test_static_physical_honours_knob_hints(self):
        template = tpch_template("Q3")
        swaps = {
            c.name: c
            for c in generate_rewrites(template)
            if c.name.startswith("swap-join-")
        }
        assert static_physical(template).algorithm == "RHO"
        assert (
            static_physical(template, swaps["swap-join-pht"]).algorithm
            == "PHT"
        )


class TestQErrorBaseline:
    """Satellite: pinned estimate error vs executed cardinalities.

    The raw numbers are the analytic cardinality model's error against
    ground truth (deterministic: proofs execute the same witness data
    every run); feedback must close each to 1.0.  Future PRs that touch
    the estimator regress against these pins.
    """

    BASELINE = {
        # query: (max raw Q-error, median raw Q-error)
        "Q3": (3.2895, 1.9544),
        "Q10": (6.5217, 5.8687),
        "Q12": (1.2672, 1.2672),
        "Q19": (14.6484, 1.1331),
    }

    @pytest.mark.parametrize("query", sorted(BASELINE))
    def test_pinned_q_error(self, query):
        worst, median = self.BASELINE[query]
        template = tpch_template(query)
        tracker = QErrorTracker()
        tracker.register(
            query,
            estimate_plan_cardinalities(
                TPCH_QUERIES[query](), tpch_base_rows(1.0)
            ),
        )
        tracker.observe(query, actual_cardinalities(template))
        assert tracker.raw_worst(query) == pytest.approx(worst, rel=1e-3)
        assert tracker.raw_median(query) == pytest.approx(median, rel=1e-3)
        assert tracker.corrected_worst(query) == 1.0


class TestEngineWiring:
    def test_config_validates_rewrite(self):
        with pytest.raises(ConfigurationError, match="unknown rewrite mode"):
            workload(rewrite="nope")

    def test_config_beats_ambient(self):
        engine = ServingEngine(JobCatalog(None, quick=True))
        config = workload(rewrite="prove")
        with use_run_config(RunConfig(rewrite="learned")):
            assert engine.rewrite_of(config) == "prove"
        assert engine.rewrite_of(workload()) == "off"
        with use_run_config(RunConfig(rewrite="race")):
            assert engine.rewrite_of(workload()) == "race"

    def test_learned_adds_rw_arm(self):
        engine = ServingEngine(JobCatalog(None, quick=True))
        config = workload(
            planner="adaptive", plan_top_k=3, rewrite="learned"
        )
        arms = engine.plan_arms(config)
        rw_arms = [
            arm
            for arm in arms["q3"]
            if arm.label.startswith("rw:")
        ]
        assert len(rw_arms) == 1
        assert rw_arms[0].service_s > 0
        # Off/None config: no rewrite arm, labels unchanged.
        plain = engine.plan_arms(
            workload(planner="adaptive", plan_top_k=3)
        )
        assert not any(a.label.startswith("rw:") for a in plain["q3"])


class TestCacheKeys:
    def test_active_modes_key_differently(self):
        base = dict(quick=True, base_seed=17)
        default = experiment_key("fig03", **base)
        keys = {
            experiment_key("fig03", run=RunConfig(rewrite=mode), **base)
            for mode in ("prove", "race", "learned")
        }
        assert default not in keys
        assert len(keys) == 3


class TestCli:
    def test_unknown_mode_exits_2(self, capsys):
        assert cli_main(["fig03", "--rewrite", "sometimes"]) == 2
        assert "unknown rewrite mode" in capsys.readouterr().err

    def test_rewrite_with_engine_backend_exits_2(self, capsys):
        assert (
            cli_main(["wl01", "--rewrite", "learned", "--backend", "sqlite"])
            == 2
        )
        err = capsys.readouterr().err
        assert "--rewrite" in err and "--backend" in err

    def test_explain_ranks_rewrites(self, capsys):
        assert cli_main(["explain", "q3", "--rewrite", "race"]) == 0
        out = capsys.readouterr().out
        assert "rewrites (race)" in out
        assert "rw:q3/" in out

    def test_explain_prove_lists_proved_rewrites(self, capsys):
        assert cli_main(["explain", "q3", "--rewrite", "prove"]) == 0
        out = capsys.readouterr().out
        assert "rewrites (prove)" in out
        proved = [l for l in out.splitlines() if l.startswith("  proved   rw:q3/")]
        assert proved and all("witness rows" in l for l in proved)
        assert "reference:" not in out  # prove mode prices nothing

    def test_explain_rewrite_on_non_tpch_template(self, capsys):
        assert cli_main(["explain", "scan-small", "--rewrite", "race"]) == 0
        out = capsys.readouterr().out
        assert "rewrites (race)" in out
        assert "(no rewrite candidates: not a TPC-H template)" in out

    def test_explain_without_rewrite_silent(self, capsys):
        assert cli_main(["explain", "q3"]) == 0
        assert "rewrites" not in capsys.readouterr().out
