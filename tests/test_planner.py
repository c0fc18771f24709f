"""Tests for repro.planner: stats, candidates, costing, choice, bandit."""

import pytest

from repro.bench.experiments.common import SETTING_PLAIN, SETTING_SGX_IN
from repro.cache import experiment_key
from repro.enclave.sync import LockKind
from repro.errors import ConfigurationError
from repro.hardware.platforms import sgxv1_calibration, sgxv1_testbed
from repro.machine import SimMachine
from repro.memory.access import CodeVariant
from repro.planner import (
    ALL_MODES,
    ArmCost,
    CostSelector,
    DEFAULT_MODE,
    EpsilonGreedySelector,
    OracleSelector,
    PLANNER_MODES,
    PlanCandidate,
    PlanHints,
    Planner,
    WorkStats,
    build_join,
    enumerate_candidates,
    static_candidate,
    validate_mode,
)
from repro.planner.adaptive import _effective_service
from repro.planner.choose import overflow_fraction
from repro.runconfig import RunConfig
from repro.tables import generate_join_relation_pair
from repro.workload.jobs import JobKind, JobTemplate

MB = 1_000_000


def join_template(name="j", build_mb=8.0, probe_mb=32.0, threads=4, hints=None):
    return JobTemplate(
        name=name,
        kind=JobKind.JOIN,
        threads=threads,
        build_bytes=build_mb * MB,
        probe_bytes=probe_mb * MB,
        plan_hints=hints,
    )


def scan_template(threads=4):
    return JobTemplate(
        name="s", kind=JobKind.SCAN, threads=threads, scan_bytes=64 * MB
    )


class TestWorkStats:
    def test_join_cardinalities_follow_fk_semantics(self):
        stats = WorkStats.of(join_template(build_mb=8, probe_mb=32))
        assert stats.kind == "join"
        assert stats.build_rows == pytest.approx(1e6)
        assert stats.probe_rows == pytest.approx(4e6)
        # FK probe: every probe row matches exactly once.
        assert stats.estimated_matches == stats.probe_rows
        assert stats.input_rows == stats.build_rows + stats.probe_rows

    def test_scan_selectivity_estimate(self):
        stats = WorkStats.of(scan_template())
        assert stats.scan_rows == pytest.approx(16e6)
        assert stats.estimated_selected_rows == pytest.approx(1.6e6)
        assert "range predicate" in stats.describe()

    def test_tpch_stats_carry_query_and_sf(self):
        template = JobTemplate(
            name="q", kind=JobKind.TPCH, threads=2, query="Q12", scale_factor=1.0
        )
        stats = WorkStats.of(template)
        assert stats.query == "Q12"
        assert "Q12" in stats.describe()


class TestCandidates:
    def test_default_join_space_is_the_six_paper_arms(self):
        template = join_template()
        labels = [c.label(template.threads) for c in enumerate_candidates(template)]
        assert labels == ["PHT", "RHO", "RHO-unrolled", "MWAY", "INL", "CrkJoin"]
        assert len(set(labels)) == len(labels)

    def test_scan_space_is_the_single_simd_kernel(self):
        (candidate,) = enumerate_candidates(scan_template())
        assert candidate.algorithm == "SCAN"
        assert candidate.variant is CodeVariant.SIMD

    def test_hints_filter_the_space(self):
        hints = PlanHints(algorithm="RHO", variant=CodeVariant.UNROLLED)
        template = join_template(hints=hints)
        (candidate,) = enumerate_candidates(template)
        assert candidate.label(template.threads) == "RHO-unrolled"

    def test_hints_admitting_nothing_raise(self):
        hints = PlanHints(algorithm="PHT", variant=CodeVariant.UNROLLED)
        with pytest.raises(ConfigurationError):
            enumerate_candidates(join_template(hints=hints))

    def test_unknown_hint_algorithm_raises_at_construction(self):
        with pytest.raises(ConfigurationError):
            PlanHints(algorithm="HASHZILLA")

    def test_static_candidate_reproduces_the_hardcoded_choice(self):
        template = join_template(threads=6)
        candidate = static_candidate(template, CodeVariant.UNROLLED)
        join = build_join(candidate)
        # Exactly the historical construction: RadixJoin at the catalog's
        # variant, auto radix bits, lock-free queue.
        assert type(join).__name__ == "RadixJoin"
        assert join.variant is CodeVariant.UNROLLED
        assert join.radix_bits is None
        assert join.queue_kind is LockKind.LOCK_FREE
        assert candidate.threads == 6

    def test_thread_options_cap_at_cores(self):
        template = join_template(threads=4)
        candidates = enumerate_candidates(
            template, cores=8, thread_options=(8, 16)
        )
        assert {c.threads for c in candidates} == {4, 8}

    def test_labels_encode_non_default_dimensions(self):
        candidate = PlanCandidate(
            "RHO", CodeVariant.UNROLLED, threads=8, sizing="edmm", fanout=6
        )
        assert candidate.label(4) == "RHO-unrolled@8t/f6+edmm"

    def test_unknown_algorithm_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            PlanCandidate("HASHZILLA")
        with pytest.raises(ConfigurationError):
            PlanCandidate("RHO", sizing="lazy")


class TestCostingSanityGate:
    """The analytical ranking must match the measured ordering.

    The cost model prices candidates through the same operator formulas a
    real run charges (on tiny physical stand-ins), so its operator-cycle
    estimates must reproduce measured cycles — at an in-EPC size on the
    paper's SGXv2 testbed and at an EPC-overflow size on the SGXv1-style
    legacy platform, where the paper's ranking flip happens.
    """

    def measured_cycles(self, machine, template, candidate):
        build, probe = generate_join_relation_pair(
            template.build_bytes,
            template.probe_bytes,
            seed=42,
            physical_row_cap=4096,
        )
        with machine.context(SETTING_SGX_IN, threads=candidate.threads) as ctx:
            result = build_join(candidate).run(ctx, build, probe)
        return result.cycles

    @pytest.mark.parametrize(
        "make_machine, build_mb",
        [
            (SimMachine, 25),  # ~125 MB of inputs, inside the 64 GB EPC
            (
                lambda: SimMachine(sgxv1_testbed(), sgxv1_calibration()),
                64,  # working set far beyond the legacy ~93 MB EPC
            ),
        ],
        ids=["sgxv2-resident", "sgxv1-overflow"],
    )
    def test_estimates_match_measured_cycles_and_ordering(
        self, make_machine, build_mb
    ):
        template = join_template(build_mb=build_mb, probe_mb=4 * build_mb)
        machine = make_machine()
        planner = Planner(machine, SETTING_SGX_IN)
        estimates = {
            e.label(template.threads): e for e in planner.estimates(template)
        }
        measured = {
            c.label(template.threads): self.measured_cycles(
                make_machine(), template, c
            )
            for c in enumerate_candidates(template)
        }
        assert set(estimates) == set(measured)
        for label, cycles in measured.items():
            operator_cycles = (
                estimates[label].cycles - estimates[label].sizing_cycles
            )
            assert operator_cycles == pytest.approx(cycles, rel=1e-6), label
        # The full decision (operator + sizing cycles) picks the plan a
        # real run would have measured fastest.
        chosen = planner.decide(template).arm_label(template.threads)
        assert chosen == min(measured, key=lambda l: (measured[l], l))


class TestPlannerChoice:
    def test_decide_picks_min_estimated_cycles_without_pressure(self):
        planner = Planner(SimMachine(), SETTING_SGX_IN)
        decision = planner.decide(join_template(build_mb=50, probe_mb=200))
        assert decision.arm_label() == "RHO-unrolled"
        assert decision.chosen_estimate.cycles == min(
            r.estimate.cycles for r in decision.ranked
        )
        assert decision.ranked[0].rejection == ""
        assert all("slower" in r.rejection for r in decision.ranked[1:])

    def test_headroom_flips_the_choice_toward_small_footprints(self):
        # Probe-heavy shape: PHT needs ~55% of RHO's working set at ~1.13x
        # its cycles, so shrinking headroom must flip the decision.
        template = join_template(build_mb=10, probe_mb=400, threads=8)
        planner = Planner(SimMachine(), SETTING_SGX_IN)
        roomy = planner.decide(template, headroom_bytes=2_000 * MB)
        tight = planner.decide(template, headroom_bytes=500 * MB)
        assert roomy.arm_label() == "RHO-unrolled"
        assert tight.arm_label() == "PHT"
        squeezed = [
            r for r in tight.ranked if "over EPC headroom" in r.rejection
        ]
        assert squeezed  # the overflowing arms say why they lost

    def test_native_setting_ignores_epc_terms(self):
        planner = Planner(
            SimMachine(), SETTING_PLAIN, epc_budget_bytes=500 * MB
        )
        decision = planner.decide(join_template(build_mb=10, probe_mb=400))
        assert decision.headroom_bytes is None

    def test_overflow_fraction_clamps(self):
        assert overflow_fraction(100, 200) == 0.0
        assert overflow_fraction(100, 50) == pytest.approx(0.5)
        assert overflow_fraction(100, -50) == 1.0
        assert overflow_fraction(0, 0) == 0.0

    def test_explain_lists_every_candidate_with_status(self):
        planner = Planner(
            SimMachine(), SETTING_SGX_IN, epc_budget_bytes=64_000 * MB
        )
        text = planner.explain(join_template(build_mb=50, probe_mb=200))
        assert "job: j (join, 4 threads)" in text
        assert "chosen: RHO-unrolled" in text
        assert "epc headroom" in text
        for label in ("PHT", "RHO", "MWAY", "INL", "CrkJoin"):
            assert label in text
        assert "[chosen]" in text
        assert "slower on estimated cycles" in text

    def test_top_k_is_ranked_and_capped(self):
        planner = Planner(SimMachine(), SETTING_SGX_IN)
        template = join_template()
        top = planner.top_k(template, 3)
        assert len(top) == 3
        cycles = {e.candidate: e.cycles for e in planner.estimates(template)}
        picked = [cycles[c] for c in top]
        assert picked == sorted(picked)
        assert picked[-1] <= min(
            v for c, v in cycles.items() if c not in top
        )

    def test_estimates_are_memoized_per_template(self):
        planner = Planner(SimMachine(), SETTING_SGX_IN)
        template = join_template()
        assert planner.estimates(template) is planner.estimates(template)

    def test_static_decision_wraps_the_historical_choice(self):
        planner = Planner(SimMachine(), SETTING_SGX_IN)
        decision = planner.static_decision(
            join_template(), CodeVariant.UNROLLED
        )
        assert decision.mode == "static"
        assert decision.arm_label() == "RHO-unrolled"
        assert len(decision.ranked) == 1


def make_arms(*specs):
    return tuple(
        ArmCost(
            candidate=PlanCandidate(alg, threads=1),
            label=label,
            service_s=service,
            working_set_bytes=ws,
        )
        for alg, label, service, ws in specs
    )


JOIN_ARMS = make_arms(
    ("RHO", "RHO-unrolled", 0.10, 800 * MB),
    ("PHT", "PHT", 0.12, 440 * MB),
    ("CrkJoin", "CrkJoin", 1.00, 400 * MB),
)


class TestSelectors:
    def arms_by_template(self):
        return {"join": JOIN_ARMS}

    def test_empty_or_duplicate_arms_rejected(self):
        with pytest.raises(ConfigurationError):
            CostSelector({"join": ()})
        dup = JOIN_ARMS[:1] + JOIN_ARMS[:1]
        with pytest.raises(ConfigurationError):
            CostSelector({"join": dup})

    def test_unknown_template_rejected(self):
        selector = CostSelector(self.arms_by_template())
        with pytest.raises(ConfigurationError):
            selector.arms("scan")

    def test_cost_selector_sticks_to_the_analytical_best(self):
        selector = CostSelector(self.arms_by_template())
        for query_id in range(10):
            arm = selector.select("join", query_id, 0, headroom_bytes=0.0)
            assert arm.label == "RHO-unrolled"

    def test_oracle_selector_follows_momentary_headroom(self):
        selector = OracleSelector(self.arms_by_template())
        roomy = selector.select("join", 0, 0, headroom_bytes=1_000 * MB)
        tight = selector.select("join", 1, 0, headroom_bytes=500 * MB)
        assert roomy.label == "RHO-unrolled"
        assert tight.label == "PHT"

    def test_effective_service_prices_overflow_like_the_scheduler(self):
        from repro.workload.scheduler import EDMM_OVERFLOW_SLOWDOWN

        arm = JOIN_ARMS[0]
        assert _effective_service(arm, None) == arm.service_s
        assert _effective_service(arm, 400 * MB) == pytest.approx(
            arm.service_s * (1 + EDMM_OVERFLOW_SLOWDOWN * 0.5)
        )

    def test_bandit_draws_are_deterministic_and_seed_sensitive(self):
        a = EpsilonGreedySelector(self.arms_by_template(), seed=7)
        b = EpsilonGreedySelector(self.arms_by_template(), seed=7)
        c = EpsilonGreedySelector(self.arms_by_template(), seed=8)
        picks_a = [a.select("join", q, 0).label for q in range(200)]
        picks_b = [b.select("join", q, 0).label for q in range(200)]
        picks_c = [c.select("join", q, 0).label for q in range(200)]
        assert picks_a == picks_b
        assert picks_a != picks_c

    def test_bandit_exploits_observed_means(self):
        selector = EpsilonGreedySelector(
            self.arms_by_template(), seed=7, epsilon=0.0
        )
        # RHO observed terrible, PHT observed great: exploit must flip.
        for _ in range(4):
            selector.observe("join", "RHO-unrolled", 2.0)
            selector.observe("join", "PHT", 0.1)
        assert selector.select("join", 0, 0).label == "PHT"

    def test_unobserved_priors_are_headroom_adjusted(self):
        # Feedback lags dispatch by the queue, so a squeezed run must not
        # keep nominating big-footprint arms on their unsqueezed priors.
        selector = EpsilonGreedySelector(
            self.arms_by_template(), seed=7, epsilon=0.0
        )
        selector.observe("join", "PHT", 0.15)
        tight = selector.select("join", 0, 0, headroom_bytes=100 * MB)
        assert tight.label == "PHT"
        roomy = selector.select("join", 1, 0, headroom_bytes=2_000 * MB)
        assert roomy.label == "RHO-unrolled"

    def test_exploration_rate_decays_with_observations(self):
        selector = EpsilonGreedySelector(self.arms_by_template(), seed=7)
        start = selector.exploration_rate("join")
        assert start == selector.epsilon
        for _ in range(2 * selector.decay):
            selector.observe("join", "PHT", 0.1)
        assert selector.exploration_rate("join") == pytest.approx(start / 3)

    def test_window_bounds_the_memory(self):
        selector = EpsilonGreedySelector(
            self.arms_by_template(), seed=7, window=4
        )
        for _ in range(100):
            selector.observe("join", "PHT", 5.0)
        for _ in range(4):
            selector.observe("join", "PHT", 0.1)
        mean, count = selector.snapshot("join")["PHT"]
        assert count == 4
        assert mean == pytest.approx(0.1)

    def test_observations_for_unknown_labels_are_ignored(self):
        selector = EpsilonGreedySelector(self.arms_by_template(), seed=7)
        selector.observe("join", "NOPE", 1.0)
        selector.observe("other", "PHT", 1.0)
        assert selector.snapshot("join")["PHT"][1] == 0

    def test_selector_validation(self):
        with pytest.raises(ConfigurationError):
            EpsilonGreedySelector(self.arms_by_template(), seed=7, epsilon=1.5)
        with pytest.raises(ConfigurationError):
            EpsilonGreedySelector(self.arms_by_template(), seed=7, decay=0)
        with pytest.raises(ConfigurationError):
            EpsilonGreedySelector(self.arms_by_template(), seed=7, window=0)


class TestModes:
    def test_mode_catalog(self):
        assert DEFAULT_MODE == "static"
        assert PLANNER_MODES == ("static", "cost", "adaptive")
        assert ALL_MODES == ("static", "cost", "adaptive", "oracle")

    def test_validate_mode(self):
        assert validate_mode("cost") == "cost"
        assert validate_mode("oracle") == "oracle"
        with pytest.raises(ConfigurationError):
            validate_mode("oracle", allow_oracle=False)
        with pytest.raises(ConfigurationError):
            validate_mode("greedy")


class TestCacheKeys:
    BASE = dict(quick=True, base_seed=42)

    def test_non_static_modes_key_separately(self):
        base = experiment_key("wl01", **self.BASE)
        cost = experiment_key(
            "wl01", run=RunConfig(planner="cost"), **self.BASE
        )
        adaptive = experiment_key(
            "wl01", run=RunConfig(planner="adaptive"), **self.BASE
        )
        assert len({base, cost, adaptive}) == 3
