"""Golden-shape checks for the serving-workload experiments (wl01-wl04)."""

from repro.bench.registry import EXPERIMENTS, run_experiment
from repro.faults import get_fault_plan
from repro.runconfig import RunConfig, use_run_config

# One quick run of each wl experiment, shared across the module's tests
# (quick-mode serving metrics are deterministic per seed).
_cache = {}


def report_for(experiment_id):
    if experiment_id not in _cache:
        _cache[experiment_id] = run_experiment(experiment_id, quick=True)
    return _cache[experiment_id]


class TestRegistry:
    def test_wl_experiments_registered(self):
        for eid in ("wl01", "wl02", "wl03", "wl04"):
            assert eid in EXPERIMENTS


class TestWl01LatencyThroughput:
    def test_sgx_saturates_at_lower_qps(self):
        report = report_for("wl01")
        top = 1.3  # well past both capacities
        native = report.value("native achieved QPS", top)
        sgx = report.value("SGX achieved QPS", top)
        assert sgx < 0.8 * native

    def test_achieved_qps_tracks_offered_load_below_saturation(self):
        report = report_for("wl01")
        low, high = 0.4, 0.9
        assert report.value("native achieved QPS", low) < \
            report.value("native achieved QPS", high)

    def test_tails_blow_up_under_overload(self):
        report = report_for("wl01")
        for prefix in ("native", "SGX"):
            assert report.value(f"{prefix} p99", 1.3) > \
                3 * report.value(f"{prefix} p99", 0.4)
            assert report.value(f"{prefix} p99", 0.4) >= \
                report.value(f"{prefix} p50", 0.4)

    def test_sgx_latency_above_native_at_every_load(self):
        report = report_for("wl01")
        for fraction in (0.4, 0.7, 0.9, 1.1, 1.3):
            assert report.value("SGX p50", fraction) > \
                report.value("native p50", fraction)

    def test_deterministic_across_runs(self):
        first = report_for("wl01")
        second = run_experiment("wl01", quick=True)
        assert [(r.series, r.x, r.value) for r in first.rows] == \
            [(r.series, r.x, r.value) for r in second.rows]


class TestWl02AdmissionPolicies:
    def test_epc_aware_beats_fifo_on_p99(self):
        report = report_for("wl02")
        assert report.value("epc-aware p99", "latency") < \
            0.5 * report.value("fifo p99", "latency")

    def test_fifo_pays_edmm_penalties(self):
        report = report_for("wl02")
        assert report.value("fifo EDMM admissions", "latency") > 0
        assert report.value("epc-aware EDMM admissions", "latency") == 0

    def test_bypass_rescues_small_queries(self):
        report = report_for("wl02")
        assert report.value("epc-aware+bypass scan p99", "latency") < \
            0.1 * report.value("epc-aware scan p99", "latency")

    def test_epc_aware_sustains_higher_throughput(self):
        report = report_for("wl02")
        assert report.value("epc-aware achieved QPS", "latency") > \
            report.value("fifo achieved QPS", "latency")


class TestWl03TenantInterference:
    def test_sharing_inflates_interactive_tail(self):
        report = report_for("wl03")
        for prefix in ("native", "SGX"):
            assert report.value(f"{prefix} tenant-A p99", "shared") > \
                report.value(f"{prefix} tenant-A p99", "alone")

    def test_interference_is_worse_inside_the_enclave(self):
        report = report_for("wl03")
        assert report.value("SGX tenant-A p99 inflation", "shared") > \
            2 * report.value("native tenant-A p99 inflation", "shared")

    def test_interactive_tenant_alone_is_fast(self):
        report = report_for("wl03")
        for prefix in ("native", "SGX"):
            assert report.value(f"{prefix} tenant-A p99", "alone") < 20  # ms


class TestWl04FaultResilience:
    def test_faults_inflate_p99(self):
        report = report_for("wl04")
        assert report.value("faults latency", 99) > \
            3 * report.value("baseline latency", 99)

    def test_mitigation_recovers_at_least_half_the_p99_gap(self):
        # The PR's headline acceptance criterion.
        report = report_for("wl04")
        base = report.value("baseline latency", 99)
        faults = report.value("faults latency", 99)
        mitigated = report.value("mitigated latency", 99)
        assert mitigated <= base + 0.5 * (faults - base)

    def test_mitigation_strictly_improves_goodput(self):
        report = report_for("wl04")
        assert report.value("goodput", "mitigated") > \
            report.value("goodput", "faults")

    def test_baseline_arm_is_fully_available(self):
        report = report_for("wl04")
        assert report.value("availability", "baseline") == 100.0
        assert report.value("availability", "faults") < 100.0
        assert report.value("availability", "mitigated") > \
            report.value("availability", "faults")

    def test_baseline_arm_ignores_session_fault_plan(self):
        # wl04 pins every arm's plan explicitly, so running it under a
        # session-level --faults plan must not change a single row.
        clean = report_for("wl04")
        with use_run_config(RunConfig(faults=get_fault_plan("chaos"))):
            contaminated = run_experiment("wl04", quick=True)
        assert [(r.series, r.x, r.value) for r in clean.rows] == \
            [(r.series, r.x, r.value) for r in contaminated.rows]

    def test_deterministic_across_runs(self):
        first = report_for("wl04")
        second = run_experiment("wl04", quick=True)
        assert [(r.series, r.x, r.value) for r in first.rows] == \
            [(r.series, r.x, r.value) for r in second.rows]


class TestWl05AdaptivePlanner:
    def test_registered(self):
        assert "wl05" in EXPERIMENTS

    def test_squeeze_punishes_the_static_native_plan(self):
        report = report_for("wl05")
        assert report.value("static-native latency", 99) > \
            2 * report.value("oracle latency", 99)

    def test_adaptive_recovers_at_least_half_the_p99_gap(self):
        # The PR's headline acceptance criterion.
        report = report_for("wl05")
        static = report.value("static-native latency", 99)
        oracle = report.value("oracle latency", 99)
        adaptive = report.value("adaptive latency", 99)
        assert adaptive <= static - 0.5 * (static - oracle)

    def test_cost_planner_alone_closes_most_of_the_gap(self):
        # The analytical choice (no feedback) already avoids the
        # EPC-overflowing plan; adaptivity refines, it does not rescue.
        report = report_for("wl05")
        static = report.value("static-native latency", 99)
        oracle = report.value("oracle latency", 99)
        cost = report.value("cost latency", 99)
        assert cost <= static - 0.5 * (static - oracle)

    def test_adaptive_goodput_at_least_static(self):
        report = report_for("wl05")
        assert report.value("goodput", "adaptive") >= \
            report.value("goodput", "static-native")

    def test_notes_describe_choices_and_recovery(self):
        report = report_for("wl05")
        notes = "\n".join(report.notes)
        assert "planner[adaptive]" in notes
        assert "planner[cost]" in notes
        assert "static-to-oracle gap" in notes

    def test_deterministic_across_runs(self):
        first = report_for("wl05")
        second = run_experiment("wl05", quick=True)
        assert [(r.series, r.x, r.value) for r in first.rows] == \
            [(r.series, r.x, r.value) for r in second.rows]
