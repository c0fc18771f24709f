"""wl05: serving under EPC squeeze, adaptive planner vs static plans.

Regenerates the serving-layer consequence of Fig. 3/8/11; the rendered
table lands in ``benchmarks/results/wl05.txt`` and the per-arm tails
feed ``BENCH_planner.json``.
"""

ARMS = ("static-native", "cost", "adaptive", "oracle")


def test_wl05(run_figure, scoreboard):
    report = run_figure("wl05")
    static = report.value("static-native latency", 99)
    oracle = report.value("oracle latency", 99)
    adaptive = report.value("adaptive latency", 99)
    assert static > 2 * oracle  # the squeeze must actually bite
    assert adaptive <= static - 0.5 * (static - oracle)  # >=50% recovered
    assert report.value("goodput", "adaptive") >= report.value(
        "goodput", "static-native"
    )
    scoreboard(
        "planner",
        "wl05",
        [
            {
                "experiment": "wl05",
                "arm": arm,
                "p50": report.value(f"{arm} latency", 50),
                "p99": report.value(f"{arm} latency", 99),
                "goodput": report.value("goodput", arm),
            }
            for arm in ARMS
        ],
    )
