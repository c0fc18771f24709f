"""wl08: serving with learned rewrites under an EPC squeeze.

Regenerates the rewrite subsystem's serving-layer payoff; the rendered
table lands in ``benchmarks/results/wl08.txt`` and the per-arm tails
feed ``BENCH_rewrite.json``.
"""

ARMS = ("static", "adaptive", "adaptive+learned", "oracle")


def test_wl08(run_figure, scoreboard):
    report = run_figure("wl08")
    static_p99 = report.value("static latency", 99)
    oracle_p99 = report.value("oracle latency", 99)
    adaptive_p99 = report.value("adaptive latency", 99)
    learned_p99 = report.value("adaptive+learned latency", 99)
    # The squeeze actually hurts the static arm, and the learned arm
    # recovers a measurable share of the static-to-oracle p99 gap — at
    # least as much as plain adaptive does without the rewrite arms.
    gap = static_p99 - oracle_p99
    assert gap > 0
    recovered = (static_p99 - learned_p99) / gap
    assert recovered >= 0.2
    assert learned_p99 <= adaptive_p99
    # Goodput never regresses for the planned arms.
    assert report.value("goodput", "adaptive+learned") >= report.value(
        "goodput", "static"
    )
    scoreboard(
        "rewrite",
        "wl08",
        [
            {
                "experiment": "wl08",
                "arm": arm,
                "p50": report.value(f"{arm} latency", 50),
                "p99": report.value(f"{arm} latency", 99),
                "goodput": report.value("goodput", arm),
                "gap_recovered": (
                    (static_p99 - report.value(f"{arm} latency", 99)) / gap
                ),
            }
            for arm in ARMS
        ],
    )
