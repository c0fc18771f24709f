"""ext07: planner ablation — oracle vs cost-based vs native-best.

Sweeps the FK join across the EPC crossover on both platforms; the
rendered table lands in ``benchmarks/results/ext07.txt`` and the policy
throughputs feed ``BENCH_planner.json``.
"""


def test_ext07(run_figure, scoreboard):
    report = run_figure("ext07")
    # The headline acceptance bar: cost picks the oracle arm on >= 90 %
    # of sweep points, on both platforms.
    for platform in ("SGXv2", "SGXv1"):
        assert report.value(f"{platform} match rate", "all") >= 0.9
    # The CrkJoin/RHO crossover (legacy platform): RHO-unrolled wins while
    # the working set fits the ~93 MB EPC, CrkJoin by ~6x once it pages.
    assert report.value("SGXv1 RHO-unrolled", 4) > report.value("SGXv1 CrkJoin", 4)
    assert report.value("SGXv1 CrkJoin", 128) > 3 * report.value(
        "SGXv1 RHO-unrolled", 128
    )
    # On SGXv2 the 64 GB EPC hides the working set: no crossover.
    assert report.value("SGXv2 RHO-unrolled", 128) > report.value(
        "SGXv2 CrkJoin", 128
    )
    scoreboard(
        "planner",
        "ext07",
        [
            {
                "experiment": "ext07",
                "arm": f"{platform} {policy}",
                "throughput_mrows": report.value(f"{platform} {policy}", 128),
                "match_rate": report.value(f"{platform} match rate", "all"),
            }
            for platform in ("SGXv2", "SGXv1")
            for policy in ("oracle", "cost", "native-best")
        ],
    )
