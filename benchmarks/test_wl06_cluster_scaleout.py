"""wl06: sharded multi-enclave scale-out, routing, failover, elasticity.

Regenerates the cluster-serving extrapolation of Table 1 + Figs. 3/9; the
rendered table lands in ``benchmarks/results/wl06.txt`` and the per-arm
tails feed ``BENCH_cluster.json``.
"""

from repro.bench.experiments.wl06_cluster_scaleout import SLO_MS

SWEEP_SHARDS = (1, 2, 4, 8)
ROUTINGS = ("hash", "load-aware")
CRASH_ARMS = ("failover", "no-failover")
ELASTIC_ARMS = ("elastic", "static-2")


def test_wl06(run_figure, scoreboard):
    report = run_figure("wl06")
    # The single-enclave baseline saturates while eight shards clear the
    # headline target: >=10k QPS inside a 25 ms p99 SLO.
    assert report.value("scale-out p99", 1) > 3 * SLO_MS
    assert report.value("scale-out achieved", 8) >= 10_000
    assert report.value("scale-out p99", 8) < SLO_MS
    # Failover keeps the crash window fully available.
    assert report.value("crash availability", "failover") == 1.0
    assert report.value("crash availability", "no-failover") < 1.0
    scoreboard(
        "cluster",
        "wl06",
        [
            {
                "experiment": "wl06",
                "arm": f"scale-out {shards} shards",
                "p50": report.value("scale-out p50", shards),
                "p99": report.value("scale-out p99", shards),
                "goodput": report.value("scale-out goodput", shards),
                "slo_attainment": report.value(
                    "scale-out SLO attainment", shards
                ),
            }
            for shards in SWEEP_SHARDS
        ]
        + [
            {
                "experiment": "wl06",
                "arm": f"skew {routing}",
                "p99": report.value("skew p99", routing),
                "slo_attainment": report.value(
                    "skew SLO attainment", routing
                ),
            }
            for routing in ROUTINGS
        ]
        + [
            {
                "experiment": "wl06",
                "arm": f"crash {arm}",
                "p99": report.value("crash p99", arm),
                "goodput": report.value("crash goodput", arm),
                "availability": report.value("crash availability", arm),
            }
            for arm in CRASH_ARMS
        ]
        + [
            {
                "experiment": "wl06",
                "arm": f"elastic {arm}",
                "p99": report.value("elastic p99", arm),
                "slo_attainment": report.value(
                    "elastic SLO attainment", arm
                ),
            }
            for arm in ELASTIC_ARMS
        ],
    )
