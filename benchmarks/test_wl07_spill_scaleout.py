"""wl07: larger-than-EPC serving — sealed spill vs EDMM thrash.

Regenerates the larger-than-EPC extension of Fig. 11; the rendered table
lands in ``benchmarks/results/wl07.txt`` and the per-arm tails feed
``BENCH_storage.json``.
"""

from repro.bench.experiments.wl07_spill_scaleout import (
    BUDGET_FRACTIONS,
    SHARD_SPEC,
)


def test_wl07(run_figure, scoreboard):
    report = run_figure("wl07")
    tight = BUDGET_FRACTIONS[-1]
    # The squeeze actually forces the spill regime, and the sealed path
    # beats the EDMM thrash path where the overflow is deep.
    assert report.value("spills", tight) > 0
    assert report.value("seal time", tight) > 0
    assert report.value("spill p99", tight) < report.value("edmm p99", tight)
    assert report.value("spill goodput", tight) > report.value(
        "edmm goodput", tight
    )
    # The fault arm exercised both storage hazards.
    assert report.value("stalled spills", "spill-faulted") > 0
    # Sharded serving still spills (locally, per shard).
    assert report.value("sharded spills", SHARD_SPEC) > 0
    scoreboard(
        "storage",
        "wl07",
        [
            {
                "experiment": "wl07",
                "arm": f"spill {fraction:g}x",
                "p99": report.value("spill p99", fraction),
                "goodput": report.value("spill goodput", fraction),
                "spills": report.value("spills", fraction),
                "spilled_gb": report.value("spilled volume", fraction),
                "seal_s": report.value("seal time", fraction),
                "unseal_s": report.value("unseal time", fraction),
            }
            for fraction in BUDGET_FRACTIONS
        ]
        + [
            {
                "experiment": "wl07",
                "arm": f"edmm {fraction:g}x",
                "p99": report.value("edmm p99", fraction),
                "goodput": report.value("edmm goodput", fraction),
            }
            for fraction in BUDGET_FRACTIONS
        ]
        + [
            {
                "experiment": "wl07",
                "arm": "spill-faulted",
                "p99": report.value("faulted p99", "spill-faulted"),
                "spills": report.value("stalled spills", "spill-faulted"),
            },
            {
                "experiment": "wl07",
                "arm": f"sharded {SHARD_SPEC}",
                "p99": report.value("sharded p99", SHARD_SPEC),
                "spills": report.value("sharded spills", SHARD_SPEC),
            },
        ],
    )
