"""ext09: rewrite ablation — off/prove/race/learned on both platforms.

Prices the four ``--rewrite`` modes per TPC-H template past the legacy
EPC cliff; the rendered table lands in ``benchmarks/results/ext09.txt``
and the per-query speedups feed ``BENCH_rewrite.json``.
"""

from repro.bench.experiments.ext09_rewrite_ablation import QUICK_QUERIES


def test_ext09(run_figure, scoreboard):
    report = run_figure("ext09")
    for platform in ("SGXv2", "SGXv1"):
        for query in QUICK_QUERIES:
            # Exact equivalence gate: nothing races without an accepted
            # proof, and the proofs actually ran (witness rows > 0).
            assert report.value(f"{platform} proved", query) > 0
            # off/prove/race are observation-only: identical served time.
            off = report.value(f"{platform} off", query)
            assert report.value(f"{platform} prove", query) == off
            assert report.value(f"{platform} race", query) == off
            # Learned never serves a slower plan than the reference.
            assert report.value(f"{platform} learned", query) <= off
            # Feedback closes the estimate error once actuals observe.
            assert report.value(
                f"{platform} q-error corrected", query
            ) <= report.value(f"{platform} q-error raw", query)
    # The unsound Q10 candidate is rejected on every platform.
    assert report.value("SGXv2 rejected", "Q10") >= 1
    assert report.value("SGXv1 rejected", "Q10") >= 1
    # The headline acceptance bar: on the legacy platform at least one
    # template's learned winner beats the static logical plan >= 1.3x.
    best_sgxv1 = max(
        report.value("SGXv1 speedup", query) for query in QUICK_QUERIES
    )
    assert best_sgxv1 >= 1.3
    # The proof ledger is platform-independent (equivalence is logical).
    for query in QUICK_QUERIES:
        assert report.value("SGXv2 proved", query) == report.value(
            "SGXv1 proved", query
        )
    scoreboard(
        "rewrite",
        "ext09",
        [
            {
                "experiment": "ext09",
                "arm": f"{platform} {query}",
                "off_ms": report.value(f"{platform} off", query),
                "learned_ms": report.value(f"{platform} learned", query),
                "speedup": report.value(f"{platform} speedup", query),
                "proved": report.value(f"{platform} proved", query),
                "rejected": report.value(f"{platform} rejected", query),
                "q_error_raw": report.value(f"{platform} q-error raw", query),
                "q_error_corrected": report.value(
                    f"{platform} q-error corrected", query
                ),
            }
            for platform in ("SGXv2", "SGXv1")
            for query in QUICK_QUERIES
        ],
    )
