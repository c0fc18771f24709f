"""ext08: engine-in-enclave vs operator-in-enclave overhead.

Regenerates the whole-engine-port comparison (DuckDB-SGX2-style arms
priced through the SGX cost envelope, behind the cross-backend
equivalence gate); the rendered table lands in
``benchmarks/results/ext08.txt`` and the per-arm overheads feed
``BENCH_backends.json``.
"""

from repro.backends.config import missing_reason
from repro.bench.experiments.ext08_engine_vs_operator import TEMPLATE_NAMES


def test_ext08(run_figure, scoreboard):
    report = run_figure("ext08")
    # The gate ran before any timing, on every template.
    assert any("equivalence gate passed" in note for note in report.notes)
    for name in TEMPLATE_NAMES:
        for platform in ("SGXv2", "SGXv1"):
            operator = report.value(f"{platform} operator", name)
            engine = report.value(f"{platform} sqlite engine", name)
            # In-enclave never beats plain on either arm.
            assert operator >= 1.0
            assert engine >= 1.0
            # SGXv1's smaller EPC + paging makes both arms strictly
            # worse than on SGXv2.
            if platform == "SGXv1":
                assert engine > report.value("SGXv2 sqlite engine", name)
        # The init term exists but never dominates a whole query.
        share = report.value("SGXv2 sqlite init share", name)
        assert 0.0 < share < 0.5
    # The engine's buffer-pool working sets pay more than the operators'
    # tight footprints on the TPC-H plans under the legacy EPC.
    assert report.value("SGXv1 sqlite engine", "q12") > report.value(
        "SGXv1 operator", "q12"
    )
    if missing_reason("duckdb") is not None:
        assert any("duckdb" in note for note in report.notes)
    entries = []
    for name in TEMPLATE_NAMES:
        for platform in ("SGXv2", "SGXv1"):
            entries.append(
                {
                    "experiment": "ext08",
                    "arm": f"{platform} operator {name}",
                    "overhead": report.value(f"{platform} operator", name),
                }
            )
            entries.append(
                {
                    "experiment": "ext08",
                    "arm": f"{platform} sqlite {name}",
                    "overhead": report.value(f"{platform} sqlite engine", name),
                    "init_share": report.value(
                        f"{platform} sqlite init share", name
                    ),
                }
            )
    scoreboard("backends", "ext08", entries)
