"""Compare two result sets of ``perf/run.py --out`` under BENCHMARK.json's bounds.

Usage: ``python3 perf/compare.py A.json B.json``, where A is the baseline
(the parent commit) and B the candidate.  Each workload x end-to-end metric
pair gets one verdict:

* ``worse`` / ``better`` -- B's median is worse / better than A's by more
  than the metric's bound (a share of A's median);
* ``unchanged`` -- the medians are within the bound;
* ``unresolved`` -- the quartile spread of either set, as a share of its
  median, is wider than the bound, so the sets cannot show a change that
  small.  It reads ``better`` instead when every sample of B is better
  than every sample of A.

``failed_frac`` is held to an absolute bound of zero: any increase is
worse.  It is not listed in BENCHMARK.json, whose metrics must never be 0.
The command exits 1 when any pair is worse.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf.run import BENCHMARK, summary  # noqa: E402


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    stats = summary(values)
    return (stats["q3"] - stats["q1"]) / stats["median"]


def verdict(a: List[float], b: List[float], bound: float, better: str) -> str:
    """The verdict for baseline samples ``a`` against candidate samples ``b``."""
    sign = 1 if better == "lower" else -1
    a_median, b_median = summary(a)["median"], summary(b)["median"]
    worsening = sign * (b_median - a_median) / a_median
    if better == "lower":
        b_always_better = max(b) < min(a)
    else:
        b_always_better = min(b) > max(a)
    if max(spread(a), spread(b)) > bound:
        return "better" if b_always_better else "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "unchanged"


def failed_verdict(a: float, b: float) -> str:
    return "worse" if b > a else "better" if b < a else "unchanged"


def compare(a: Dict, b: Dict, benchmark: Dict) -> List[Dict]:
    """One row per workload x metric present in both result sets."""
    rows = []
    for workload, a_result in a["workloads"].items():
        b_result: Optional[Dict] = b["workloads"].get(workload)
        if b_result is None:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a_stats = a_result["metrics"].get(name)
            b_stats = b_result["metrics"].get(name)
            if a_stats is None or b_stats is None:
                continue
            rows.append({
                "workload": workload,
                "metric": name,
                "a": a_stats["median"],
                "b": b_stats["median"],
                "spread": max(spread(a_stats["values"]), spread(b_stats["values"])),
                "bound": metric["bound"],
                "verdict": verdict(
                    a_stats["values"], b_stats["values"], metric["bound"], metric["better"]
                ),
            })
        a_failed = a_result["failed"] / a_result["attempted"]
        b_failed = b_result["failed"] / b_result["attempted"]
        rows.append({
            "workload": workload,
            "metric": "failed_frac",
            "a": a_failed,
            "b": b_failed,
            "spread": 0.0,
            "bound": 0.0,
            "verdict": failed_verdict(a_failed, b_failed),
        })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 perf/compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in args)
    rows = compare(a, b, json.loads(BENCHMARK.read_text()))
    print(f"{'workload':<16}{'metric':<13}{'A median':>12}{'B median':>12}"
          f"{'change':>9}{'spread':>8}{'bound':>7}  verdict")
    for row in rows:
        change = (row["b"] - row["a"]) / row["a"] if row["a"] else 0.0
        print(f"{row['workload']:<16}{row['metric']:<13}{row['a']:>12.4f}"
              f"{row['b']:>12.4f}{change:>+9.3f}{row['spread']:>8.3f}"
              f"{row['bound']:>7.2f}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
