"""The standalone cross-backend equivalence gate.

``python -m repro.backends.gate`` executes every serving template through
the operator simulator and each requested engine, canonicalizes the
result bags, and fails (exit 1) on any disagreement.  CI runs it as a
merge gate: no timing of an engine arm is trustworthy unless the engine
and the simulator answer every query identically, and bag comparison is
deterministic even where engine timings are not.  Templates that share
their stand-in data (the TPC-H queries, and at the quick caps the two
joins) share one engine load.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.backends.config import ENGINE_MODES, missing_reason
from repro.backends.serving import gate_templates
from repro.errors import EquivalenceError
from repro.workload.jobs import JobCatalog, serving_templates


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.backends.gate",
        description="cross-backend result-bag equivalence gate",
    )
    parser.add_argument(
        "--backend",
        action="append",
        choices=ENGINE_MODES,
        help="engine(s) to gate against (default: every available engine)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="gate at the full (non-quick) pricing caps",
    )
    args = parser.parse_args(argv)

    modes = args.backend
    if not modes:
        modes = []
        for mode in ENGINE_MODES:
            reason = missing_reason(mode)
            if reason is None:
                modes.append(mode)
            else:
                print(f"skip {mode}: {reason}")
    else:
        for mode in modes:
            reason = missing_reason(mode)
            if reason is not None:
                print(reason, file=sys.stderr)
                return 2

    catalog = JobCatalog(quick=not args.full)
    templates = serving_templates()
    names = sorted(templates)
    failures: Dict[str, Dict[str, EquivalenceError]] = {}
    digests = {
        mode: gate_templates(
            catalog,
            [templates[name] for name in names],
            mode,
            failures=failures.setdefault(mode, {}),
        )
        for mode in modes
    }
    for name in names:
        for mode in modes:
            error = failures[mode].get(name)
            if error is not None:
                print(f"FAIL sim vs {mode} on {name}: {error}")
            else:
                digest = digests[mode][name]
                print(f"ok   sim vs {mode} on {name}: {digest[:12]}")
    failed = sum(map(len, failures.values()))
    if failed:
        print(f"{failed} equivalence failure(s)", file=sys.stderr)
        return 1
    print(f"all templates equivalent across sim + {', '.join(modes)}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
