"""Capture engine calibration profiles: the documented nondeterministic path.

``python -m repro.backends.calibrate`` runs each serving template through
a real engine, takes the **minimum** wall-clock over ``--repeats`` runs
(the standard steady-state estimator: the minimum is the least polluted
by scheduler noise), and writes the checked-in artifact
(:data:`repro.backends.envelope.PROFILES_PATH`).  Everything downstream —
the SGX cost envelope, ``--backend sqlite|duckdb`` runs, ext08 — prices
from this artifact, never from live timings, so simulated experiments
stay byte-deterministic and *this* command is the only place wall-clock
nondeterminism enters the repository (as a reviewed diff).

The result bag's canonical digest is captured alongside the timing; the
equivalence gate later verifies the live engines still produce it, which
catches artifact/generator drift.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional

from repro.backends.config import ENGINE_MODES, missing_reason
from repro.backends.dataset import materialize
from repro.backends.engines import SqlEngineBackend, make_engine
from repro.backends.envelope import PROFILES_FORMAT, PROFILES_PATH
from repro.backends.equivalence import bag_digest
from repro.workload.jobs import (
    FULL_ROW_CAP,
    FULL_SF_CAP,
    QUICK_ROW_CAP,
    QUICK_SF_CAP,
    JobTemplate,
    serving_templates,
)

#: Default measurement repeats; the minimum is kept.
DEFAULT_REPEATS = 3

#: The default pricing seed (matches ``JobCatalog``'s).
DEFAULT_SEED = 13


def capture_profile(
    backend: SqlEngineBackend,
    template: JobTemplate,
    *,
    seed: int,
    row_cap: int,
    sf_cap: float,
    repeats: int = DEFAULT_REPEATS,
) -> Dict[str, object]:
    """One artifact entry: min-of-repeats timing + canonical bag digest."""
    best_execute: Optional[float] = None
    best_prepare: Optional[float] = None
    dataset = materialize(template, seed=seed, row_cap=row_cap, sf_cap=sf_cap)
    for _ in range(max(1, repeats)):
        bag, profile = backend.run_dataset(dataset)
        if best_execute is None or profile.execute_s < best_execute:
            best_execute = profile.execute_s
        if best_prepare is None or profile.prepare_s < best_prepare:
            best_prepare = profile.prepare_s
    return {
        "backend": backend.name,
        "template": template.name,
        "kind": template.kind.value,
        "prepare_s": round(best_prepare, 6),
        "execute_s": round(best_execute, 6),
        "rows": len(bag),
        "physical_bytes": dataset.physical_bytes,
        "logical_bytes": dataset.logical_bytes,
        "bag_digest": bag_digest(bag),
        "row_cap": row_cap,
        "sf_cap": sf_cap,
        "pricing_seed": seed,
    }


def capture_all(
    modes: List[str],
    *,
    seed: int = DEFAULT_SEED,
    full: bool = False,
    repeats: int = DEFAULT_REPEATS,
) -> Dict[str, object]:
    """The full artifact payload for ``modes`` over the serving templates."""
    row_cap = FULL_ROW_CAP if full else QUICK_ROW_CAP
    sf_cap = FULL_SF_CAP if full else QUICK_SF_CAP
    profiles = []
    for mode in modes:
        backend = make_engine(mode)
        for name in sorted(serving_templates()):
            template = serving_templates()[name]
            profiles.append(
                capture_profile(
                    backend,
                    template,
                    seed=seed,
                    row_cap=row_cap,
                    sf_cap=sf_cap,
                    repeats=repeats,
                )
            )
    return {
        "format": PROFILES_FORMAT,
        "captured": {"row_cap": row_cap, "sf_cap": sf_cap, "pricing_seed": seed},
        "profiles": profiles,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.backends.calibrate",
        description="capture engine calibration profiles (wall-clock)",
    )
    parser.add_argument(
        "--backend",
        action="append",
        choices=ENGINE_MODES,
        help="engine(s) to calibrate (default: every available engine)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=PROFILES_PATH,
        help=f"artifact path (default: {PROFILES_PATH})",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help="measurement repeats; the minimum is kept",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="pricing seed"
    )
    parser.add_argument(
        "--full", action="store_true",
        help="capture at the full (non-quick) pricing caps",
    )
    args = parser.parse_args(argv)

    modes = args.backend
    if not modes:
        modes = [m for m in ENGINE_MODES if missing_reason(m) is None]
    for mode in modes:
        reason = missing_reason(mode)
        if reason is not None:
            print(reason, file=sys.stderr)
            return 2
    payload = capture_all(
        modes, seed=args.seed, full=args.full, repeats=args.repeats
    )
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"captured {len(payload['profiles'])} profiles "
        f"({', '.join(modes)}) -> {args.out}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
