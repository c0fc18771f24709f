"""Command-line entry point: regenerate the paper's figures and tables.

Examples::

    sgxv2-bench --list
    sgxv2-bench fig08
    sgxv2-bench all --full --csv results/
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from dataclasses import fields
from typing import List, Optional

from repro.bench.registry import EXPERIMENTS
from repro.errors import ConfigurationError
from repro.runconfig import RunConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgxv2-bench",
        description=(
            "Regenerate the figures/tables of 'Benchmarking Analytical "
            "Query Processing in Intel SGXv2' on the simulated testbed."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=(
            "experiment ids (e.g. fig08 fig17), or 'all'; or "
            "'explain JOB' to print the planner's ranked candidate plans "
            "for a serving job template"
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="list known experiments and exit"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-fidelity mode: 10 repetitions and larger physical data",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write one CSV per experiment into DIR",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render each experiment as an ASCII chart as well",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="run the experiments and write one Markdown report to FILE",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        help=(
            "record a structured trace per experiment into DIR "
            "(JSON-lines + CSV: operator phases, enclave charges, "
            "scheduler decisions)"
        ),
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="check every calibration anchor against the cost model and exit",
    )
    parser.add_argument(
        "--seed",
        type=int,
        metavar="N",
        help="base seed for repetition and workload streams (default 42)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run experiments across up to N worker processes (leftover "
            "slots fan out as repetition threads inside each experiment); "
            "results merge in request order, so output is byte-identical "
            "to --jobs 1"
        ),
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help=(
            "content-addressed result cache in DIR: identical (experiment, "
            "params, seed, calibration) runs are served from the cache "
            "instead of re-simulated; calibration changes invalidate "
            "entries automatically"
        ),
    )
    parser.add_argument(
        "--no-memo",
        action="store_true",
        help=(
            "turn off every memo: the per-query profile memo (every "
            "template/candidate is re-priced through the real operators on "
            "each use) and the per-experiment reuse of generated data and "
            "join matches; results are byte-identical either way, only "
            "slower"
        ),
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN",
        help=(
            "inject a named, seeded fault plan into every serving run "
            "(AEX storms, EDMM denials, enclave crashes, EPC squeezes, "
            "poisoned jobs); same plan + same seed is bit-reproducible; "
            "see repro.faults.fault_plans for the catalog"
        ),
    )
    parser.add_argument(
        "--planner",
        metavar="MODE",
        help=(
            "plan serving queries with MODE: 'static' (the historical "
            "hardcoded plans; the default), 'cost' (the SGX-aware cost "
            "model picks each template's plan), or 'adaptive' (seeded "
            "epsilon-greedy refinement of the cost ranking from observed "
            "latencies; deterministic for a fixed --seed)"
        ),
    )
    parser.add_argument(
        "--cluster",
        metavar="SPEC",
        help=(
            "serve every workload over a shard map of enclaves instead of "
            "one enclave: SPEC is 'SOCKETSxENCLAVES' (e.g. '2x4': 4 "
            "enclaves on each of 2 sockets) or "
            "'MACHINESxSOCKETSxENCLAVES', optionally followed by "
            "':ROUTING' ('hash' or 'load-aware'); experiments that pin "
            "explicit clusters (wl06) are unaffected"
        ),
    )
    parser.add_argument(
        "--storage",
        metavar="BUDGET",
        help=(
            "spill working sets beyond BUDGET to sealed untrusted storage "
            "instead of EDMM-growing/paging the enclave: BUDGET is a size "
            "('2G', '512M'), optionally followed by ':BLOCK' for the "
            "sealed block size (default 1MiB); every sealed byte is "
            "priced through the calibrated seal/unseal/IO constants"
        ),
    )
    parser.add_argument(
        "--backend",
        metavar="MODE",
        help=(
            "price serving arms with MODE: 'sim' (the operator-level "
            "simulator; the default), 'sqlite' or 'duckdb' (a real SQL "
            "engine's calibrated profile priced through the SGX cost "
            "envelope; result bags are equivalence-gated against the "
            "simulator first); 'duckdb' needs the repro[backends] extra"
        ),
    )
    parser.add_argument(
        "--rewrite",
        metavar="MODE",
        help=(
            "rewrite TPC-H serving templates logically with MODE: 'off' "
            "(the reference plans; the default), 'prove' (generate rewrite "
            "candidates and run the exact bag-equivalence proofs), 'race' "
            "(additionally price the proof survivors through the real "
            "operators), or 'learned' (additionally add each template's "
            "winning rewrite to the adaptive planner's arm set; needs a "
            "non-static --planner to be served)"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        # Build and validate before creating any output dirs/files, so a
        # bad flag or flag pair leaves the filesystem untouched (same
        # contract as unknown experiment ids below).  Each field's flag
        # is named after it.
        run_config = RunConfig(
            **{f.name: getattr(args, f.name) for f in fields(RunConfig)}
        ).validate()
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.seed is not None:
        from repro.bench import runner

        runner.set_default_base_seed(args.seed)
    if args.validate:
        from repro.bench.validate import CalibrationValidator

        validator = CalibrationValidator()
        print(validator.report())
        checks = validator.run()
        return 0 if all(check.passed for check in checks) else 1
    if args.list:
        for experiment_id in sorted(EXPERIMENTS):
            module = EXPERIMENTS[experiment_id]
            print(f"{experiment_id:8s} {module.TITLE}")
        return 0
    if args.experiments and args.experiments[0] == "explain":
        return _explain(
            args.experiments[1:], quick=not args.full, run=run_config
        )
    requested = args.experiments or ["all"]
    if "all" in requested:
        requested = sorted(EXPERIMENTS)
    unknown = [e for e in requested if e not in EXPERIMENTS]
    if unknown:
        # Reject before creating any output dirs/files so a typo leaves
        # the filesystem untouched.
        print(
            f"unknown experiment ids: {', '.join(unknown)}",
            file=sys.stderr,
        )
        print(
            f"known experiments: {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    store = None
    if args.cache:
        from repro.cache import MemoStore

        store = MemoStore(args.cache)
    if args.report:
        if args.chart:
            # The Markdown report embeds every experiment's chart already;
            # a silent no-op here hid that from users for a whole release.
            print(
                "--chart cannot be combined with --report (the report "
                "embeds each experiment's chart); drop one of the flags",
                file=sys.stderr,
            )
            return 2
        from repro.bench.session import write_report

        try:
            path = write_report(
                args.report,
                requested,
                quick=not args.full,
                csv_dir=args.csv,
                trace_dir=args.trace,
                jobs=args.jobs,
                cache=store,
                base_seed=args.seed,
                run=run_config,
                memo=not args.no_memo,
            )
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(f"wrote {path}")
        _print_cache_summary(store, args.cache)
        return 0
    csv_dir = pathlib.Path(args.csv) if args.csv else None
    if csv_dir is not None:
        csv_dir.mkdir(parents=True, exist_ok=True)
    trace_dir = pathlib.Path(args.trace) if args.trace else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
    from repro.bench.parallel import run_session

    try:
        session = run_session(
            requested,
            quick=not args.full,
            jobs=args.jobs,
            cache=store,
            base_seed=args.seed,
            traced=trace_dir is not None,
            run=run_config,
            memo=not args.no_memo,
        )
    except ConfigurationError as exc:
        # A valid flag set can still meet an experiment it cannot serve,
        # e.g. --backend sqlite and a template with no calibrated engine
        # profile: a one-line reason, not a traceback.
        print(str(exc), file=sys.stderr)
        return 2
    for run in session.runs:
        print(run.report.print_table())
        if args.chart:
            from repro.bench.charts import render

            print()
            print(render(run.report))
        print()
        if csv_dir is not None:
            (csv_dir / f"{run.experiment_id}.csv").write_text(run.report.to_csv())
        if trace_dir is not None and run.trace_jsonl is not None:
            trace_path = trace_dir / f"{run.experiment_id}.trace.jsonl"
            trace_path.write_text(run.trace_jsonl)
            (trace_dir / f"{run.experiment_id}.trace.csv").write_text(
                run.trace_csv
            )
            records = len(run.trace_jsonl.splitlines())
            print(f"wrote {trace_path} ({records} records)")
    if trace_dir is not None and (store is not None or args.jobs > 1):
        session_trace = session.write_session_trace(trace_dir)
        print(f"wrote {session_trace} (session cache/worker telemetry)")
    _print_cache_summary(store, args.cache)
    _print_memo_summary(session)
    return 0


def _explain(names: List[str], *, quick: bool, run: RunConfig) -> int:
    """``sgxv2-bench explain JOB``: the planner's view of one template.

    Prints the ranked candidate plans (estimated cycles, EPC working set,
    chosen/rejected status) for each requested serving job template under
    the data-in-enclave setting, against the machine's real EPC budget.
    The session's :class:`~repro.runconfig.RunConfig` ``run`` applies:
    a cluster explains against one shard's EPC slice, a storage budget
    ranks the spill twins alongside the in-EPC arms, and an active
    rewrite mode appends the ranked-rewrites section; engine backends
    exit 2 (engine profiles cover only the reference plans, so there is
    nothing to rank).  Unknown job names exit 2 without touching the
    filesystem.
    """
    from repro.bench.experiments.common import SETTING_SGX_IN
    from repro.machine import SimMachine
    from repro.planner import Planner
    from repro.workload.jobs import serving_templates

    if run.backend != "sim":
        print(
            f"explain ranks candidate plans through the operator "
            f"simulator; --backend {run.backend} prices only the reference "
            "plans and cannot be explained — drop the flag or use "
            "--backend sim",
            file=sys.stderr,
        )
        return 2
    templates = serving_templates()
    if not names:
        print(
            "explain needs at least one job template name; "
            f"known: {', '.join(sorted(templates))}",
            file=sys.stderr,
        )
        return 2
    unknown = [name for name in names if name not in templates]
    if unknown:
        print(
            f"unknown job templates: {', '.join(unknown)}", file=sys.stderr
        )
        print(
            f"known job templates: {', '.join(sorted(templates))}",
            file=sys.stderr,
        )
        return 2
    del quick  # plan estimates price tiny stand-ins either way
    machine = SimMachine()
    budget = float(machine.topology.node(0).epc_bytes)
    budget_note = None
    cluster = run.cluster
    if cluster is not None:
        # A sharded session plans per enclave: each shard sees its own
        # EPC slice, so explain against the first shard's budget.
        shard = cluster.spec.shards(machine.spec)[0]
        budget = float(shard.epc_budget_bytes)
        budget_note = (
            f"cluster {cluster.spec.canonical()}: explaining against shard "
            f"{shard.label}'s EPC slice ({budget / 1e6:.0f} MB)"
        )
    planner = Planner(
        machine,
        SETTING_SGX_IN,
        epc_budget_bytes=budget,
        storage=run.storage,
    )
    for index, name in enumerate(names):
        if index:
            print()
        if budget_note is not None:
            print(budget_note)
        print(planner.explain(templates[name]))
        if run.rewrite != "off":
            print(_explain_rewrites(templates[name], run.rewrite, machine))
    return 0


def _explain_rewrites(template, mode: str, machine) -> str:
    """The ranked-rewrites section of ``explain`` (active modes only)."""
    from repro.bench.experiments.common import SETTING_SGX_IN
    from repro.planner.stats import QErrorTracker
    from repro.rewrite import plan_rewrites

    decision = plan_rewrites(
        template, mode, machine, SETTING_SGX_IN, tracker=QErrorTracker()
    )
    lines = [f"rewrites ({mode}):"]
    if not decision.proofs:
        lines.append("  (no rewrite candidates: not a TPC-H template)")
        return "\n".join(lines)
    for proof in decision.rejected:
        lines.append(
            f"  rejected {proof.candidate.label():<24} {proof.reason}"
        )
    if mode == "prove":
        for proof in decision.proved:
            lines.append(
                f"  proved   {proof.candidate.label():<24} "
                f"bag {proof.digest[:16]} ({proof.rows} witness rows)"
            )
        return "\n".join(lines)
    lines.append(
        f"  reference: {decision.reference.seconds * 1e3:.2f} ms priced "
        f"service time"
    )
    for rank, est in enumerate(decision.ranked, start=1):
        if (
            decision.winner is not None
            and est.candidate.name == decision.winner.candidate.name
        ):
            status = "winner"
        elif est.seconds < decision.reference.seconds:
            status = "faster, not best"
        else:
            status = "slower than reference"
        lines.append(
            f"  {rank}. {est.candidate.label():<24} "
            f"{est.seconds * 1e3:>9.2f} ms  "
            f"ws {est.working_set_bytes / 1e6:>8.1f} MB  [{status}]"
        )
    lines.append(
        f"  q-error: {decision.q_error_raw:.2f} analytic -> "
        f"{decision.q_error_corrected:.2f} after observed cardinalities"
    )
    return "\n".join(lines)


def _print_cache_summary(store, cache_dir: Optional[str]) -> None:
    """One line of cache traffic, mirroring the session trace counters."""
    if store is None:
        return
    print(
        f"cache: {store.hits} hits, {store.misses} misses, "
        f"{len(store)} entries ({cache_dir})"
    )


def _print_memo_summary(session) -> None:
    """One line of profile-memo traffic (omitted when there was none)."""
    hits, misses = session.memo_hits, session.memo_misses
    if hits or misses:
        print(f"memo: {hits} profile hits, {misses} misses")


if __name__ == "__main__":
    sys.exit(main())
