"""Wall-clock benchmark of the simulator: four workloads, one fresh child per sample.

Run from the repository root::

    python3 perf/run.py [--workload NAME] [--repeats N] [--seed S] [--out FILE]
    python3 perf/run.py --layers [--workload NAME] [--out FILE]
    python3 perf/run.py --workload NAME --seed S --seconds T --trace 0|1

(``PYTHONPATH=src python -m perf.run ...`` works the same way.)

Samples run one after another in fresh child processes (``perf/child.py``);
only one child exists at a time.  Each child sets up, runs its workload's
untimed warm-up, then its timed passes.  The end-to-end metrics always come
from children without wrappers.  ``--layers`` (or ``--trace 1``) adds one
child with the per-layer wrappers of ``perf/layers.py`` installed, and the
difference between its pass and the plain passes is the wrapper overhead.

Every operation's output digest is checked against ``perf/expected.json``
(default seed only), against the other samples, and against the workload's
in-run cross-checks.  A failed operation counts in ``failed_frac`` and makes
the command exit 1.  The last line of stdout is one JSON object when a
single workload is selected.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = ROOT / "perf" / "expected.json"
#: Scratch space for the children (``TMPDIR``), removed after each sample.
SCRATCH = ROOT / ".perf_tmp"

DEFAULT_SEED = 0
DEFAULT_REPEATS = 5
#: A child still running after this long is killed and its sample fails.
SAMPLE_TIMEOUT_S = 150

#: End-to-end metrics and their units, in report order.
UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "failed_frac": "fraction",
}


class SampleError(Exception):
    """A child that crashed, hung, or broke the reporting protocol."""


def summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles``, n=4) and sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _kill(child: subprocess.Popen) -> None:
    """Kill the child and every process it started (its own session)."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_sample(workload: str, seed: int, mode: str, scratch: Path) -> Dict:
    """Run one child (see ``perf/child.py`` for ``mode``); its result plus
    ``setup_s``.  Raises :class:`SampleError`."""
    scratch.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    command = [sys.executable, "-m", "perf.child", workload, str(seed), mode]
    stderr_path = scratch.parent / f"{scratch.name}.stderr"
    try:
        with open(stderr_path, "w") as stderr:
            start = time.perf_counter()
            child = subprocess.Popen(
                command,
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                start_new_session=True,
            )
            watchdog = threading.Timer(SAMPLE_TIMEOUT_S, _kill, [child])
            watchdog.start()
            try:
                ready = child.stdout.readline()
                setup_s = time.perf_counter() - start
                final = child.stdout.readline()
                code = child.wait()
            finally:
                watchdog.cancel()
                if child.poll() is None:
                    _kill(child)
                child.wait()
                child.stdout.close()
        expects_result = mode != "setup"
        if code != 0 or not ready or bool(final) != expects_result:
            tail = stderr_path.read_text().strip().splitlines()[-5:]
            raise SampleError(f"child exited with code {code}: " + " | ".join(tail))
        try:
            if json.loads(ready) != {"ready": True}:
                raise SampleError(f"unexpected first line {ready!r}")
            result = json.loads(final) if final else {}
        except json.JSONDecodeError as exc:
            raise SampleError(f"unreadable child output: {exc}") from None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        stderr_path.unlink(missing_ok=True)
    result["setup_s"] = setup_s
    return result


def judge(
    result: Dict, reference: Dict[str, str], pinned: Optional[Dict[str, str]]
) -> Tuple[int, List[str]]:
    """(operations attempted, one line per failed operation) of one sample."""
    failed: Dict[str, str] = {}
    for op, digest in result["digests"].items():
        if op in result["errors"]:
            failed[op] = "raised " + result["errors"][op].strip().splitlines()[-1]
        elif pinned is not None and pinned.get(op) != digest:
            failed[op] = "digest differs from perf/expected.json"
        elif reference.setdefault(op, digest) != digest:
            failed[op] = "digest differs from the first sample"
    for op, reason in result["mismatches"]:
        failed.setdefault(op, reason)
    return len(result["digests"]), [f"{op}: {why}" for op, why in failed.items()]


def run_workload(
    name: str,
    seed: int,
    *,
    repeats: int,
    seconds: Optional[float],
    layered: bool,
    pinned: Optional[Dict[str, str]],
    scratch: Path,
) -> Dict:
    """Every sample of one workload, judged and summarized.

    Each round is a set-up-only child followed by a plain sample, so set-up
    is measured twice per round.  With a time budget there are at least two
    rounds (one when the layered sample follows), and no round starts that
    would end after the budget.
    """
    samples: List[Dict] = []
    setups: List[float] = []
    failures: List[str] = []
    reference: Dict[str, str] = {}
    attempted = 0
    layers = None
    index = 0

    def sample(mode: str) -> Optional[Dict]:
        nonlocal attempted, index
        index += 1
        try:
            result = run_sample(name, seed, mode, scratch / f"sample-{index}")
        except SampleError as exc:
            attempted += 1
            failures.append(f"sample {index} ({mode}): {exc}")
            return None
        setups.append(result["setup_s"])
        if mode != "setup":
            count, failed = judge(result, reference, pinned)
            attempted += count
            failures.extend(f"sample {index}: {line}" for line in failed)
        return result

    start = time.monotonic()
    longest = 0.0
    minimum = 1 if layered else 2
    rounds = 0
    while True:
        if seconds is None:
            if rounds >= repeats:
                break
        elif rounds >= minimum:
            reserve = longest if layered else 0.0
            if time.monotonic() - start + longest + reserve > seconds:
                break
        began = time.monotonic()
        sample("setup")
        result = sample("plain")
        longest = max(longest, time.monotonic() - began)
        rounds += 1
        if result is not None:
            samples.append(result)
    values = {
        "setup_s": setups,
        "pass_s": [v for s in samples for v in s["pass_s"]],
        "cpu_s": [v for s in samples for v in s["cpu_s"]],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }
    if layered:
        result = sample("layers")
        if result is not None and samples:
            layers = dict(result["layers"])
            plain_pass = statistics.median(values["pass_s"])
            layers["layers.overhead_frac"] = result["pass_s"][0] / plain_pass - 1

    metrics = {}
    if samples:
        for metric, measured in values.items():
            metrics[metric] = {"unit": UNITS[metric], "values": measured, **summary(measured)}
    failed = len(failures)
    metrics["failed_frac"] = {
        "unit": UNITS["failed_frac"],
        "values": [failed / attempted],
        **summary([failed / attempted]),
    }
    out = {
        "seed": seed,
        "samples": len(samples),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digests": reference,
    }
    if layers is not None:
        out["layers"] = layers
    return out


def print_report(name: str, result: Dict) -> None:
    print(f"== {name}  seed {result['seed']}  {result['samples']} plain samples "
          "(median and quartiles; too few samples for a tail percentile)")
    print(f"{'metric':<14}{'unit':<10}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}")
    for metric, stats in result["metrics"].items():
        print(f"{metric:<14}{stats['unit']:<10}{stats['median']:>12.4f}"
              f"{stats['q1']:>12.4f}{stats['q3']:>12.4f}{stats['n']:>4}")
    print(f"{result['failed']} of {result['attempted']} operations failed")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    layers = result.get("layers")
    if layers:
        print(f"{'layer':<20}{'calls':>10}{'self_s':>12}{'share':>8}")
        prefixes = sorted({key.rsplit(".", 1)[0] for key in layers if key.endswith(".calls")})
        for layer in prefixes:
            print(f"{layer:<20}{layers[layer + '.calls']:>10}"
                  f"{layers[layer + '.self_s']:>12.4f}{layers[layer + '.share']:>8.3f}")
        for key, value in layers.items():
            if not key.endswith((".calls", ".self_s", ".share")):
                print(f"{key:<34}{value:>12.4f}")
    print()


def result_line(result: Dict, benchmark: Dict, layered: bool) -> Dict:
    """The one-line JSON result of a single-workload run."""
    declared = benchmark["per_layer" if layered else "end_to_end"]
    source = result.get("layers", {}) if layered else {
        metric: stats["median"] for metric, stats in result["metrics"].items()
    }
    metrics = {
        m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in source
    }
    correct = result["failed"] == 0 and len(metrics) == len(declared)
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="plain samples per workload (ignored with --seconds)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="time budget per workload instead of --repeats")
    parser.add_argument("--layers", action="store_true",
                        help="add one sample with per-layer wrappers")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 is the same as --layers")
    parser.add_argument("--out", type=Path, help="write all results as JSON")
    parser.add_argument("--write-expected", action="store_true",
                        help="pin this run's digests in perf/expected.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: the program is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK.read_text())
    known = [w["name"] for w in benchmark["workloads"]]
    selected = args.workload or known
    unknown = sorted(set(selected) - set(known))
    if unknown or args.repeats < 1 or args.seed < 0:
        parser.error(f"bad arguments (unknown workloads: {unknown}; "
                     "--repeats must be >= 1 and --seed >= 0)")
    if args.write_expected and args.seed != DEFAULT_SEED:
        parser.error(f"--write-expected pins the default seed {DEFAULT_SEED}")
    layered = args.layers or args.trace == 1

    # Byte-compile once, outside every timed region.
    compileall.compile_dir(str(SRC / "repro"), quiet=2)
    compileall.compile_dir(str(ROOT / "perf"), quiet=2)
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    pin = args.seed == DEFAULT_SEED and not args.write_expected
    scratch = SCRATCH / f"run-{os.getpid()}"
    results = {}
    try:
        for name in selected:
            results[name] = run_workload(
                name,
                args.seed,
                repeats=args.repeats,
                seconds=args.seconds,
                layered=layered,
                pinned=expected.get(name, {}) if pin else None,
                scratch=scratch / name,
            )
            print_report(name, results[name])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    if args.write_expected:
        for name, result in results.items():
            if result["failed"] == 0:
                expected[name] = result["digests"]
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    if args.out is not None:
        args.out.write_text(json.dumps({"seed": args.seed, "workloads": results}, indent=1) + "\n")
    if len(results) == 1:
        (result,) = results.values()
        print(json.dumps(result_line(result, benchmark, layered)))
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
