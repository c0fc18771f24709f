"""Parallel session driver: fan experiments out, memoize their results.

:func:`run_session` is the one engine behind ``sgxv2-bench``'s table,
report, CSV, and trace outputs.  It executes the requested experiments —
serially in-process, or across a ``--jobs N`` pool of **spawned** worker
processes — optionally in front of a content-addressed
:class:`~repro.cache.MemoStore`, and merges the results deterministically
in request order.  Three properties hold by construction:

* **Determinism** — ``--jobs 8`` produces byte-identical reports, CSVs,
  and per-experiment traces to ``--jobs 1``: each experiment runs under
  its own seed (threaded explicitly into every worker, never via the
  parent's :data:`~repro.bench.runner.DEFAULT_BASE_SEED` mutation, which
  spawned processes do not inherit) and its own tracer, and the merge
  order is the request order regardless of completion order.
* **Warm-cache replay** — a cache hit re-emits the stored report *and*
  the stored trace texts verbatim, so a fully cached rerun performs zero
  operator re-simulations yet writes the same artifacts.  A worker's
  texts reach the parent inside its pickled payload, and the store
  writes them to raw sidecar files as they are (see
  :mod:`repro.cache.store`): nothing re-encodes or parses them.
* **Observability** — the session tracer counts ``bench.cache.hits`` /
  ``bench.cache.misses`` (one ``bench.cache.hit``/``.miss`` event per
  experiment), ``bench.memo.hits`` / ``bench.memo.misses`` (per-query
  profile-memo traffic) and ``bench.reuse.hits`` / ``bench.reuse.misses``
  (experiment-memo traffic), both summed across workers, and gauges
  per-worker wall seconds (``bench.worker.wall_s.<id>``, the simulation)
  and, for traced runs, trace-export seconds
  (``bench.worker.export_s.<id>``).  This is the only non-deterministic
  output (wall clock, cache state), which is why it lives in a separate
  ``_session`` trace, never in the per-experiment files the byte-identity
  guarantee covers.

Below the experiment cache sit the memos of :mod:`repro.reuse`: the
per-query profile memo and the experiment-scoped memos of generated data
and join matches.  They are on by default, and ``memo=False`` turns every
one of them off for a session; with a ``--cache`` directory the profile
memo gains a disk tier under ``<cache-dir>/profiles`` that spawned
workers and later sessions share, so even a cold experiment cache reuses
every previously priced profile.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import reuse
from repro.bench.registry import get_experiment, run_experiment
from repro.bench.report import ExperimentReport
from repro.bench.runner import DEFAULT_BASE_SEED, use_repetition_jobs
from repro.cache import MemoStore, calibration_digest, experiment_key
from repro.errors import BenchmarkError
from repro.machine import SimMachine
from repro.runconfig import RunConfig, current_run_config
from repro.trace import Tracer

#: Worker payload: (experiment_id, quick, base_seed, traced,
#: repetition_jobs, run, memo_enabled, memo_dir).  The run config and the
#: memo switch ride into spawned workers as pickled values — spawn
#: inherits no ambient ``use_run_config``/``use_memos`` state, so the
#: explicit slots are the only channel.
_Task = Tuple[str, bool, int, bool, int, RunConfig, bool, Optional[str]]


@dataclass
class ExperimentRun:
    """One experiment's merged outcome within a session."""

    experiment_id: str
    report: ExperimentReport
    trace_jsonl: Optional[str] = None
    trace_csv: Optional[str] = None
    from_cache: bool = False
    wall_s: float = 0.0


@dataclass
class SessionResult:
    """All runs of one session, in request order, plus the session tracer."""

    runs: List[ExperimentRun] = field(default_factory=list)
    tracer: Tracer = field(default_factory=lambda: Tracer(label="_session"))

    @property
    def cache_hits(self) -> int:
        return self.tracer.counters.get("bench.cache.hits", 0)

    @property
    def cache_misses(self) -> int:
        return self.tracer.counters.get("bench.cache.misses", 0)

    @property
    def memo_hits(self) -> int:
        """Per-query profile-memo hits summed across every run/worker."""
        return self.tracer.counters.get("bench.memo.hits", 0)

    @property
    def memo_misses(self) -> int:
        """Per-query profile-memo misses summed across every run/worker."""
        return self.tracer.counters.get("bench.memo.misses", 0)

    def write_session_trace(
        self, trace_dir: Union[str, pathlib.Path]
    ) -> pathlib.Path:
        """Export the session tracer (cache + worker telemetry) to files.

        Written as ``_session.trace.jsonl``/``.csv`` — the underscore keeps
        it apart from experiment ids and flags it as the one artifact that
        is *not* byte-deterministic (it carries wall-clock gauges).
        """
        from repro.trace import export_texts

        trace_dir = pathlib.Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        jsonl, csv_text = export_texts(self.tracer)
        (trace_dir / "_session.trace.csv").write_text(csv_text)
        path = trace_dir / "_session.trace.jsonl"
        path.write_text(jsonl)
        return path


def _execute(
    experiment_id: str,
    *,
    quick: bool,
    base_seed: int,
    traced: bool,
    repetition_jobs: int,
    run: RunConfig,
    machine: Optional[SimMachine] = None,
) -> Dict:
    """Run one experiment and return its JSON-safe result payload."""
    start = time.perf_counter()
    tracer = Tracer(label=experiment_id) if traced else None
    with use_repetition_jobs(repetition_jobs):
        report = run_experiment(
            experiment_id,
            machine,
            quick=quick,
            tracer=tracer,
            base_seed=base_seed,
            run=run,
        )
    payload: Dict = {
        "report": report.as_dict(),
        "trace_jsonl": None,
        "trace_csv": None,
        "wall_s": time.perf_counter() - start,
    }
    if tracer is not None:
        from repro.trace import export_texts

        # Export falls outside wall_s; it is reported on its own as export_s.
        start = time.perf_counter()
        payload["trace_jsonl"], payload["trace_csv"] = export_texts(tracer)
        payload["export_s"] = time.perf_counter() - start
    return payload


def _executed_with_memo_stats(
    experiment_id: str, memo_enabled: bool, memo_dir: Optional[str], **kwargs
) -> Dict:
    """Run one experiment under the session's memo switch; traffic rides
    on the payload.

    The traffic *delta* is recorded (pool workers are reused across tasks,
    and the process memos outlive the session), so summing the payload
    traffic across tasks never double-counts.
    """
    with reuse.use_memos(memo_enabled, memo_dir):
        before = reuse.traffic()
        payload = _execute(experiment_id, **kwargs)
        payload["memo_traffic"] = {
            name: count - before[name] for name, count in reuse.traffic().items()
        }
    return payload


def _worker(task: _Task) -> Dict:
    """Process-pool entry point (top-level so spawn can pickle it)."""
    (
        experiment_id,
        quick,
        base_seed,
        traced,
        repetition_jobs,
        run,
        memo_enabled,
        memo_dir,
    ) = task
    return _executed_with_memo_stats(
        experiment_id,
        memo_enabled,
        memo_dir,
        quick=quick,
        base_seed=base_seed,
        traced=traced,
        repetition_jobs=repetition_jobs,
        run=run,
    )


def _run_from_payload(
    experiment_id: str, payload: Dict, *, from_cache: bool
) -> ExperimentRun:
    return ExperimentRun(
        experiment_id=experiment_id,
        report=ExperimentReport.from_dict(payload["report"]),
        trace_jsonl=payload.get("trace_jsonl"),
        trace_csv=payload.get("trace_csv"),
        from_cache=from_cache,
        wall_s=float(payload.get("wall_s", 0.0)),
    )


def run_session(
    experiment_ids: Sequence[str],
    machine: Optional[SimMachine] = None,
    *,
    quick: bool = True,
    jobs: int = 1,
    cache: Optional[Union[MemoStore, str, pathlib.Path]] = None,
    base_seed: Optional[int] = None,
    traced: bool = False,
    run: Optional[RunConfig] = None,
    memo: bool = True,
) -> SessionResult:
    """Run ``experiment_ids`` (possibly in parallel, possibly cached).

    ``jobs`` caps the worker-process count; leftover slots fan out inside
    experiments as repetition threads (``jobs=8`` over one experiment runs
    its repetitions eight-wide).  ``cache`` is a :class:`MemoStore` or a
    directory for one; ``traced`` attaches a private tracer per experiment
    and returns its exported texts on each :class:`ExperimentRun`.  A
    non-default ``machine`` runs in-process (live machine objects stay out
    of worker pickles) but still keys the cache by its calibration digest.
    ``run`` (a :class:`~repro.runconfig.RunConfig`; ``None`` takes the
    ambient one) applies the session's subsystem settings to every run.
    It is validated once, installed in-process, pickled into each
    worker's task, and hashed into every cache key, so serial, parallel,
    and cached-replay runs of one config stay byte-identical while
    differently-configured runs never collide.  ``memo=False`` turns
    off every memo of :mod:`repro.reuse` for every run (the ``--no-memo``
    channel); memoized and unmemoized runs are byte-identical, so the
    flag is never keyed.
    """
    ids = list(experiment_ids)
    for experiment_id in ids:
        get_experiment(experiment_id)  # fail fast on unknown ids
    if jobs < 1:
        raise BenchmarkError(f"jobs must be at least 1, got {jobs}")
    run = (current_run_config() if run is None else run).validate()
    if base_seed is None:
        base_seed = DEFAULT_BASE_SEED
    store: Optional[MemoStore]
    if cache is None or isinstance(cache, MemoStore):
        store = cache
    else:
        store = MemoStore(cache)

    session = SessionResult()
    results: Dict[str, ExperimentRun] = {}
    keys: Dict[str, str] = {}
    digest = None
    unique_ids = list(dict.fromkeys(ids))
    pending: List[str] = []

    if store is not None:
        params = machine.params if machine is not None else None
        spec = machine.spec if machine is not None else None
        digest = calibration_digest(params, spec)
        for experiment_id in unique_ids:
            keys[experiment_id] = experiment_key(
                experiment_id,
                quick=quick,
                base_seed=base_seed,
                traced=traced,
                params=params,
                spec=spec,
                run=run,
            )
            payload = store.get(keys[experiment_id])
            hit: Optional[ExperimentRun] = None
            if payload is not None:
                try:
                    hit = _run_from_payload(experiment_id, payload, from_cache=True)
                    hit.wall_s = 0.0  # a hit costs no simulation time
                except BenchmarkError:
                    hit = None  # malformed entry: recompute below
            if hit is not None and traced and hit.trace_jsonl is None:
                hit = None  # entry predates tracing for this key shape
            if hit is not None:
                results[experiment_id] = hit
                session.tracer.count("bench.cache.hits")
                session.tracer.event("bench.cache.hit", experiment=experiment_id)
            else:
                session.tracer.count("bench.cache.misses")
                session.tracer.event("bench.cache.miss", experiment=experiment_id)
                pending.append(experiment_id)
    else:
        pending = unique_ids

    # A --cache directory also hosts the profile memo's disk tier, so
    # workers (and later sessions) share priced profiles even when the
    # experiment-level entries themselves miss.
    memo_dir: Optional[str] = None
    if memo and store is not None and store.directory is not None:
        memo_dir = str(store.directory / "profiles")

    # Split the job budget: one process per pending experiment first, the
    # remainder as repetition threads inside each worker.
    repetition_jobs = max(1, jobs // len(pending)) if pending else 1

    if pending:
        if jobs <= 1 or len(pending) == 1 or machine is not None:
            for experiment_id in pending:
                payload = _executed_with_memo_stats(
                    experiment_id,
                    memo,
                    memo_dir,
                    quick=quick,
                    base_seed=base_seed,
                    traced=traced,
                    repetition_jobs=repetition_jobs,
                    run=run,
                    machine=machine,
                )
                _absorb(session, results, store, keys, digest, experiment_id, payload)
        else:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            spawn = multiprocessing.get_context("spawn")
            workers = min(jobs, len(pending))
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=spawn
            ) as pool:
                futures = {
                    experiment_id: pool.submit(
                        _worker,
                        (
                            experiment_id,
                            quick,
                            base_seed,
                            traced,
                            repetition_jobs,
                            run,
                            memo,
                            memo_dir,
                        ),
                    )
                    for experiment_id in pending
                }
                # Collect in request order: completion order never leaks
                # into the merged output.
                for experiment_id in pending:
                    payload = futures[experiment_id].result()
                    _absorb(
                        session, results, store, keys, digest, experiment_id, payload
                    )

    session.runs = [results[experiment_id] for experiment_id in ids]
    return session


def _absorb(
    session: SessionResult,
    results: Dict[str, ExperimentRun],
    store: Optional[MemoStore],
    keys: Dict[str, str],
    digest: Optional[str],
    experiment_id: str,
    payload: Dict,
) -> None:
    """Record one computed result: session telemetry, cache, merge map."""
    run = _run_from_payload(experiment_id, payload, from_cache=False)
    results[experiment_id] = run
    session.tracer.gauge(f"bench.worker.wall_s.{experiment_id}", run.wall_s)
    # Export time and memo traffic belong to the session trace only (wall
    # clock; what ran before), never to the cached payload the replay
    # guarantee covers.
    export_s = payload.pop("export_s", None)
    if export_s is not None:
        session.tracer.gauge(f"bench.worker.export_s.{experiment_id}", export_s)
    for name, count in payload.pop("memo_traffic", {}).items():
        if count:
            session.tracer.count(f"bench.{name}", count)
    if store is not None:
        store.put(
            keys[experiment_id],
            {
                "report": payload["report"],
                "trace_jsonl": payload.get("trace_jsonl"),
                "trace_csv": payload.get("trace_csv"),
                "wall_s": payload.get("wall_s", 0.0),
                "calibration": digest,
            },
        )
