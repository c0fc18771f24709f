"""Parallel session driver: fan experiments out, memoize their results.

:func:`run_session` is the one engine behind ``sgxv2-bench``'s table,
report, CSV, and trace outputs.  It executes the requested experiments —
serially in-process, or across up to ``--jobs N`` fresh worker processes
(:mod:`repro.bench.worker`) that the session starts, feeds over their
own pipes and reaps before it returns — optionally in front of a
content-addressed :class:`~repro.cache.MemoStore`, and merges the results
deterministically in request order.  Three properties hold by
construction:

* **Determinism** — ``--jobs 8`` produces byte-identical reports, CSVs,
  and per-experiment traces to ``--jobs 1``: each experiment is one
  picklable task carrying every session setting (seed, fidelity,
  tracing, run config, memo switch — worker processes inherit no
  process globals), it runs under its own tracer, and the merge order is
  the request order regardless of completion order.
* **Warm-cache replay** — a cache hit re-emits the stored report *and*
  the stored trace text verbatim, so a fully cached rerun performs zero
  operator re-simulations yet writes the same artifacts.  A run's trace
  is one JSON-lines text (its CSV is rendered only on request, by
  ``sgxv2-bench trace-csv``); a worker's text reaches the parent inside
  its pickled payload, and the store writes it to a raw sidecar file as
  it is (see :mod:`repro.cache.store`): nothing re-encodes or parses it.
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
memo gains a disk tier under ``<cache-dir>/profiles`` that worker
processes and later sessions share, so even a cold experiment cache reuses
every previously priced profile.
"""

from __future__ import annotations

import collections
import os
import pathlib
import pickle
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import repro
from repro import reuse
from repro.bench import runner
from repro.bench.registry import get_experiment, run_experiment
from repro.bench.report import ExperimentReport
from repro.bench.runner import use_repetition_jobs
from repro.cache import MemoStore, calibration_digest, experiment_key
from repro.errors import BenchmarkError
from repro.runconfig import RunConfig, current_run_config
from repro.trace import Tracer


@dataclass
class ExperimentRun:
    """One experiment's merged outcome within a session."""

    experiment_id: str
    report: ExperimentReport
    trace_jsonl: Optional[str] = None
    #: Always ``None``: a run's trace CSV is rendered only on request.  Kept
    #: because the benchmark's layer observer (``perf/layers.py``) reads it.
    trace_csv: Optional[str] = None
    from_cache: bool = False
    wall_s: float = 0.0


@dataclass
class SessionResult:
    """All runs of one session, in request order, plus the session tracer."""

    runs: List[ExperimentRun] = field(default_factory=list)
    tracer: Tracer = field(default_factory=lambda: Tracer(label="_session"))
    #: Whether the session had a cache or more than one job, i.e. whether
    #: its tracer holds cache/worker telemetry worth exporting.
    telemetry: bool = False

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

    def write_artifacts(
        self,
        csv_dir: Optional[Union[str, pathlib.Path]] = None,
        trace_dir: Optional[Union[str, pathlib.Path]] = None,
    ) -> Dict[str, pathlib.Path]:
        """Write every run's CSV and trace files; the one artifact writer.

        Each run writes ``<id>.csv`` into ``csv_dir`` and, when traced,
        ``<id>.trace.jsonl`` into ``trace_dir``; each directory is created
        on first use and ``None`` skips it.  A :attr:`telemetry` session
        also exports its own tracer as ``_session.trace.jsonl`` — the
        underscore keeps it apart from experiment ids and flags it as the
        one artifact that is *not* byte-deterministic (it carries
        wall-clock gauges).  ``sgxv2-bench trace-csv`` renders each trace's
        CSV from these files.  Returns the trace JSONL path written per
        name (an experiment id or ``"_session"``).
        """
        if csv_dir is not None:
            csv_dir = pathlib.Path(csv_dir)
            csv_dir.mkdir(parents=True, exist_ok=True)
            for run in self.runs:
                (csv_dir / f"{run.experiment_id}.csv").write_text(
                    run.report.to_csv()
                )
        written: Dict[str, pathlib.Path] = {}
        if trace_dir is None:
            return written
        trace_dir = pathlib.Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        texts = [
            (run.experiment_id, run.trace_jsonl)
            for run in self.runs
            if run.trace_jsonl is not None
        ]
        if self.telemetry:
            from repro.trace import to_jsonl

            texts.append(("_session", to_jsonl(self.tracer)))
        for name, jsonl in texts:
            written[name] = trace_dir / f"{name}.trace.jsonl"
            written[name].write_text(jsonl)
        return written


class _Task(NamedTuple):
    """Every setting one experiment run needs, as one picklable value.

    Worker processes inherit no ambient state (the base seed,
    ``use_run_config``, ``use_memos``), so each setting rides here.
    """

    experiment_id: str
    quick: bool
    base_seed: int
    traced: bool
    repetition_jobs: int
    run: RunConfig
    memo: bool
    memo_dir: Optional[str]


def _compute(task: _Task) -> Dict:
    """Run one experiment and return its JSON-safe result payload.

    Serial sessions call it in-process; worker processes run it for each
    task they are handed.  The payload's memo traffic is the run's *delta*
    (a worker runs several tasks, and the process memos outlive the
    session), so summing it across tasks never double-counts.
    """
    with (
        reuse.use_memos(task.memo, task.memo_dir),
        use_repetition_jobs(task.repetition_jobs),
    ):
        before = reuse.traffic()
        start = time.perf_counter()
        tracer = Tracer(label=task.experiment_id) if task.traced else None
        report = run_experiment(
            task.experiment_id,
            quick=task.quick,
            tracer=tracer,
            base_seed=task.base_seed,
            run=task.run,
        )
        payload: Dict = {
            "report": report.as_dict(),
            "trace_jsonl": None,
            "wall_s": time.perf_counter() - start,
        }
        if tracer is not None:
            from repro.trace import to_jsonl

            # Export falls outside wall_s; it is reported on its own as export_s.
            start = time.perf_counter()
            payload["trace_jsonl"] = to_jsonl(tracer)
            payload["export_s"] = time.perf_counter() - start
        payload["memo_traffic"] = {
            name: count - before[name] for name, count in reuse.traffic().items()
        }
    return payload


def _run_from_payload(
    experiment_id: str, payload: Dict, *, from_cache: bool
) -> ExperimentRun:
    return ExperimentRun(
        experiment_id=experiment_id,
        report=ExperimentReport.from_dict(payload["report"]),
        trace_jsonl=payload.get("trace_jsonl"),
        from_cache=from_cache,
        wall_s=float(payload.get("wall_s", 0.0)),
    )


def run_session(
    experiment_ids: Sequence[str],
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
    and returns its JSON-lines text on each :class:`ExperimentRun`.
    ``base_seed`` (``None``: :data:`~repro.bench.runner.DEFAULT_BASE_SEED`)
    seeds every run.  ``run`` (a :class:`~repro.runconfig.RunConfig`;
    ``None`` takes the ambient one) applies the session's subsystem
    settings to every run.  Both are resolved once, carried into every
    run by its task, and hashed into every cache key, so serial,
    parallel, and cached-replay runs of one config stay byte-identical
    while differently-configured runs never collide.  ``memo=False``
    turns off every memo of :mod:`repro.reuse` for every run (the
    ``--no-memo`` channel); memoized and unmemoized runs are
    byte-identical, so the flag is never keyed.
    """
    ids = list(experiment_ids)
    for experiment_id in ids:
        get_experiment(experiment_id)  # fail fast on unknown ids
    if jobs < 1:
        raise BenchmarkError(f"jobs must be at least 1, got {jobs}")
    run = (current_run_config() if run is None else run).validate()
    if base_seed is None:
        base_seed = runner.DEFAULT_BASE_SEED
    store: Optional[MemoStore]
    if cache is None or isinstance(cache, MemoStore):
        store = cache
    else:
        store = MemoStore(cache)

    session = SessionResult(telemetry=store is not None or jobs > 1)
    results: Dict[str, ExperimentRun] = {}
    keys: Dict[str, str] = {}
    pending: List[str] = []
    for experiment_id in dict.fromkeys(ids):
        if store is None:
            pending.append(experiment_id)
            continue
        keys[experiment_id] = experiment_key(
            experiment_id,
            quick=quick,
            base_seed=base_seed,
            traced=traced,
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
            session.tracer.event(
                "bench.cache.hit", {"experiment": experiment_id}
            )
        else:
            session.tracer.count("bench.cache.misses")
            session.tracer.event(
                "bench.cache.miss", {"experiment": experiment_id}
            )
            pending.append(experiment_id)

    # A --cache directory also hosts the profile memo's disk tier, so
    # workers (and later sessions) share priced profiles even when the
    # experiment-level entries themselves miss.
    memo_dir: Optional[str] = None
    if memo and store is not None and store.directory is not None:
        memo_dir = str(store.directory / "profiles")

    # Split the job budget: one process per pending experiment first, the
    # remainder as repetition threads inside each worker.
    repetition_jobs = max(1, jobs // len(pending)) if pending else 1
    tasks = [
        _Task(
            experiment_id,
            quick,
            base_seed,
            traced,
            repetition_jobs,
            run,
            memo,
            memo_dir,
        )
        for experiment_id in pending
    ]
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            results[task.experiment_id] = _absorb(
                session, store, keys, task.experiment_id, _compute(task)
            )
    else:
        answers = _run_in_workers(tasks, min(jobs, len(tasks)))
        # Merge in request order: completion order never leaks into the
        # merged output.
        for task, answer in zip(tasks, answers):
            results[task.experiment_id] = _absorb(
                session, store, keys, task.experiment_id, _payload(task, answer)
            )

    session.runs = [results[experiment_id] for experiment_id in ids]
    return session


#: The directory ``repro`` was imported from; workers import it from there.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class _Worker:
    """One worker process (:mod:`repro.bench.worker`) and its two pipes."""

    def __init__(self) -> None:
        import subprocess

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
        )
        read_fd, write_fd = os.pipe()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.bench.worker", str(write_fd)],
                stdin=subprocess.PIPE,
                pass_fds=(write_fd,),
                env=env,
            )
        except BaseException:
            os.close(read_fd)
            raise
        finally:
            os.close(write_fd)
        self.answers = os.fdopen(read_fd, "rb")
        #: The index of the task the worker is running, or ``None`` when idle.
        self.index: Optional[int] = None

    def send(self, index: int, task: _Task) -> None:
        self.index = index
        try:
            pickle.dump(task, self.process.stdin, pickle.HIGHEST_PROTOCOL)
            self.process.stdin.flush()
        except BrokenPipeError:
            pass  # the worker is gone: receive() answers with its exit

    def receive(self) -> Tuple[bool, Any]:
        """The running task's answer; a worker that died answers a failure."""
        try:
            answer = pickle.load(self.answers)
        except (EOFError, pickle.UnpicklingError):
            code = self.process.wait()
            answer = (False, (f"its worker exited with code {code}", None))
        self.index = None
        return answer

    def close(self) -> None:
        """Stop the worker and reap it: an idle one exits at the end of its
        input, a busy one (the session is failing) is killed."""
        try:
            self.process.stdin.close()
        except OSError:
            pass  # the worker is already gone
        if self.index is not None:
            self.process.kill()
        self.process.wait()
        self.answers.close()


def _run_in_workers(
    tasks: List[_Task], count: int
) -> List[Optional[Tuple[bool, Any]]]:
    """Run ``tasks`` on ``count`` worker processes; answers in request order.

    Each idle worker takes the next task in request order.  Once a task
    fails, no further task is handed out, so every task never started
    (its answer is ``None``) comes after a failed one.  Every worker is
    stopped and reaped before this returns or raises, so no process
    outlives the session.
    """
    # Imported here, like ``subprocess``: sessions without workers (and
    # every process that only imports this module) never load either.
    import selectors

    answers: List[Optional[Tuple[bool, Any]]] = [None] * len(tasks)
    queue = collections.deque(range(len(tasks)))
    workers: List[_Worker] = []
    selector = selectors.DefaultSelector()

    def hand_out(worker: _Worker) -> None:
        if queue:
            index = queue.popleft()
            worker.send(index, tasks[index])
            selector.register(worker.answers, selectors.EVENT_READ, worker)

    try:
        for _ in range(count):
            workers.append(_Worker())
            hand_out(workers[-1])
        while selector.get_map():
            for key, _ in selector.select():
                worker = key.data
                selector.unregister(worker.answers)
                index = worker.index
                answers[index] = worker.receive()
                if answers[index][0]:
                    hand_out(worker)
                else:
                    queue.clear()
    finally:
        selector.close()
        for worker in workers:
            worker.close()
    return answers


def _payload(task: _Task, answer: Tuple[bool, Any]) -> Dict:
    """The payload a worker answered for ``task``, or the error it raised.

    A :class:`~repro.errors.ConfigurationError` is re-raised as it is, as
    a serial run raises it; any other failure is a
    :class:`~repro.errors.BenchmarkError` naming the experiment.
    """
    ok, value = answer
    if ok:
        return value
    text, error = value
    if error is not None:
        raise error
    raise BenchmarkError(
        f"{task.experiment_id} failed in a worker process: {text}"
    )


def _absorb(
    session: SessionResult,
    store: Optional[MemoStore],
    keys: Dict[str, str],
    experiment_id: str,
    payload: Dict,
) -> ExperimentRun:
    """Record one computed result: session telemetry and cache entry."""
    run = _run_from_payload(experiment_id, payload, from_cache=False)
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
                "wall_s": payload.get("wall_s", 0.0),
                "calibration": calibration_digest(),
            },
        )
    return run
