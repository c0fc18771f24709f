"""Repetition runner: the paper's "ten runs, arithmetic mean ± std" protocol.

Simulated costs are deterministic for a fixed input, so repetitions vary
the data-generation seed — the residual spread reflects data-dependent
effects (partition skew, chain lengths), which is also what repeated runs
on the real hardware would pick up once machine noise is controlled as
carefully as the paper controls it (fixed frequency, pinned threads).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from repro.errors import BenchmarkError

#: The paper's repetition count (Sec. 3).
PAPER_REPETITIONS = 10

#: Seed of the first repetition (repetition i uses base + i).  A run's
#: seed is installed for its scope with :func:`use_base_seed`
#: (:func:`~repro.bench.registry.run_experiment` does so for its
#: ``base_seed``); code that reads it must look it up at call time, as
#: ``runner.DEFAULT_BASE_SEED``, never import the value.
DEFAULT_BASE_SEED = 42

#: Thread-pool width for the repetitions of one :func:`repeat_runs` call.
#: 1 means strictly serial; the parallel session driver raises it (via
#: :func:`use_repetition_jobs`) when there are more worker slots than
#: experiments.
DEFAULT_REPETITION_JOBS = 1


@contextlib.contextmanager
def use_base_seed(seed: Optional[int]) -> Iterator[int]:
    """Install ``seed`` as the process base seed for the ``with`` scope.

    ``None`` leaves the current default untouched.
    """
    global DEFAULT_BASE_SEED
    previous = DEFAULT_BASE_SEED
    if seed is not None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise BenchmarkError(f"base seed must be an integer, got {seed!r}")
        DEFAULT_BASE_SEED = seed
    try:
        yield DEFAULT_BASE_SEED
    finally:
        DEFAULT_BASE_SEED = previous


@contextlib.contextmanager
def use_repetition_jobs(jobs: Optional[int]) -> Iterator[int]:
    """Install ``jobs`` as the repetition thread count for the ``with`` scope.

    ``None`` leaves the current count untouched.
    """
    global DEFAULT_REPETITION_JOBS
    previous = DEFAULT_REPETITION_JOBS
    if jobs is not None:
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise BenchmarkError(
                f"repetition jobs must be a positive integer, got {jobs!r}"
            )
        DEFAULT_REPETITION_JOBS = jobs
    try:
        yield DEFAULT_REPETITION_JOBS
    finally:
        DEFAULT_REPETITION_JOBS = previous


@dataclass(frozen=True)
class RunStats:
    """Mean and standard deviation over repeated runs."""

    mean: float
    std: float
    samples: Sequence[float]

    @property
    def runs(self) -> int:
        return len(self.samples)

    @property
    def relative_std(self) -> float:
        """Coefficient of variation.

        0 only when the spread truly is zero; a zero mean with nonzero
        spread (samples straddling zero) has no meaningful coefficient of
        variation and reports ``nan`` rather than fake perfect stability.
        """
        if self.mean == 0:
            return 0.0 if self.std == 0 else math.nan
        return self.std / abs(self.mean)

    def __format__(self, spec: str) -> str:
        spec = spec or ".3g"
        return f"{self.mean:{spec}} ± {self.std:{spec}}"


def summarize(samples: Sequence[float]) -> RunStats:
    """Arithmetic mean and population standard deviation of ``samples``."""
    if not samples:
        raise BenchmarkError("cannot summarize zero samples")
    mean = sum(samples) / len(samples)
    variance = sum((s - mean) ** 2 for s in samples) / len(samples)
    return RunStats(mean=mean, std=math.sqrt(variance), samples=tuple(samples))


def repeat_runs(
    measure: Callable[[int], float],
    *,
    runs: int = PAPER_REPETITIONS,
    base_seed: Optional[int] = None,
    jobs: Optional[int] = None,
) -> RunStats:
    """Call ``measure(seed)`` ``runs`` times and summarize the results.

    ``base_seed`` defaults to the process-wide :data:`DEFAULT_BASE_SEED`
    (42, unless the run's ``--seed`` installed another) and ``jobs`` to
    :data:`DEFAULT_REPETITION_JOBS`.  With ``jobs > 1`` the repetitions run
    on a thread pool; samples are collected in repetition order, so the
    summary is identical to a serial run.  A tracer forces serial execution:
    measurements emit spans into the process-current tracer, and only a
    serial sweep keeps the exported record order deterministic.

    A failing repetition is re-raised as :class:`BenchmarkError` carrying
    the repetition index and seed, so a crash deep inside an operator (or a
    pool worker) still names the exact input that triggered it.
    """
    if runs < 1:
        raise BenchmarkError("need at least one run")
    if base_seed is None:
        base_seed = DEFAULT_BASE_SEED
    if jobs is None:
        jobs = DEFAULT_REPETITION_JOBS
    from repro.trace.tracer import current_tracer

    tracer = current_tracer()
    seeds = [base_seed + i for i in range(runs)]

    def run_one(index: int) -> float:
        seed = seeds[index]
        try:
            return float(measure(seed))
        except Exception as exc:
            if tracer.enabled:
                tracer.event(
                    "bench.repetition_failed",
                    {
                        "repetition": index,
                        "seed": seed,
                        "error": type(exc).__name__,
                    },
                )
            raise BenchmarkError(
                f"repetition {index} (seed {seed}) failed: {exc}"
            ) from exc

    if jobs > 1 and runs > 1 and not tracer.enabled:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(jobs, runs)) as pool:
            samples: List[float] = list(pool.map(run_one, range(runs)))
    else:
        samples = []
        for i in range(runs):
            samples.append(run_one(i))
            if tracer.enabled:
                tracer.event(
                    "bench.repetition",
                    {"repetition": i, "seed": seeds[i], "sample": samples[-1]},
                )
                tracer.count("bench.repetitions")
    return summarize(samples)
