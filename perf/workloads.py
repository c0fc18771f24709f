"""The benchmark's four workloads, each a fixed amount of work per pass.

A workload is built in a fresh child process: :meth:`Workload.setup` turns
the benchmark seed into the program's seeds and configs and primes what a
user would have primed, :meth:`Workload.warmup` runs untimed work, and
:meth:`Workload.run_pass` is one timed pass.  Each pass is a list of
operations; every operation's output is hashed afterwards, outside the
timed region, so the harness can check it against the pinned digests, the
other samples, and the workload's own cross-checks.

Only public entry points of ``repro`` are called: ``run_experiment``,
``ServingEngine.run`` and ``run_session``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import tempfile
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench import run_experiment, run_session
from repro.bench.experiments import common, workload_common
from repro.bench.runner import DEFAULT_BASE_SEED
from repro.faults.plan import get_fault_plan
from repro.faults.resilience import ResiliencePolicy
from repro.memory.access import CodeVariant
from repro.workload import (
    JobCatalog,
    OpenLoopStream,
    QueryMix,
    ServingEngine,
    WorkloadConfig,
)


def base_seed(seed: int) -> int:
    """The program's ``base_seed`` for benchmark seed ``seed``.

    Seed 0 gives the program's own default base seed.
    """
    return DEFAULT_BASE_SEED + seed


@dataclasses.dataclass
class Outcome:
    """One operation of a pass: its output texts, or the error it raised.

    The texts are the program's own objects; hashing them waits until the
    timed region is over.
    """

    name: str
    output: Optional[Tuple[str, ...]] = None
    error: str = ""

    @functools.cached_property
    def digest(self) -> Optional[str]:
        if self.output is None:
            return None
        sha = hashlib.sha256()
        for text in self.output:
            sha.update(text.encode())
            sha.update(b"\0")
        return sha.hexdigest()


def attempt(name: str, operation: Callable[[], Tuple[str, ...]]) -> Outcome:
    """Run one operation; an exception fails it without stopping the pass."""
    try:
        return Outcome(name, output=operation())
    except Exception:
        return Outcome(name, error=traceback.format_exc(limit=3))


class Workload:
    """Base class: one timed pass, no warm-up, no in-run cross-checks."""

    #: Timed passes per child.  A cold workload has one: a second pass in
    #: the same process would no longer be cold.
    timed_passes = 1

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        pass

    def run_pass(self) -> List[Outcome]:
        raise NotImplementedError

    def cross_check(self, timed: List[Outcome]) -> List[Tuple[str, str]]:
        """(operation, reason) for each timed operation a cross-check fails."""
        return []


class Experiments(Workload):
    """``run_experiment`` over a fixed list of ids at quick fidelity.

    Each pass runs in a fresh child and is its first pass, so it pays what
    a fresh ``sgxv2-bench`` pays.  One operation per experiment; its output
    is the report CSV.
    """

    def __init__(self, experiment_ids: Tuple[str, ...]) -> None:
        self.experiment_ids = experiment_ids

    def setup(self, seed: int) -> None:
        self.base_seed = base_seed(seed)

    def _csv(self, experiment_id: str) -> Tuple[str, ...]:
        report = run_experiment(experiment_id, quick=True, base_seed=self.base_seed)
        return (report.to_csv(),)

    def run_pass(self) -> List[Outcome]:
        return [
            attempt(eid, lambda eid=eid: self._csv(eid))
            for eid in self.experiment_ids
        ]


class ServeWarm(Workload):
    """The wl01 mix served under six arms at two offered loads.

    Setup prices the mix.  The warm-up serves every arm at a tenth of the
    queries, which also prices the adaptive arm's candidates, so the timed
    passes find every profile in the catalog and measure the event loop,
    not the operators.  A warm pass can repeat in one process, so each
    child runs several; every one must equal the first.
    """

    timed_passes = 4
    MIX = {"scan-small": 0.5, "join-medium": 0.3, "q12": 0.2}
    #: Under load (dispatch on arrival) and past saturation (queue-heavy).
    LOADS = (0.7, 1.1)
    QUERIES_PER_LOAD = 10_000
    WARMUP_QUERIES_PER_LOAD = 1_000
    CORES = 16

    def setup(self, seed: int) -> None:
        base = base_seed(seed)
        catalog = JobCatalog(quick=True, variant=CodeVariant.NAIVE)
        self.engine = ServingEngine(catalog)
        costs = {
            name: catalog.cost(self.engine.templates[name], common.SETTING_SGX_IN)
            for name in self.MIX
        }
        capacity = workload_common.capacity_qps(costs, self.MIX, cores=self.CORES)
        arms = {
            "fifo": {},
            "epc-aware": {"policy": "epc-aware"},
            "chaos": {
                "faults": dataclasses.replace(get_fault_plan("chaos"), seed=base + 2),
                "resilience": ResiliencePolicy(seed=base + 3),
            },
            "cluster-2x4": {"cluster": "2x4"},
            "storage-200m": {"storage": "200m"},
            "adaptive": {"planner": "adaptive", "plan_seed": base + 1},
        }

        def configs(queries: int) -> Dict[str, WorkloadConfig]:
            out = {}
            for arm, overrides in arms.items():
                for load in self.LOADS:
                    qps = load * capacity
                    stream = OpenLoopStream(
                        "tenant", qps=qps, mix=QueryMix.of(self.MIX), seed=base
                    )
                    out[f"{arm}@{load}"] = WorkloadConfig(
                        setting=common.SETTING_SGX_IN,
                        open_streams=(stream,),
                        duration_s=queries / qps,
                        cores=self.CORES,
                        **overrides,
                    )
            return out

        self.warmup_configs = configs(self.WARMUP_QUERIES_PER_LOAD)
        self.configs = configs(self.QUERIES_PER_LOAD)

    def _served(self, config: WorkloadConfig) -> Tuple[str, ...]:
        metrics = self.engine.run(config)
        summary = {
            "counters": dataclasses.asdict(metrics.counters),
            "p50": metrics.latency_percentile_s(50),
            "p99": metrics.latency_percentile_s(99),
            "goodput": metrics.goodput_qps(),
        }
        return (json.dumps(summary, sort_keys=True),)

    def warmup(self) -> None:
        for config in self.warmup_configs.values():
            self.engine.run(config)

    def run_pass(self) -> List[Outcome]:
        return [
            attempt(label, lambda config=config: self._served(config))
            for label, config in self.configs.items()
        ]


class SessionCached(Workload):
    """A traced ``--jobs 2`` session over wl01..wl08, cold then warm.

    The cold session writes a fresh cache directory and the warm one must
    replay every experiment from it, byte-identical to the cold run.
    """

    IDS = tuple(f"wl0{i}" for i in range(1, 9))
    JOBS = 2

    def setup(self, seed: int) -> None:
        self.base_seed = base_seed(seed)
        self.cache_dir = tempfile.mkdtemp(prefix="perf-cache-")
        self.replayed: Dict[str, bool] = {}

    def _session(self, phase: str) -> List[Outcome]:
        try:
            session = run_session(
                self.IDS,
                jobs=self.JOBS,
                cache=self.cache_dir,
                traced=True,
                base_seed=self.base_seed,
            )
        except Exception:
            error = traceback.format_exc(limit=3)
            return [Outcome(f"{phase}:{eid}", error=error) for eid in self.IDS]
        if phase == "warm":
            self.replayed = {run.experiment_id: run.from_cache for run in session.runs}
        return [
            Outcome(
                f"{phase}:{run.experiment_id}",
                output=(run.report.to_csv(), run.trace_jsonl),
            )
            for run in session.runs
        ]

    def run_pass(self) -> List[Outcome]:
        return self._session("cold") + self._session("warm")

    def cross_check(self, timed):
        digests = {o.name: o.digest for o in timed}
        failures = []
        for eid in self.IDS:
            op = f"warm:{eid}"
            if not self.replayed.get(eid, False):
                failures.append((op, "warm run was not a cache hit"))
            elif digests[op] != digests[f"cold:{eid}"]:
                failures.append((op, "warm replay differs from the cold run"))
        return failures


#: Workload name -> factory.  Names and reasons are listed in BENCHMARK.json.
WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "figures-cold": lambda: Experiments(
        ("fig04", "fig06", "fig17", "ext05", "ext03", "fig12", "fig13")
    ),
    "serve-warm": ServeWarm,
    "plan-cold": lambda: Experiments(("wl05", "wl08", "ext09", "ext08")),
    "session-cached": SessionCached,
}
