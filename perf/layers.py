"""Per-layer wall-clock attribution for one benchmark pass (``--layers``).

The timing wrappers live here, outside the program.  :func:`install`
imports every ``repro`` module and replaces each layer's public entry
points with timed wrappers: methods on their class (and on subclasses that
override them), functions on the defining module and on every module that
imported the name.  A span stack gives each layer its self time, which is
the span's duration minus the time its nested wrapped spans cover, so the
self times of all layers never add up to more than the pass.

Layers are named after their modules.  The wrappers see only the process
they are installed in: work done in ``--jobs`` worker processes reaches
this table only through what ``run_session`` returns (``bench.worker_wall_s``
and the exported trace bytes).
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer -> the public entry points timed for it, as ``module:qualname``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "core": (
        "repro.core.joins.base:JoinAlgorithm.run",
        "repro.core.queries.executor:QueryExecutor.run",
        "repro.core.scans.simd_scan:BitvectorScan.run",
        "repro.core.scans.packed_scan:PackedScan.run",
        "repro.core.scans.index_scan:RowIdScan.run",
        "repro.core.ops.aggregate:HashAggregate.run",
        "repro.core.ops.sort:ParallelSort.run",
        "repro.core.ops.sort:TopK.run",
        "repro.core.micro.histogram:HistogramBenchmark.run",
        "repro.core.micro.pmbw:LinearAccessBenchmark.run",
        "repro.core.micro.pointer_chase:PointerChaseBenchmark.run",
        "repro.core.micro.random_write:RandomWriteBenchmark.run",
    ),
    "workload.jobs": (
        "repro.workload.jobs:JobCatalog.profile",
        "repro.workload.jobs:JobCatalog.candidate_cost",
    ),
    "planner": (
        "repro.planner.costing:estimate_candidate",
        "repro.planner.choose:Planner.top_k",
        "repro.planner.choose:Planner.decide",
        "repro.planner.adaptive:PlanSelector.select",
        "repro.planner.adaptive:PlanSelector.observe",
    ),
    "rewrite": (
        "repro.rewrite.race:plan_rewrites",
        "repro.rewrite.prove:prove_candidate",
    ),
    "backends": (
        "repro.backends.serving:gate_template",
        "repro.backends.serving:engine_profile",
        "repro.backends.equivalence:assert_equivalent",
        "repro.backends.engines:SqlEngineBackend.execute",
    ),
    "workload.scheduler": ("repro.workload.scheduler:WorkloadScheduler.run",),
    "cluster": ("repro.cluster.scheduler:ClusterScheduler.run",),
    "workload.metrics": (
        "repro.workload.metrics:WorkloadMetrics.latencies_s",
        "repro.workload.metrics:WorkloadMetrics.latency_percentile_s",
        "repro.workload.metrics:WorkloadMetrics.mean_queue_wait_s",
        "repro.workload.metrics:WorkloadMetrics.achieved_qps",
        "repro.workload.metrics:WorkloadMetrics.slo_attainment",
        "repro.workload.metrics:WorkloadMetrics.goodput_qps",
        "repro.workload.metrics:MetricsRegistry.merged",
    ),
    "trace": (
        "repro.trace.tracer:Tracer.span",
        "repro.trace.tracer:Tracer.event",
        "repro.trace.tracer:Tracer.count",
        "repro.trace.tracer:Tracer.gauge",
        "repro.trace.exporters:to_jsonl",
        "repro.trace.exporters:to_csv",
        "repro.trace.breakdown:serving_breakdown",
        "repro.trace.breakdown:fault_breakdown",
        "repro.trace.breakdown:plan_breakdown",
        "repro.trace.breakdown:phase_breakdown",
        "repro.trace.breakdown:cluster_breakdown",
        "repro.trace.breakdown:storage_breakdown",
        "repro.trace.breakdown:backend_breakdown",
        "repro.trace.breakdown:rewrite_breakdown",
        "repro.trace.breakdown:serving_runs",
    ),
    "cache": (
        "repro.cache.store:MemoStore.get",
        "repro.cache.store:MemoStore.put",
        "repro.cache.keys:experiment_key",
        "repro.cache.keys:query_profile_key",
    ),
    "bench": (
        "repro.bench.parallel:run_session",
        "repro.bench.registry:run_experiment",
    ),
}

#: Module-name prefixes whose globals are searched for imported names.
_IMPORT_SITES = ("repro", "perf")


def _accepted(clock: "LayerClock", proof) -> None:
    clock.tally["rewrite.proofs"] += 1
    clock.tally["rewrite.accepted"] += int(proof.accepted)


def _served(clock: "LayerClock", metrics) -> None:
    clock.tally["workload.scheduler.queries"] += metrics.counters.completed


def _cluster_served(clock: "LayerClock", result) -> None:
    _served(clock, result.metrics)


def _exported(clock: "LayerClock", text: str) -> None:
    clock.tally["trace.export_bytes"] += len(text.encode())


def _looked_up(clock: "LayerClock", value) -> None:
    clock.tally["cache.gets"] += 1
    clock.tally["cache.hits"] += int(value is not None)


def _session_done(clock: "LayerClock", session) -> None:
    # Worker-side time and trace export are invisible to the wrappers;
    # the session hands both back on the runs it computed.
    for run in session.runs:
        if run.from_cache:
            continue
        clock.tally["bench.worker_wall_s"] += run.wall_s
        for text in (run.trace_jsonl, run.trace_csv):
            if text is not None:
                _exported(clock, text)


#: Entry point -> what its result adds to the layer's extra metrics.
_OBSERVERS: Dict[str, Callable] = {
    "repro.rewrite.prove:prove_candidate": _accepted,
    "repro.workload.scheduler:WorkloadScheduler.run": _served,
    "repro.cluster.scheduler:ClusterScheduler.run": _cluster_served,
    "repro.trace.exporters:to_jsonl": _exported,
    "repro.trace.exporters:to_csv": _exported,
    "repro.cache.store:MemoStore.get": _looked_up,
    "repro.bench.parallel:run_session": _session_done,
}


class LayerClock:
    """Calls and self time per layer, plus the tallies behind the extras."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.tally: Dict[str, float] = {
            "rewrite.proofs": 0,
            "rewrite.accepted": 0,
            "workload.scheduler.queries": 0,
            "trace.export_bytes": 0,
            "cache.gets": 0,
            "cache.hits": 0,
            "bench.worker_wall_s": 0.0,
        }
        # One slot per open span: the time its nested wrapped spans took.
        self._nested: List[float] = []

    def wrap(self, layer: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        nested = self._nested

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            nested.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[layer] += elapsed - nested.pop()
                self.calls[layer] += 1
                if nested:
                    nested[-1] += elapsed
            if observe is not None:
                observe(self, result)
            return result

        return timed

    def metrics(self, pass_s: float, memo_hits: int, memo_misses: int) -> Dict[str, float]:
        """The per-layer table of one pass that took ``pass_s`` seconds."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.share"] = self.self_s[layer] / pass_s
        tally = self.tally
        loop_s = self.self_s["workload.scheduler"] + self.self_s["cluster"]
        out["memo.hit_frac"] = _ratio(memo_hits, memo_hits + memo_misses)
        out["rewrite.accepted_frac"] = _ratio(
            tally["rewrite.accepted"], tally["rewrite.proofs"]
        )
        out["workload.scheduler.queries"] = tally["workload.scheduler.queries"]
        out["workload.scheduler.sim_qps"] = _ratio(
            tally["workload.scheduler.queries"], loop_s
        )
        out["trace.export_bytes"] = tally["trace.export_bytes"]
        out["cache.hit_frac"] = _ratio(tally["cache.hits"], tally["cache.gets"])
        out["bench.worker_wall_s"] = tally["bench.worker_wall_s"]
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _overriders(cls: type, attr: str) -> List[type]:
    """``cls`` and every subclass that defines its own ``attr``."""
    found, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if attr in vars(klass):
            found.append(klass)
        todo.extend(klass.__subclasses__())
    return found


def install(clock: LayerClock) -> None:
    """Replace every entry point in :data:`LAYERS` with a wrapper on ``clock``.

    Installation is permanent for the process: the benchmark installs it in
    a child that exits after its one timed pass.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    sites = [
        module
        for name, module in list(sys.modules.items())
        if name.split(".")[0] in _IMPORT_SITES and module is not None
    ]
    for layer, targets in LAYERS.items():
        for target in targets:
            owner, attr = _resolve(target)
            observe = _OBSERVERS.get(target)
            if isinstance(owner, type):
                for cls in _overriders(owner, attr):
                    setattr(cls, attr, clock.wrap(layer, vars(cls)[attr], observe))
                continue
            original = getattr(owner, attr)
            wrapped = clock.wrap(layer, original, observe)
            for module in sites:
                names = [n for n, v in vars(module).items() if v is original]
                for name in names:
                    setattr(module, name, wrapped)
