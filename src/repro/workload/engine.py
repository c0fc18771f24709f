"""The serving engine: workload config in, serving metrics out.

:class:`ServingEngine` is the layer the wl experiments (and every future
scaling PR) drive: it resolves each stream's templates through the catalog
into priced :class:`~repro.workload.jobs.JobCost` entries for the chosen
execution setting, constructs the admission policy, and hands everything to
the event-loop scheduler.  The EPC budget defaults to the machine's
per-socket EPC (Table 1: 64 GB) for enclave settings and is unlimited for
plain-CPU serving — native execution has no EPC to exhaust.

Typical use::

    catalog = JobCatalog(quick=True)
    engine = ServingEngine(catalog)
    metrics = engine.run(WorkloadConfig(
        setting=ExecutionSetting.sgx_data_in_enclave(),
        open_streams=(OpenLoopStream("tenant-a", qps=8.0, mix=mix, seed=3),),
        duration_s=30.0,
        policy="epc-aware",
    ))
    print(metrics.latency_percentile_s(99))
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.enclave.runtime import ExecutionSetting
from repro.errors import ConfigurationError
from repro.faults.injector import make_injector
from repro.faults.plan import FaultPlan
from repro.faults.resilience import ResiliencePolicy
from repro.planner import (
    ArmCost,
    CostSelector,
    EpsilonGreedySelector,
    OracleSelector,
    Planner,
    PlanSelector,
    validate_mode,
)
from repro.runconfig import RunConfig, current_run_config, use_run_config
from repro.workload.generators import ClosedLoopStream, OpenLoopStream
from repro.workload.jobs import JobCatalog, JobCost, JobTemplate
from repro.workload.metrics import WorkloadMetrics
from repro.workload.policies import make_policy
from repro.workload.scheduler import WorkloadScheduler

#: Default core pool: one socket of the paper's testbed.
DEFAULT_CORES = 16


@dataclass(frozen=True)
class WorkloadConfig:
    """One serving scenario: streams, setting, resources, policy."""

    setting: ExecutionSetting
    open_streams: Tuple[OpenLoopStream, ...] = ()
    closed_streams: Tuple[ClosedLoopStream, ...] = ()
    duration_s: float = 30.0
    cores: int = DEFAULT_CORES
    policy: str = "fifo"
    bypass_bytes: Optional[int] = None  # small-query lane threshold
    epc_budget_bytes: Optional[float] = None  # None: socket EPC (or inf, plain)
    #: None defers to the ambient run config (``--faults``); an explicit
    #: plan — including :data:`~repro.faults.NO_FAULTS` — pins this config
    #: regardless of context (wl04 pins all three of its arms).
    faults: Optional[FaultPlan] = None
    resilience: Optional[ResiliencePolicy] = None
    #: None defers to the ambient run config (``--planner``); an explicit
    #: mode — including ``"static"`` — pins this config regardless of
    #: context (wl05 pins all four of its arms).
    planner: Optional[str] = None
    #: How many of the analytically best candidates per template become
    #: bandit/oracle arms in the non-static planner modes.
    plan_top_k: int = 3
    #: Seed of the adaptive selector's exploration draws; None defers to
    #: the session seed (``--seed``), which is what makes ``--planner
    #: adaptive --seed N`` reproducible across serial/parallel/cached runs.
    plan_seed: Optional[int] = None
    #: Cluster topology: a :class:`~repro.cluster.ClusterConfig`, a spec
    #: string (``"2x4"``), or ``None`` to defer to the ambient run config
    #: (``--cluster``).  With a cluster in effect the engine serves
    #: through :class:`~repro.cluster.ClusterScheduler`:
    #: per-shard cores and EPC budgets come from the shard map, not from
    #: ``cores``/``epc_budget_bytes`` (an explicit ``epc_budget_bytes``
    #: applies per shard).
    cluster: Optional[object] = None
    #: Sealed-storage budget: a :class:`~repro.storage.StorageConfig`, a
    #: spec string (``"2G"`` or ``"2G:1M"``), or ``None`` to defer to the
    #: ambient run config (``--storage``).  With one in effect the
    #: serving budget is clamped to the storage budget and overflow
    #: admissions spill their overflowing share to sealed untrusted
    #: storage (priced seal/unseal traffic) instead of paying the
    #: EDMM/paging penalty.
    storage: Optional[object] = None
    #: Logical rewrite mode: ``"off"``/``"prove"``/``"race"``/``"learned"``,
    #: or ``None`` to defer to the ambient run config (``--rewrite``).
    #: Active modes prove (and race) rewrite candidates while the planner
    #: builds its arms; ``"learned"`` additionally adds each TPC-H
    #: template's proven-and-priced winner to the bandit's arm set.
    #: Rewriting rides the planner's arm machinery, so it takes a
    #: non-static ``planner`` mode to serve a learned rewrite.
    rewrite: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.open_streams and not self.closed_streams:
            raise ConfigurationError("a workload needs at least one stream")
        names = [s.name for s in self.open_streams + self.closed_streams]
        if len(set(names)) != len(names):
            raise ConfigurationError("stream names must be unique")
        if self.planner is not None:
            validate_mode(self.planner)
        if self.rewrite is not None:
            from repro.rewrite.config import validate_mode as validate_rewrite

            validate_rewrite(self.rewrite)
        if self.plan_top_k < 1:
            raise ConfigurationError("plan_top_k must be >= 1")

    def template_names(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for stream in self.open_streams + self.closed_streams:
            for name in stream.mix.template_names:
                seen.setdefault(name, None)
        return tuple(seen)


#: The :class:`~repro.runconfig.RunConfig` fields a workload can pin: the
#: ones :class:`WorkloadConfig` has a same-named field for.
_PINNABLE = tuple(
    field.name
    for field in dataclasses.fields(RunConfig)
    if field.name in {f.name for f in dataclasses.fields(WorkloadConfig)}
)


class ServingEngine:
    """Prices a workload's templates and serves it over simulated time."""

    def __init__(
        self,
        catalog: JobCatalog,
        templates: Optional[Mapping[str, JobTemplate]] = None,
    ) -> None:
        from repro.workload.jobs import serving_templates

        from repro.planner.stats import QErrorTracker

        self.catalog = catalog
        self.templates = dict(templates) if templates is not None else serving_templates()
        #: Engine-lifetime cardinality feedback: proofs run while arms are
        #: planned observe executed cardinalities here, so later runs (and
        #: re-plans) of the same engine price rewrites with shrinking
        #: Q-error.  Only ever touched under an active rewrite mode.
        self.qerror = QErrorTracker()

    def costs_for(self, config: WorkloadConfig) -> Dict[str, JobCost]:
        """Priced costs of every template the config's streams reference."""
        costs: Dict[str, JobCost] = {}
        for name in config.template_names():
            try:
                template = self.templates[name]
            except KeyError:
                known = ", ".join(sorted(self.templates))
                raise ConfigurationError(
                    f"workload references unknown template {name!r}; "
                    f"known: {known}"
                ) from None
            costs[name] = self.catalog.cost(template, config.setting)
        return costs

    def epc_budget(
        self, config: WorkloadConfig, epc_bytes: Optional[float] = None
    ) -> float:
        """The effective EPC budget for this config: the explicit one,
        unlimited for plain-CPU serving, else ``epc_bytes`` (default: one
        socket's EPC)."""
        if config.epc_budget_bytes is not None:
            return float(config.epc_budget_bytes)
        if not config.setting.data_in_enclave:
            return math.inf
        if epc_bytes is None:
            machine = self.catalog.machine_prototype()
            epc_bytes = machine.topology.node(0).epc_bytes
        return float(epc_bytes)

    def run_config_of(self, config: WorkloadConfig) -> RunConfig:
        """The ambient run config with ``config``'s explicit pins applied."""
        run = current_run_config()
        pins = {
            name: getattr(config, name)
            for name in _PINNABLE
            if getattr(config, name) is not None
        }
        return dataclasses.replace(run, **pins) if pins else run

    def plan_arms(self, config: WorkloadConfig) -> Dict[str, Tuple[ArmCost, ...]]:
        """Per-template bandit/oracle arms: the top-k candidates, priced.

        The planner ranks each template's candidate space analytically;
        the catalog then prices the surviving arms through the real
        operators (one run each, cached), so every arm carries the same
        measured service time and EPC working set a static profile would.
        Arms are handed to the selectors best-first.

        Under an active rewrite mode, each TPC-H template's logical
        rewrite candidates are additionally proven (and, beyond
        ``prove``, raced) right here — ``rewrite.*`` trace events land in
        the caller's tracer — and ``learned`` appends the winning
        rewrite, priced at the template's static physical plan with its
        knob hints applied, as one more arm (labelled ``rw:...``, never
        colliding with the physical arms' labels).
        """
        budget = self.epc_budget(config)
        run = self.run_config_of(config)
        storage = run.storage
        planner = Planner(
            self.catalog.machine_prototype(),
            config.setting,
            epc_budget_bytes=None if math.isinf(budget) else budget,
            cores=config.cores,
            pricing_seed=self.catalog.pricing_seed,
            storage=storage,
        )
        arms: Dict[str, Tuple[ArmCost, ...]] = {}
        # Pricing spill arms goes through the catalog, which resolves the
        # storage budget ambiently — install the config's own (possibly
        # pinned) settings for the pricing scope.
        with use_run_config(run):
            for name in config.template_names():
                template = self.templates[name]
                arm_list = []
                for candidate in planner.top_k(template, config.plan_top_k):
                    cost = self.catalog.candidate_cost(
                        template, config.setting, candidate
                    )
                    arm_list.append(
                        ArmCost(
                            candidate=candidate,
                            label=candidate.label(template.threads),
                            service_s=cost.service_s,
                            working_set_bytes=cost.working_set_bytes,
                        )
                    )
                if run.rewrite != "off":
                    from repro.rewrite.race import plan_rewrites

                    decision = plan_rewrites(
                        template,
                        run.rewrite,
                        self.catalog.machine_prototype(),
                        config.setting,
                        tracker=self.qerror,
                    )
                    if run.rewrite == "learned" and decision.winner is not None:
                        winner = decision.winner
                        arm_list.append(
                            ArmCost(
                                candidate=winner.physical,
                                label=winner.candidate.label(),
                                service_s=winner.seconds,
                                working_set_bytes=winner.working_set_bytes,
                            )
                        )
                arms[name] = tuple(arm_list)
        return arms

    def _make_selector(
        self, config: WorkloadConfig, mode: str
    ) -> Optional[PlanSelector]:
        if mode == "static":
            return None
        arms = self.plan_arms(config)
        if mode == "cost":
            return CostSelector(arms)
        if mode == "oracle":
            return OracleSelector(arms)
        from repro.bench.runner import DEFAULT_BASE_SEED

        seed = (
            config.plan_seed
            if config.plan_seed is not None
            else DEFAULT_BASE_SEED
        )
        return EpsilonGreedySelector(arms, seed=seed)

    def _make_spill(self, storage):
        """A :class:`~repro.storage.SpillModel` priced for this machine."""
        if storage is None:
            return None
        from repro.storage.sealed import SealedStore, SpillModel

        machine = self.catalog.machine_prototype()
        store = SealedStore(machine.params, block_bytes=storage.block_bytes)
        return SpillModel(store, machine.spec.base_frequency_hz)

    def _scheduler(
        self,
        config: WorkloadConfig,
        run: RunConfig,
        costs: Dict[str, JobCost],
        shard=None,
    ) -> WorkloadScheduler:
        """One solo or shard scheduler with its own admission policy, fault
        injector, plan selector and spill model.  A shard serves its shard
        map slice of cores and EPC and takes a disjoint query-id range, so
        merged records never collide."""
        from repro.cluster.scheduler import QUERY_ID_STRIDE

        budget = self.epc_budget(
            config, None if shard is None else shard.epc_budget_bytes
        )
        if run.storage is not None:
            # The storage budget caps the in-enclave working-set share:
            # anything beyond it takes the sealed spill path, which is
            # what lets ``--storage 2G`` force the spill regime on a
            # machine whose physical EPC would otherwise absorb it.  Each
            # shard spills against its own slice; the ``shard`` attr on
            # its storage.* events keeps local spill traffic apart from
            # re-shard shuffles (``ClusterResult.shuffle_s``).
            budget = min(budget, float(run.storage.budget_bytes))
        return WorkloadScheduler(
            costs,
            make_policy(config.policy, bypass_bytes=config.bypass_bytes),
            cores=config.cores if shard is None else shard.cores,
            epc_budget_bytes=budget,
            setting_label=config.setting.label,
            injector=make_injector(run.faults),
            resilience=config.resilience,
            selector=self._make_selector(config, run.planner),
            storage=self._make_spill(run.storage),
            shard="" if shard is None else shard.label,
            query_id_base=(
                0 if shard is None else shard.shard_id * QUERY_ID_STRIDE
            ),
        )

    def run(self, config: WorkloadConfig) -> WorkloadMetrics:
        """Serve ``config`` to completion and return its metrics."""
        run = self.run_config_of(config)
        if run.cluster is not None:
            return self.run_cluster(config).metrics
        scheduler = self._scheduler(config, run, self.costs_for(config))
        return scheduler.run(
            open_streams=config.open_streams,
            closed_streams=config.closed_streams,
            duration_s=config.duration_s,
        )

    def run_cluster(self, config: WorkloadConfig):
        """Serve ``config`` over its shard map; returns the full
        :class:`~repro.cluster.ClusterResult` (merged metrics plus the
        routing layer's activity — :meth:`run` keeps only the metrics).
        """
        from repro.cluster.scheduler import ClusterScheduler

        run = self.run_config_of(config)
        if run.cluster is None:
            raise ConfigurationError("run_cluster needs a cluster config")
        machine = self.catalog.machine_prototype()
        shards = run.cluster.spec.shards(machine.spec)
        costs = self.costs_for(config)
        scheduler = ClusterScheduler(
            cluster=run.cluster,
            shards=shards,
            schedulers=[
                self._scheduler(config, run, costs, shard) for shard in shards
            ],
            costs=costs,
            spec=machine.spec,
            params=machine.params,
        )
        return scheduler.run(
            open_streams=config.open_streams,
            closed_streams=config.closed_streams,
            duration_s=config.duration_s,
        )
