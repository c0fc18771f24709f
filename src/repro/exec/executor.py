"""Phase-structured parallel execution over the cost model.

The paper's join and scan implementations are bulk-synchronous: threads run
a phase (histogram, partition, build, probe, ...) to completion, meet at a
barrier, and continue.  :class:`ParallelExecutor` prices one phase by
pricing each thread's access profile under a shared
:class:`~repro.memory.cost_model.CostEnvironment` (threads in a phase share
the bandwidth domains) and taking the slowest thread plus the barrier cost.

Threads of one phase differ only by their core's NUMA node, and callers
hand the same profile object to many threads (a uniform phase repeats one
profile per thread).  The stateless cost model gives the same cycles for
the same (profile, node), so each distinct pair is priced once and every
thread with that pair gets the same float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.enclave.runtime import ExecutionSetting
from repro.exec.placement import Placement
from repro.memory.access import AccessProfile
from repro.memory.cost_model import CostEnvironment, MemoryCostModel
from repro.trace.tracer import current_tracer

#: Fixed cycles for one barrier rendezvous, plus a per-thread component.
_BARRIER_BASE_CYCLES = 200.0
_BARRIER_PER_THREAD_CYCLES = 30.0


@dataclass(frozen=True)
class PhaseResult:
    """Timing outcome of one bulk-synchronous phase."""

    name: str
    cycles: float
    per_thread_cycles: Sequence[float]

    @property
    def threads(self) -> int:
        return len(self.per_thread_cycles)

    @property
    def imbalance(self) -> float:
        """Slowest over mean thread time (1.0 = perfectly balanced)."""
        if not self.per_thread_cycles:
            return 1.0
        mean = sum(self.per_thread_cycles) / len(self.per_thread_cycles)
        if mean == 0:
            return 1.0
        return max(self.per_thread_cycles) / mean


@dataclass
class ExecutionTrace:
    """Accumulated phases of one operator run."""

    phases: List[PhaseResult] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        return sum(phase.cycles for phase in self.phases)

    def phase_cycles(self, name: str) -> float:
        """Summed cycles of every phase with ``name``."""
        return sum(p.cycles for p in self.phases if p.name == name)

    def breakdown(self) -> Dict[str, float]:
        """Phase-name -> cycles map (phases with equal names are summed)."""
        result: Dict[str, float] = {}
        for phase in self.phases:
            result[phase.name] = result.get(phase.name, 0.0) + phase.cycles
        return result


class ParallelExecutor:
    """Prices bulk-synchronous phases for a fixed placement and setting."""

    def __init__(
        self,
        cost_model: MemoryCostModel,
        setting: ExecutionSetting,
        placement: Placement,
    ) -> None:
        self.cost_model = cost_model
        self.setting = setting
        self.placement = placement
        self.trace = ExecutionTrace()

    @property
    def threads(self) -> int:
        return self.placement.threads

    def environment(self, thread_index: int, concurrency: Optional[int] = None) -> CostEnvironment:
        """Cost environment for one thread of this executor."""
        return CostEnvironment(
            enclave_mode=self.setting.enclave_mode,
            thread_node=self.placement.node_of(thread_index),
            concurrency=concurrency if concurrency is not None else self.threads,
        )

    def run_phase(
        self,
        name: str,
        thread_profiles: Sequence[AccessProfile],
        *,
        barrier: bool = True,
    ) -> PhaseResult:
        """Price one phase; ``thread_profiles[i]`` ran on placement core i.

        Fewer profiles than threads means the remaining cores idled through
        the phase (they still wait at the barrier).
        """
        if len(thread_profiles) > self.threads:
            raise ExecutionError(
                f"phase {name!r} has {len(thread_profiles)} profiles for "
                f"{self.threads} threads"
            )
        if not thread_profiles:
            raise ExecutionError(f"phase {name!r} has no work")
        concurrency = len(thread_profiles)
        # Keyed by id(): thread_profiles holds every profile for this call.
        priced: Dict[Tuple[int, int], float] = {}
        per_thread = []
        for index, profile in enumerate(thread_profiles):
            key = (id(profile), self.placement.node_of(index))
            if key not in priced:
                env = self.environment(index, concurrency)
                priced[key] = self.cost_model.profile_cycles(profile, env)
            per_thread.append(priced[key])
        cycles = max(per_thread)
        if barrier and self.threads > 1:
            cycles += _BARRIER_BASE_CYCLES + _BARRIER_PER_THREAD_CYCLES * self.threads
        result = PhaseResult(name=name, cycles=cycles, per_thread_cycles=tuple(per_thread))
        tracer = current_tracer()
        if tracer.enabled:
            # Span start is the executor-relative cycle count: phases are
            # bulk-synchronous, so the accumulated total is the phase's
            # begin time on this executor's simulated clock.
            tracer.span(
                name,
                category="operator-phase",
                start=self.trace.total_cycles,
                duration=cycles,
                unit="cycles",
                threads=concurrency,
                imbalance=result.imbalance,
                **self.setting.trace_attrs(),
            )
        self.trace.phases.append(result)
        return result

    def run_uniform_phase(self, name: str, profile: AccessProfile) -> PhaseResult:
        """Price a phase where every thread executes ``profile`` verbatim.

        Used when work is statically split into equal shares: build the
        per-thread share once and replicate it.
        """
        return self.run_phase(name, [profile] * self.threads)

    def total_cycles(self) -> float:
        """Cycles accumulated over all phases run so far."""
        return self.trace.total_cycles
