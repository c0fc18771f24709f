"""Deterministic fault injection and resilience for the serving engine.

The paper measures a steady-state enclave; this package makes the serving
layer survivable when the enclave is *not* steady: seeded, bit-reproducible
injection of the SGXv2 failure modes (AEX interrupt storms, EDMM growth
denial, enclave crashes, EPC squeezes, poisoned jobs) plus the mitigation
machinery — retries with jittered backoff, per-tenant circuit breaking,
and graceful degradation under EPC pressure.  ``wl04`` measures the three
arms (baseline / faults / faults+mitigation) against each other.
"""

from repro.faults.injector import (
    NULL_INJECTOR,
    CrashDraw,
    NullInjector,
    PlanInjector,
    make_injector,
)
from repro.faults.plan import (
    NO_FAULTS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    fault_plans,
    get_fault_plan,
)
from repro.faults.resilience import (
    DEGRADED_SLOWDOWN,
    CircuitBreaker,
    ResiliencePolicy,
)

__all__ = [
    "CircuitBreaker",
    "CrashDraw",
    "DEGRADED_SLOWDOWN",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "NO_FAULTS",
    "NULL_INJECTOR",
    "NullInjector",
    "PlanInjector",
    "ResiliencePolicy",
    "fault_plans",
    "get_fault_plan",
    "make_injector",
]
