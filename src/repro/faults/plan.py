"""Typed fault plans: what goes wrong, when, and how badly.

A :class:`FaultPlan` is a frozen, seeded description of the failure modes
one serving run is subjected to.  Every spec models a hazard the SGXv2
hardware actually exhibits under load:

* **AEX_STORM** — asynchronous exits (interrupts, timer ticks) force an
  enclave exit/re-entry per event; a storm inflates every service time
  dispatched inside its window (the paper's Sec. 3 interrupt effects).
* **EDMM_DENIED** — an ``EAUG``/``EACCEPT`` growth request fails under EPC
  pressure: :meth:`repro.enclave.enclave.Enclave.grow` raises
  :class:`~repro.errors.CapacityError`, so an overflow admission aborts
  instead of paying the Fig. 11 penalty.
* **ENCLAVE_CRASH** — the enclave aborts mid-service (a fatal fault, a
  killed host thread) and must be torn down and re-initialized; the query
  dies partway through and the re-init cost delays any retry.
* **EPC_SQUEEZE** — a co-tenant grabs EPC for a window: the serving
  budget shrinks by a factor, so working sets that fit before now
  overflow (or, with graceful degradation, re-admit at a reduced
  reservation).
* **POISON_JOB** — one template deterministically fails every attempt (a
  miscompiled kernel, a plan that faults in-enclave); the breaker is the
  only mitigation that helps.
* **STORAGE_STALL** — the untrusted block layer degrades for a window (a
  co-tenant saturating the device, a firmware hiccup): every sealed
  spill/re-scan dispatched inside the window takes ``magnitude`` times
  longer.  Only queries on the spill path feel it.
* **TORN_BLOCK** — a sealed block fails its AES-GCM tag check on unseal
  (torn write, bit rot): the attempt aborts and must retry; drawn
  per-attempt by decision identity like crashes and EDMM denials.

Plans are *data*: frozen dataclasses of primitives, hashable by
:func:`repro.cache.keys.canonical`, picklable into worker processes, and
drawn from by the injector through order-independent hashed draws — two
runs of the same plan are bit-identical regardless of scheduling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ConfigurationError


class FaultKind(enum.Enum):
    """What a single fault spec injects."""

    AEX_STORM = "aex_storm"
    EDMM_DENIED = "edmm_denied"
    ENCLAVE_CRASH = "enclave_crash"
    EPC_SQUEEZE = "epc_squeeze"
    POISON_JOB = "poison_job"
    STORAGE_STALL = "storage_stall"
    TORN_BLOCK = "torn_block"


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure mode, active inside ``[start_s, end_s)``.

    ``magnitude`` is kind-specific: the AEX service-time multiplier
    (>= 1), or the EPC budget multiplier (in (0, 1]) for a squeeze.
    ``probability`` gates per-attempt draws (crash, EDMM denial);
    ``template`` names the poisoned job; ``reinit_s`` is the enclave
    teardown + re-init cost a crash charges before a retry can land.
    """

    kind: FaultKind
    start_s: float = 0.0
    end_s: float = math.inf
    magnitude: float = 1.0
    probability: float = 1.0
    template: str = ""
    reinit_s: float = 0.0

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ConfigurationError(
                f"fault window [{self.start_s}, {self.end_s}) is empty"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability {self.probability} outside [0, 1]"
            )
        if self.kind is FaultKind.AEX_STORM and self.magnitude < 1.0:
            raise ConfigurationError("an AEX storm cannot speed services up")
        if self.kind is FaultKind.EPC_SQUEEZE and not 0.0 < self.magnitude <= 1.0:
            raise ConfigurationError(
                "an EPC squeeze multiplier must be in (0, 1]"
            )
        if self.kind is FaultKind.POISON_JOB and not self.template:
            raise ConfigurationError("a poison fault needs a template name")
        if self.kind is FaultKind.ENCLAVE_CRASH and self.reinit_s < 0:
            raise ConfigurationError("re-init cost must be non-negative")
        if self.kind is FaultKind.STORAGE_STALL and self.magnitude < 1.0:
            raise ConfigurationError(
                "a storage stall cannot speed the spill path up"
            )

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault specs (empty plan = no faults)."""

    name: str
    seed: int = 23
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a fault plan needs a name")

    @property
    def empty(self) -> bool:
        return not self.specs

    def of_kind(self, kind: FaultKind) -> Tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs if spec.kind is kind)

    def window_edges(self, duration_s: float) -> Tuple[float, ...]:
        """Window boundaries within ``[0, duration_s]`` (dispatch wake-ups).

        Only edges that change *admission* state matter: an EPC squeeze
        ending frees budget that can admit queued queries, so the
        scheduler must re-run dispatch at that instant even if no other
        event lands there.
        """
        edges = set()
        for spec in self.of_kind(FaultKind.EPC_SQUEEZE):
            for edge in (spec.start_s, spec.end_s):
                if 0.0 < edge <= duration_s:
                    edges.add(edge)
        return tuple(sorted(edges))


#: The canonical no-fault plan (the explicit way to pin a baseline arm
#: against any session-level ``--faults`` override).
NO_FAULTS = FaultPlan(name="none", specs=())


def fault_plans() -> Dict[str, FaultPlan]:
    """The named plans ``--faults`` can select.

    Windows are absolute simulated seconds, sized for the wl experiments'
    quick-fidelity runs (a few simulated minutes); the ``chaos`` plan
    composes every hazard at once.
    """
    aex = FaultSpec(
        FaultKind.AEX_STORM, start_s=2.0, end_s=6.0, magnitude=2.0
    )
    edmm = FaultSpec(FaultKind.EDMM_DENIED, probability=0.5)
    crash = FaultSpec(
        FaultKind.ENCLAVE_CRASH, probability=0.03, reinit_s=0.5
    )
    squeeze = FaultSpec(
        FaultKind.EPC_SQUEEZE, start_s=1.0, end_s=8.0, magnitude=0.5
    )
    poison = FaultSpec(FaultKind.POISON_JOB, template="q3")
    stall = FaultSpec(
        FaultKind.STORAGE_STALL, start_s=2.0, end_s=8.0, magnitude=4.0
    )
    torn = FaultSpec(FaultKind.TORN_BLOCK, probability=0.05)
    return {
        NO_FAULTS.name: NO_FAULTS,
        "aex-storm": FaultPlan(name="aex-storm", specs=(aex,)),
        "edmm-denied": FaultPlan(name="edmm-denied", specs=(edmm,)),
        "enclave-crash": FaultPlan(name="enclave-crash", specs=(crash,)),
        "epc-squeeze": FaultPlan(name="epc-squeeze", specs=(squeeze,)),
        "poison": FaultPlan(name="poison", specs=(poison,)),
        "storage-stall": FaultPlan(name="storage-stall", specs=(stall,)),
        "torn-block": FaultPlan(name="torn-block", specs=(torn,)),
        "chaos": FaultPlan(
            name="chaos", specs=(aex, edmm, crash, squeeze, poison)
        ),
        # Storage hazards only bite runs with a --storage budget; a
        # separate composite keeps the classic chaos plan's results
        # byte-stable for existing experiments.
        "storage-chaos": FaultPlan(
            name="storage-chaos", specs=(stall, torn)
        ),
    }


def get_fault_plan(name: str) -> FaultPlan:
    """The named plan (or raise with the known names)."""
    plans = fault_plans()
    try:
        return plans[name]
    except KeyError:
        known = ", ".join(sorted(plans))
        raise ConfigurationError(
            f"unknown fault plan {name!r}; known: {known}"
        ) from None
