"""The engine-level SGX cost envelope.

The paper prices *operators* inside SGXv2; its closest relatives
(DuckDB-SGX2, Polars-inside-SGX2) run *whole engines* in enclaves and
observe a different overhead shape: the enclave pre-touches its committed
heap at init, the engine's buffer pool and hash tables page against the
EPC, and vectorized pipelines still pay the random-access decrypt latency
on their probe-heavy phases.  :class:`SgxCostEnvelope` reproduces that
shape on top of a *calibrated* engine profile:

* **plain seconds** — the engine's measured wall-clock on the physical
  stand-in data, scaled to the template's logical size (the same
  physical-sample-to-logical-cost scaling every simulator operator uses);
* **enclave init** — first-touching the engine's working set out of the
  statically committed heap (``static_page_touch_cycles`` per 4 KiB page
  plus one transition pair), the DuckDB-SGX2 startup term;
* **in-enclave execution** — the plain seconds under the calibrated
  sequential/random access penalty mix
  (:class:`~repro.memory.encryption.MemoryEncryptionEngine`, so the
  size-dependent penalty curve is shared with the operator model);
* **EPC paging** — on SGXv1-class platforms, the working-set share past
  ``epc_effective_bytes`` faults through the kernel; random-heavy
  engines re-fault evicted pages.

Everything is priced from the checked-in calibration artifact plus the
existing calibration constants — no live engine runs — so engine-priced
arms are as byte-deterministic as simulated ones.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.machine import SimMachine
from repro.memory.access import CodeVariant, PatternKind
from repro.memory.encryption import MemoryEncryptionEngine
from repro.units import PAGE_BYTES
from repro.workload.jobs import JobKind, JobTemplate

#: Checked-in calibration artifact (regenerate with
#: ``python -m repro.backends.calibrate``).
PROFILES_PATH = pathlib.Path(__file__).parent / "profiles.json"

#: Artifact schema version.
PROFILES_FORMAT = 1

#: Share of an engine's execution time spent in random (pointer-chasing)
#: access, per job kind.  Modeling choices, not measurements: scans
#: stream; hash joins probe; the TPC-H plans mix both (the DuckDB-SGX2
#: observation that vectorized pipelines are probe-bound on these
#: queries).
RANDOM_FRACTION: Mapping[JobKind, float] = {
    JobKind.SCAN: 0.05,
    JobKind.JOIN: 0.45,
    JobKind.TPCH: 0.35,
}

#: Engine working set as a multiple of the base data: buffer pool, hash
#: tables, and intermediates on top of the columns themselves.
WORKING_SET_FACTOR: Mapping[JobKind, float] = {
    JobKind.SCAN: 1.05,
    JobKind.JOIN: 1.8,
    JobKind.TPCH: 1.6,
}


@dataclass(frozen=True)
class EngineProfile:
    """One calibrated (backend, template) measurement from the artifact."""

    backend: str
    template: str
    kind: str  # JobKind value ("tpch"/"join"/"scan")
    prepare_s: float
    execute_s: float  # wall-clock at the captured physical caps
    rows: int
    physical_bytes: int
    logical_bytes: float
    bag_digest: str
    row_cap: int
    sf_cap: float
    pricing_seed: int


@dataclass(frozen=True)
class EnvelopeCost:
    """One engine-in-enclave pricing: the three envelope terms + plain."""

    backend: str
    template: str
    plain_s: float  # engine at logical scale, no enclave
    init_s: float  # enclave heap pre-touch + transition pair
    execute_s: float  # plain_s under the access-penalty mix
    paging_s: float  # EPC overflow faults (SGXv1-class platforms)
    working_set_bytes: int
    random_fraction: float

    @property
    def in_enclave_s(self) -> float:
        """Total engine-in-enclave seconds."""
        return self.init_s + self.execute_s + self.paging_s

    @property
    def overhead(self) -> float:
        """Engine-in-enclave over plain engine (the ext08 metric)."""
        return self.in_enclave_s / self.plain_s

    def as_event_attrs(self) -> Dict[str, float]:
        """Deterministic attributes for ``backend.envelope`` events."""
        return {
            "backend": self.backend,
            "template": self.template,
            "plain_s": self.plain_s,
            "init_s": self.init_s,
            "execute_s": self.execute_s,
            "paging_s": self.paging_s,
            "working_set_bytes": self.working_set_bytes,
        }


def load_profiles(
    path: Optional[pathlib.Path] = None,
) -> Dict[Tuple[str, str], EngineProfile]:
    """The calibration artifact as ``(backend, template) -> profile``."""
    path = PROFILES_PATH if path is None else pathlib.Path(path)
    if not path.exists():
        raise ConfigurationError(
            f"no engine calibration artifact at {path}; capture one with "
            "'python -m repro.backends.calibrate'"
        )
    payload = json.loads(path.read_text())
    if payload.get("format") != PROFILES_FORMAT:
        raise ConfigurationError(
            f"calibration artifact {path} has format "
            f"{payload.get('format')!r}, expected {PROFILES_FORMAT}; "
            "re-capture with 'python -m repro.backends.calibrate'"
        )
    profiles: Dict[Tuple[str, str], EngineProfile] = {}
    for entry in payload["profiles"]:
        profile = EngineProfile(**entry)
        profiles[(profile.backend, profile.template)] = profile
    return profiles


def get_profile(
    backend: str,
    template: JobTemplate,
    profiles: Optional[Dict[Tuple[str, str], EngineProfile]] = None,
) -> EngineProfile:
    """The artifact profile for ``(backend, template)`` (or raise)."""
    table = load_profiles() if profiles is None else profiles
    try:
        return table[(backend, template.name)]
    except KeyError:
        known = ", ".join(
            sorted(f"{b}/{t}" for b, t in table)
        ) or "none"
        raise ConfigurationError(
            f"no calibrated profile for backend {backend!r}, template "
            f"{template.name!r}; calibrated: {known}; capture one with "
            "'python -m repro.backends.calibrate'"
        ) from None


class SgxCostEnvelope:
    """Price engine-in-enclave arms from calibrated profiles."""

    def __init__(self, machine: Optional[SimMachine] = None) -> None:
        self._machine = machine if machine is not None else SimMachine()
        self._mee = MemoryEncryptionEngine(
            self._machine.params, self._machine.spec.l3_per_socket_bytes
        )

    def price(
        self, profile: EngineProfile, template: JobTemplate
    ) -> EnvelopeCost:
        """The envelope terms of ``template`` on ``profile``'s engine."""
        if profile.template != template.name:
            raise ConfigurationError(
                f"profile {profile.template!r} does not price template "
                f"{template.name!r}"
            )
        if profile.physical_bytes <= 0 or profile.execute_s <= 0:
            raise ConfigurationError(
                f"profile {profile.backend}/{profile.template} carries no "
                "usable measurement (re-capture the artifact)"
            )
        params = self._machine.params
        frequency = self._machine.frequency_hz
        # Measured wall-clock on the physical sample, scaled to the
        # template's logical bytes — the same physical-to-logical scaling
        # the simulator applies via sim_scale.
        scale = profile.logical_bytes / float(profile.physical_bytes)
        plain_s = profile.execute_s * scale
        kind = JobKind(profile.kind)
        random_fraction = RANDOM_FRACTION[kind]
        working_set = profile.logical_bytes * WORKING_SET_FACTOR[kind]
        # Enclave init: first touch of every committed page the engine's
        # working set occupies, plus one enter/exit pair.
        pages = math.ceil(working_set / PAGE_BYTES)
        init_s = (
            pages * params.static_page_touch_cycles
            + 2.0 * params.transition_cycles
        ) / frequency
        # Execution under the enclave: streaming share pays the
        # prefetch-hidden linear penalty, random share the size-dependent
        # decrypt latency (shared curve with the operator model).
        sequential = self._mee.sequential_factor(
            PatternKind.SEQ_READ, CodeVariant.SIMD
        )
        random = self._mee.random_read_factor(working_set)
        penalty = (
            (1.0 - random_fraction) * sequential + random_fraction * random
        )
        execute_s = plain_s * penalty
        # EPC paging (SGXv1-class platforms): the overflow share faults in
        # once, and the random share of the work re-faults evicted pages.
        paging_s = 0.0
        if params.epc_paging_enabled and working_set > params.epc_effective_bytes:
            overflow_pages = (
                working_set - params.epc_effective_bytes
            ) / PAGE_BYTES
            refault = 1.0 + 3.0 * random_fraction
            paging_s = (
                overflow_pages * refault * params.epc_page_fault_cycles
            ) / frequency
        return EnvelopeCost(
            backend=profile.backend,
            template=template.name,
            plain_s=plain_s,
            init_s=init_s,
            execute_s=execute_s,
            paging_s=paging_s,
            working_set_bytes=int(working_set),
            random_fraction=random_fraction,
        )
