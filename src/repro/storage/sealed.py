"""The sealed store: per-block seal/unseal/IO pricing for spilled data.

Data leaving the enclave for untrusted storage is *sealed* — AES-GCM
encrypted and MACed with an enclave-held key — and unsealed (decrypted +
tag-verified) on the way back, following the per-block cost model of
"Securing the Storage Data Path with SGX Enclaves".  Three calibrated
per-byte constants price the path (:class:`~repro.hardware.calibration.
CostParameters`: ``seal_cycles_per_byte``, ``unseal_cycles_per_byte``,
``storage_io_cycles_per_byte``), and every block additionally pays one
enclave transition (the OCALL that hands the ciphertext to the untrusted
block layer), so small blocks are visibly worse than large ones.

The store only *prices* and *counts* — spilled payloads themselves stay
ordinary numpy arrays held by the operators, because the simulator's
sealing has no behavioral effect on results (bag-identity with in-memory
variants is the correctness gate).
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ConfigurationError
from repro.hardware.calibration import CostParameters
from repro.memory.access import AccessProfile
from repro.storage.config import DEFAULT_BLOCK_BYTES


class SealedStore:
    """Prices sealed block traffic and counts what operators seal and
    unseal through :meth:`charge_seal`/:meth:`charge_unseal`."""

    def __init__(
        self,
        params: CostParameters,
        *,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ) -> None:
        if not params.sealing_enabled:
            raise ConfigurationError(
                "this calibration does not price the sealed storage path "
                "(seal_cycles_per_byte is 0)"
            )
        if block_bytes < 1:
            raise ConfigurationError("block_bytes must be positive")
        self.params = params
        self.block_bytes = block_bytes
        self.sealed_bytes = 0.0
        self.unsealed_bytes = 0.0
        self.sealed_blocks = 0
        self.unsealed_blocks = 0

    # -- pricing ---------------------------------------------------------

    def blocks_for(self, num_bytes: float) -> int:
        """Number of sealed blocks ``num_bytes`` occupies (ceiling)."""
        if num_bytes < 0:
            raise ConfigurationError("byte count must be non-negative")
        return max(1, -(-int(num_bytes) // self.block_bytes)) if num_bytes else 0

    def _cycles(
        self, num_bytes: float, cycles_per_byte: float, blocks: int
    ) -> float:
        """Crypto plus storage I/O per byte, one transition per block."""
        params = self.params
        return (
            num_bytes * (cycles_per_byte + params.storage_io_cycles_per_byte)
            + blocks * params.transition_cycles
        )

    def seal_cycles(self, num_bytes: float) -> float:
        """Cycles to seal ``num_bytes`` out to untrusted storage."""
        return self._cycles(
            num_bytes,
            self.params.seal_cycles_per_byte,
            self.blocks_for(num_bytes),
        )

    def unseal_cycles(self, num_bytes: float) -> float:
        """Cycles to read ``num_bytes`` back in and unseal them."""
        return self._cycles(
            num_bytes,
            self.params.unseal_cycles_per_byte,
            self.blocks_for(num_bytes),
        )

    def spill_cycles(self, num_bytes: float) -> Tuple[float, float]:
        """(seal, unseal) cycles for spilling ``num_bytes`` once."""
        blocks = self.blocks_for(num_bytes)
        params = self.params
        return (
            self._cycles(num_bytes, params.seal_cycles_per_byte, blocks),
            self._cycles(num_bytes, params.unseal_cycles_per_byte, blocks),
        )

    def roundtrip_cycles(self, num_bytes: float) -> float:
        """Seal + unseal cycles for spilling ``num_bytes`` once."""
        seal, unseal = self.spill_cycles(num_bytes)
        return seal + unseal

    # -- charging --------------------------------------------------------

    def charge_seal(
        self,
        profile: AccessProfile,
        num_bytes: float,
        *,
        threads: int = 1,
        label: str = "seal",
    ) -> float:
        """Charge a seal of ``num_bytes`` to ``profile``; returns cycles.

        ``profile`` is treated as one thread's profile of a
        ``threads``-wide phase (the executor replicates it), so the cycles
        are the per-thread share while the traffic counters record the
        whole ``num_bytes``.
        """
        cycles = self.seal_cycles(num_bytes / max(1, threads))
        profile.compute(cycles, label=label)
        self.sealed_bytes += num_bytes
        self.sealed_blocks += self.blocks_for(num_bytes)
        return cycles

    def charge_unseal(
        self,
        profile: AccessProfile,
        num_bytes: float,
        *,
        threads: int = 1,
        label: str = "unseal",
    ) -> float:
        """Charge an unseal of ``num_bytes`` to ``profile`` (see seal)."""
        cycles = self.unseal_cycles(num_bytes / max(1, threads))
        profile.compute(cycles, label=label)
        self.unsealed_bytes += num_bytes
        self.unsealed_blocks += self.blocks_for(num_bytes)
        return cycles


class SpillModel:
    """Wall-clock pricing of admission-time spills for the scheduler.

    The serving scheduler reasons in seconds, not cycles, and has no
    frequency of its own — so the engine bakes one in here once per run.
    When an admitted query's working set exceeds the EPC budget and a
    sealed-storage budget is installed, the overflowing share is sealed
    out at dispatch and unsealed back during service: the scheduler calls
    :meth:`charge` with the overflow bytes and adds the returned seal +
    unseal seconds to the service time instead of the EDMM/paging
    collapse penalty.  The scheduler counts its spills itself
    (``SchedulerCounters.spills``/``spilled_bytes``), so :meth:`charge`
    leaves the wrapped :class:`SealedStore`'s counters alone.
    """

    def __init__(self, store: SealedStore, frequency_hz: float) -> None:
        if frequency_hz <= 0:
            raise ConfigurationError("frequency must be positive")
        self.store = store
        self.frequency_hz = float(frequency_hz)

    def charge(self, num_bytes: float) -> Tuple[float, float]:
        """Price one spill of ``num_bytes``; returns (seal_s, unseal_s)."""
        seal, unseal = self.store.spill_cycles(num_bytes)
        return seal / self.frequency_hz, unseal / self.frequency_hz
