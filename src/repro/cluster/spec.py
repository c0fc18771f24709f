"""Cluster topology: how many enclaves, on which sockets and machines.

The paper's Table-1 machine has two sockets; SGXv2 partitions each
socket's EPC independently (64 GiB per socket), so the natural scale-out
unit is *one enclave pinned to a slice of one socket*.  A
:class:`ClusterSpec` names the shape — ``MxSxE`` machines × sockets ×
enclaves-per-socket, or the short ``SxE`` form for a single machine — and
:meth:`ClusterSpec.shards` materialises it against a hardware spec into
concrete :class:`ShardSpec` slices: each shard owns an equal share of its
socket's cores and EPC, mirroring how the paper pins threads to physical
cores from outside the enclave (Sec. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.errors import ConfigurationError
from repro.hardware.spec import HardwareSpec


@dataclass(frozen=True)
class ShardSpec:
    """One enclave shard: its placement and its resource slice."""

    shard_id: int
    machine: int
    socket: int
    enclave: int  # index within the socket
    cores: int
    epc_budget_bytes: float

    @cached_property
    def label(self) -> str:
        """Stable shard name carried in trace attrs and metrics labels
        (every traced route names two shards, so it is built once)."""
        return f"m{self.machine}.s{self.socket}.e{self.enclave}"

    def home_core(self, spec: HardwareSpec) -> int:
        """A representative core id for cross-socket transfer pricing."""
        return self.socket * spec.cores_per_socket + self.enclave


@dataclass(frozen=True)
class ClusterSpec:
    """The cluster shape: machines × sockets × enclaves per socket."""

    machines: int = 1
    sockets: int = 2
    enclaves_per_socket: int = 1

    def __post_init__(self) -> None:
        if self.machines < 1:
            raise ConfigurationError("a cluster needs at least one machine")
        if self.sockets < 1:
            raise ConfigurationError("a cluster needs at least one socket")
        if self.enclaves_per_socket < 1:
            raise ConfigurationError(
                "a cluster needs at least one enclave per socket"
            )

    @classmethod
    def parse(cls, text: str) -> "ClusterSpec":
        """Parse ``SxE`` (one machine) or ``MxSxE`` cluster shapes.

        ``2x4`` = 2 sockets × 4 enclaves each (8 shards, one machine);
        ``2x2x4`` = 2 machines × 2 sockets × 4 enclaves (16 shards).
        """
        if text != text.strip():
            raise ConfigurationError(
                f"bad cluster spec {text!r}: no surrounding whitespace "
                f"allowed"
            )
        parts = text.lower().split("x")
        numbers = []
        for part in parts:
            # ``int`` would happily accept whitespace-padded parts like
            # ``"2 "`` (so ``"2 x4"`` parsed as 2x4) and signed counts
            # like ``"-1"``; require pure digits and at least 1 of
            # everything so malformed shapes fail loudly at parse time.
            if not part.isdigit():
                numbers = []
                break
            value = int(part)
            if value < 1:
                raise ConfigurationError(
                    f"bad cluster spec {text!r}: every count must be at "
                    f"least 1, got {part!r}"
                )
            numbers.append(value)
        if len(numbers) == 2:
            return cls(machines=1, sockets=numbers[0], enclaves_per_socket=numbers[1])
        if len(numbers) == 3:
            return cls(
                machines=numbers[0],
                sockets=numbers[1],
                enclaves_per_socket=numbers[2],
            )
        raise ConfigurationError(
            f"bad cluster spec {text!r}; expected SxE (e.g. 2x4) or MxSxE "
            f"(e.g. 2x2x4)"
        )

    def canonical(self) -> str:
        """The shortest spec string that parses back to this shape."""
        if self.machines == 1:
            return f"{self.sockets}x{self.enclaves_per_socket}"
        return f"{self.machines}x{self.sockets}x{self.enclaves_per_socket}"

    @property
    def shard_count(self) -> int:
        return self.machines * self.sockets * self.enclaves_per_socket

    def shards(self, spec: HardwareSpec) -> Tuple[ShardSpec, ...]:
        """Materialise the shape against ``spec`` into shard slices.

        Shards are enumerated machine-major, then socket, then enclave, so
        shard ids are stable for a given shape.  Each shard gets an equal
        integer share of its socket's cores and an equal share of its
        socket's EPC — the paper's pinning discipline applied per enclave.
        """
        if self.sockets > spec.sockets:
            raise ConfigurationError(
                f"cluster wants {self.sockets} sockets per machine but the "
                f"hardware has {spec.sockets}"
            )
        if self.enclaves_per_socket > spec.cores_per_socket:
            raise ConfigurationError(
                f"cluster wants {self.enclaves_per_socket} enclaves per "
                f"socket but the socket has {spec.cores_per_socket} cores"
            )
        cores = spec.cores_per_socket // self.enclaves_per_socket
        epc = spec.epc_bytes_per_socket / self.enclaves_per_socket
        out = []
        shard_id = 0
        for machine in range(self.machines):
            for socket in range(self.sockets):
                for enclave in range(self.enclaves_per_socket):
                    out.append(
                        ShardSpec(
                            shard_id=shard_id,
                            machine=machine,
                            socket=socket,
                            enclave=enclave,
                            cores=cores,
                            epc_budget_bytes=float(epc),
                        )
                    )
                    shard_id += 1
        return tuple(out)
