"""Storage configuration: the spill budget and the sealed block size.

A :class:`StorageConfig` bundles the spill budget (the EPC/static-size
ceiling an operator's working set must stay under before it partitions to
sealed storage) and the sealed block size.  The session's budget is the
``storage`` field of the ambient :class:`~repro.runconfig.RunConfig`, so
``--storage 256m`` reshapes every serving run in a session; ``--storage``
unset leaves every code path byte-identical to the pre-storage build.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import GB, GiB, KB, KiB, MB, MiB, PAGE_BYTES

#: Default sealed block: 1 MiB amortizes the per-block enclave transition
#: to well under a cycle per byte while keeping partition buffers far
#: below any plausible budget.
DEFAULT_BLOCK_BYTES = 1 * MiB

_SUFFIXES = {
    "k": KB,
    "kb": KB,
    "m": MB,
    "mb": MB,
    "g": GB,
    "gb": GB,
    "ki": KiB,
    "kib": KiB,
    "mi": MiB,
    "mib": MiB,
    "gi": GiB,
    "gib": GiB,
}


def parse_size(text: str) -> int:
    """Parse a byte size like ``"256m"``, ``"1gib"``, or ``"1048576"``.

    Decimal suffixes (``k``/``m``/``g``, optionally with ``b``) follow the
    paper's table-size convention; ``ki``/``mi``/``gi`` are binary.  A bare
    number is plain bytes.
    """
    raw = text.strip().lower()
    number = raw
    factor = 1
    for suffix in sorted(_SUFFIXES, key=len, reverse=True):
        if raw.endswith(suffix):
            number = raw[: -len(suffix)]
            factor = _SUFFIXES[suffix]
            break
    if not number.isdigit():
        raise ConfigurationError(
            f"bad size {text!r}; expected BYTES or a k/m/g(-ib) suffixed "
            f"count, e.g. 256m or 1gib"
        )
    return int(number) * factor


@dataclass(frozen=True)
class StorageConfig:
    """One sealed-storage setup: the spill budget and the block size."""

    budget_bytes: int
    block_bytes: int = DEFAULT_BLOCK_BYTES

    def __post_init__(self) -> None:
        if self.budget_bytes < PAGE_BYTES:
            raise ConfigurationError(
                f"storage budget must be at least one page "
                f"({PAGE_BYTES} B), got {self.budget_bytes}"
            )
        if self.block_bytes < PAGE_BYTES:
            raise ConfigurationError(
                f"sealed block must be at least one page "
                f"({PAGE_BYTES} B), got {self.block_bytes}"
            )
        if self.block_bytes > self.budget_bytes:
            raise ConfigurationError(
                f"sealed block ({self.block_bytes} B) cannot exceed the "
                f"storage budget ({self.budget_bytes} B)"
            )

    @classmethod
    def parse(cls, text: str) -> "StorageConfig":
        """``--storage BUDGET[:BLOCK]``, e.g. ``256m`` or ``256m:4mi``."""
        budget, _, block = text.partition(":")
        if not block:
            return cls(budget_bytes=parse_size(budget))
        return cls(
            budget_bytes=parse_size(budget), block_bytes=parse_size(block)
        )

    def canonical(self) -> str:
        """A stable spec string (used in cache keys and notes)."""
        if self.block_bytes == DEFAULT_BLOCK_BYTES:
            return str(self.budget_bytes)
        return f"{self.budget_bytes}:{self.block_bytes}"
