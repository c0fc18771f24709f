"""Simulated cycle counter (the RDTSCP stand-in).

The paper measures with ``RDTSCP`` because it is the only high-precision
clock available both inside and outside an enclave.  Our equivalent is a
monotonically advancing cycle counter that operators and the executor move
forward by priced amounts; conversions to wall-clock seconds use the fixed
2.9 GHz base frequency of the testbed (Turbo Boost disabled, Sec. 3).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.units import cycles_to_seconds


class SimClock:
    """A monotone simulated cycle counter with interval support."""

    def __init__(self, frequency_hz: float) -> None:
        if frequency_hz <= 0:
            raise ConfigurationError("frequency must be positive")
        self.frequency_hz = frequency_hz
        self._cycles = 0.0
        self._marks = []

    @property
    def seconds(self) -> float:
        """Total elapsed simulated wall-clock time."""
        return cycles_to_seconds(self._cycles, self.frequency_hz)

    def advance(self, cycles: float) -> None:
        """Advance the clock; negative advances are rejected."""
        if cycles < 0:
            raise ConfigurationError(f"cannot advance clock by {cycles} cycles")
        self._cycles += cycles

    def mark(self) -> None:
        """Push the current time (RDTSCP at measurement start)."""
        self._marks.append(self._cycles)

    def elapsed_since_mark(self) -> float:
        """Pop the most recent mark and return cycles elapsed since it."""
        if not self._marks:
            raise ConfigurationError("no mark set on clock")
        return self._cycles - self._marks.pop()
