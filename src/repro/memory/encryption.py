"""Model of the SGXv2 memory-encryption hardware (the AES-XTS engine).

SGXv2 replaced SGXv1's Memory Encryption Engine (with its integrity tree)
by Total Memory Encryption-style AES-XTS plus cryptographic integrity.  The
observable consequences the paper measures, and which this class encodes:

* data held in CPU caches is plaintext → zero overhead for cache-resident
  working sets (Fig. 5 left, Fig. 12 left);
* the prefetcher hides decryption latency for sequential streams → only
  2-5.5 % overhead for linear access (Fig. 15);
* dependent random reads expose the full decryption latency → down to 53 %
  relative throughput for DRAM-sized working sets (Fig. 5);
* random writes additionally pay read-for-ownership + encrypt-on-evict →
  2x at 256 MB up to ~3x at 8 GB (Fig. 5);
* around the L3 boundary, relative SGX performance is *better* than the
  neighbouring sizes (paper footnote 2 attributes this to cache-clearing
  side effects of the SGX security protocol).

All factors are relative multipliers on the plain-CPU cost of the identical
access pattern.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.hardware.calibration import CostParameters
from repro.memory.access import CodeVariant, PatternKind


class MemoryEncryptionEngine:
    """Size- and pattern-dependent SGX memory penalties."""

    def __init__(self, params: CostParameters, l3_bytes: float) -> None:
        if l3_bytes <= 0:
            raise ConfigurationError("l3_bytes must be positive")
        self._params = params
        self._l3 = float(l3_bytes)

    # -- sequential ------------------------------------------------------

    def sequential_factor(self, kind: PatternKind, variant: CodeVariant) -> float:
        """Multiplier for streaming access to EPC data outside the cache."""
        if kind is PatternKind.SEQ_WRITE:
            return 1.0 + self._params.linear_write_penalty
        if variant is CodeVariant.SIMD:
            return 1.0 + self._params.linear_read_simd_penalty
        return 1.0 + self._params.linear_read_scalar_penalty

    # -- random ----------------------------------------------------------

    def _size_progress(self, working_set_bytes: float, anchor: float) -> float:
        """How far ``working_set_bytes`` has progressed from L3 to ``anchor``.

        0 at or below the L3 capacity, 1 at or beyond ``anchor``, log-linear
        in between — penalties grow with the DRAM-resident share, which is
        logarithmic-looking on the paper's log-scaled size axes.
        """
        if working_set_bytes <= self._l3:
            return 0.0
        if working_set_bytes >= anchor:
            return 1.0
        span = math.log(anchor / self._l3)
        return math.log(working_set_bytes / self._l3) / span

    def _boundary_relief(self, working_set_bytes: float) -> float:
        """Penalty reduction near the L3 boundary (paper footnote 2).

        Returns a multiplier in (0, 1] applied to the *excess* penalty; it
        dips to ``1 - cache_boundary_relief`` at exactly the L3 size and
        fades within a factor of ~4 in either direction.
        """
        ratio = working_set_bytes / self._l3
        if ratio <= 0:
            # Degenerate (or denormal-underflowed) sizes are far below the
            # boundary: no relief.
            return 1.0
        distance = abs(math.log(ratio))
        width = math.log(4.0)
        if distance >= width:
            return 1.0
        dip = self._params.cache_boundary_relief * (1.0 - distance / width)
        return 1.0 - dip

    def random_read_factor(self, working_set_bytes: float) -> float:
        """Latency multiplier for random/dependent reads of EPC data."""
        params = self._params
        progress = self._size_progress(
            working_set_bytes, params.random_penalty_saturation_bytes
        )
        excess = (params.random_read_penalty_max - 1.0) * progress
        return 1.0 + excess * self._boundary_relief(working_set_bytes)

    def random_write_factor(
        self, working_set_bytes: float, variant: CodeVariant = CodeVariant.NAIVE
    ) -> float:
        """Latency multiplier for random writes to EPC data.

        Anchored to Fig. 5: 2x at 256 MB and ~3x at 8 GB for the naive write
        loop.  Unrolled/SIMD code overlaps the read-for-ownership traffic and
        recovers roughly half of the excess (this is why the optimized PHT
        join in Fig. 8 stays at 68 % of native: a reduced, but not
        eliminated, random-write penalty remains).
        """
        params = self._params
        anchor_256mb = 256e6
        if working_set_bytes <= self._l3:
            factor = 1.0
        elif working_set_bytes <= anchor_256mb:
            progress = self._size_progress(working_set_bytes, anchor_256mb)
            factor = 1.0 + (params.random_write_penalty_at_256mb - 1.0) * progress
        else:
            span = math.log(params.random_penalty_saturation_bytes / anchor_256mb)
            progress = min(
                1.0, math.log(working_set_bytes / anchor_256mb) / span
            )
            factor = params.random_write_penalty_at_256mb + (
                params.random_write_penalty_max - params.random_write_penalty_at_256mb
            ) * progress
        excess = (factor - 1.0) * self._boundary_relief(working_set_bytes)
        if variant is not CodeVariant.NAIVE:
            excess *= 0.45
        return 1.0 + excess

