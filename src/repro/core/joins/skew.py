"""Skew-aware working-set estimation for hash-table probes.

The cost model's residency estimate assumes uniform access.  Real probe
streams are often skewed (Zipf-like foreign keys), which concentrates
accesses on few hash-table entries — the hot entries stay cache-resident
and the *effective* working set shrinks.  Inside an enclave this matters
double: cache hits are the one access class SGX never penalizes (Sec. 4.1),
so skew acts as a natural mitigation for the random-access penalty.

:func:`effective_working_set` converts a measured per-entry access
frequency distribution into the uniform-equivalent working-set size the
residency model expects: the size ``ws_eff`` for which a uniform stream
would see the same cache-hit fraction as the skewed stream does with the
hottest entries cached.

:func:`skew_gain` divides by a uniform baseline drawn at a fixed seed,
which depends only on the entry and access counts; inside a
:func:`~repro.reuse.experiment_scope` each baseline is drawn once.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.reuse import ScopedLRU

#: Bytes of uniform baselines one scope keeps (4 per hash-table entry):
#: a full-fidelity 1M-row build side fits.
BASELINE_MEMO_BYTES = 8 << 20
_BASELINES = ScopedLRU(
    "uniform_counts", BASELINE_MEMO_BYTES, arrays=lambda counts: (counts,)
)


def cache_hit_fraction(
    frequencies: np.ndarray,
    entry_bytes: float,
    cache_bytes: float,
    sim_scale: float = 1.0,
) -> float:
    """Share of accesses served by a cache holding the hottest entries.

    ``frequencies[i]`` is how often (physical) entry ``i`` is accessed; an
    LRU-like cache of ``cache_bytes`` retains the most frequently accessed
    entries.  ``sim_scale`` maps physical entries to logical ones.
    """
    if entry_bytes <= 0 or cache_bytes < 0:
        raise ConfigurationError("entry_bytes must be positive, cache >= 0")
    if sim_scale <= 0:
        raise ConfigurationError("sim_scale must be positive")
    # A private copy, partitioned in place below.
    frequencies = np.array(frequencies, dtype=np.float64)
    total = frequencies.sum()
    if total <= 0:
        return 1.0  # no accesses: everything trivially "hits"
    logical_capacity = cache_bytes / entry_bytes
    physical_capacity = int(logical_capacity / sim_scale)
    if physical_capacity >= len(frequencies):
        return 1.0
    if physical_capacity <= 0:
        return 0.0
    frequencies.partition(-physical_capacity)
    return float(frequencies[-physical_capacity:].sum() / total)


def uniform_counts(entries: int, total: int, seed: int = 0) -> np.ndarray:
    """Per-entry counts of ``total`` uniform draws over ``entries`` at
    ``seed``: int32 unless a count could overflow it."""
    dtype = np.dtype(np.int32 if total < 2**31 else np.int64)

    def draw() -> np.ndarray:
        rng = np.random.default_rng(seed)
        counts = np.bincount(rng.integers(0, entries, total), minlength=entries)
        return counts.astype(dtype)

    return _BASELINES.get_or_make(
        (entries, total, seed), draw, size=entries * dtype.itemsize
    )


def skew_gain(
    frequencies: np.ndarray,
    entry_bytes: float,
    cache_bytes: float,
    sim_scale: float = 1.0,
    *,
    seed: int = 0,
) -> float:
    """How much better than uniform the stream caches (>= 1.0).

    Small physical samples make the raw hit fraction look skewed even for
    uniform streams (Poisson noise: with ~1 access per entry the "hottest"
    entries are just the lucky ones).  The gain is therefore measured
    against a *simulated uniform baseline with the same sample count*, which
    cancels the bias: a uniform stream scores ~1.0 regardless of scale.
    """
    frequencies = np.asarray(frequencies)
    total = int(frequencies.sum())
    entries = len(frequencies)
    if total == 0 or entries == 0:
        return 1.0
    measured = cache_hit_fraction(frequencies, entry_bytes, cache_bytes, sim_scale)
    baseline = cache_hit_fraction(
        uniform_counts(entries, total, seed), entry_bytes, cache_bytes, sim_scale
    )
    if baseline <= 0:
        return 1.0
    return max(1.0, measured / baseline)


def effective_working_set(
    frequencies: np.ndarray,
    entry_bytes: float,
    cache_bytes: float,
    uniform_ws_bytes: float,
    sim_scale: float = 1.0,
) -> float:
    """Uniform-equivalent working set of a (possibly skewed) access stream.

    For a uniform stream over ``ws`` bytes, a cache of ``C`` bytes serves a
    ``C / ws`` fraction of accesses; inverting that for the skewed stream's
    measured hit fraction gives the size the residency model should price.
    The result is clamped to ``[cache_bytes, uniform_ws_bytes]`` — skew can
    only shrink the effective set, never grow it.
    """
    if uniform_ws_bytes < 0:
        raise ConfigurationError("uniform working set must be non-negative")
    if uniform_ws_bytes <= cache_bytes:
        return uniform_ws_bytes
    hit_fraction = cache_hit_fraction(
        frequencies, entry_bytes, cache_bytes, sim_scale
    )
    if hit_fraction <= 0:
        return uniform_ws_bytes
    ws_eff = cache_bytes / hit_fraction
    return float(min(max(ws_eff, cache_bytes), uniform_ws_bytes))
