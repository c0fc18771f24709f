"""Join-input generators (the TEEBench-style workload of Sec. 4).

The paper's join inputs are rows of a 32-bit key and a 32-bit payload
(8 bytes per tuple); all joins are foreign-key joins with uniformly
distributed keys.  The default experiment joins a 100 MB build table
(12.5 M rows) against a 400 MB probe table (50 M rows) — the "cache-exceed"
setting of TEEBench, similar to TPC-H join sizes at scale factor 100.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.reuse import LOCK, ScopedLRU
from repro.tables.table import Column, Table

#: 32-bit key + 32-bit payload, as in the paper (Sec. 4, "Join data").
JOIN_TUPLE_BYTES = 8

#: Physical rows above which generated tables are scaled down via
#: ``sim_scale`` to keep wall-clock benchmark time reasonable.
DEFAULT_PHYSICAL_ROW_CAP = 2_000_000

#: Physical join pairs an experiment scope keeps: fig04's three quick
#: seeds interleave per build size, and every size past the row cap is
#: the same physical pair at its seed.
REUSED_PAIRS = 3


def rows_for_bytes(size_bytes: float, tuple_bytes: int = JOIN_TUPLE_BYTES) -> int:
    """Logical row count of a relation of ``size_bytes``."""
    if size_bytes < 0:
        raise ConfigurationError("size must be non-negative")
    return int(size_bytes // tuple_bytes)


def scaled_rows(logical_rows: int, cap: Optional[int]) -> Tuple[int, float]:
    """Physical rows and the sim_scale that restores the logical count."""
    if logical_rows <= 0:
        raise ConfigurationError("relation must have at least one row")
    if cap is None or logical_rows <= cap:
        return logical_rows, 1.0
    return cap, logical_rows / cap


def generate_key_value_table(
    name: str,
    size_bytes: float,
    *,
    rng: np.random.Generator,
    physical_row_cap: Optional[int] = DEFAULT_PHYSICAL_ROW_CAP,
) -> Table:
    """A primary-key relation: keys are a dense permutation, payloads random."""
    logical_rows = rows_for_bytes(size_bytes)
    physical_rows, scale = scaled_rows(logical_rows, physical_row_cap)
    keys, payload = _key_value_columns(physical_rows, rng)
    return Table(
        name,
        [Column("key", keys), Column("payload", payload)],
        sim_scale=scale,
    )


def _key_value_columns(
    rows: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    keys = rng.permutation(rows).astype(np.int32)
    payload = rng.integers(0, 2**31 - 1, size=rows, dtype=np.int32)
    return keys, payload


def _pair_arrays(build_rows: int, probe_rows: int, seed) -> Tuple[np.ndarray, ...]:
    """Build keys and payloads, then probe keys and payloads, at ``seed``."""
    rng = np.random.default_rng(seed)
    build_keys, build_payload = _key_value_columns(build_rows, rng)
    # Map through the build permutation so foreign keys hit actual PK values.
    probe_keys = build_keys[
        rng.integers(0, build_rows, size=probe_rows, dtype=np.int32)
    ]
    probe_payload = rng.integers(0, 2**31 - 1, size=probe_rows, dtype=np.int32)
    return build_keys, build_payload, probe_keys, probe_payload


def _pair_tables(
    arrays, build_scale: float, probe_scale: float
) -> Tuple[Table, Table]:
    build_keys, build_payload, probe_keys, probe_payload = arrays
    build = Table(
        "R",
        [Column("key", build_keys), Column("payload", build_payload)],
        sim_scale=build_scale,
    )
    probe = Table(
        "S",
        [Column("key", probe_keys), Column("payload", probe_payload)],
        sim_scale=probe_scale,
    )
    return build, probe


#: (physical build rows, physical probe rows, seed) -> (the pair's four
#: arrays, {(build sim_scale, probe sim_scale): the pair handed out}).
_PAIRS = ScopedLRU(
    "generate_join_relation_pair", REUSED_PAIRS, arrays=lambda shared: shared[0]
)


def generate_join_relation_pair(
    build_bytes: float,
    probe_bytes: float,
    *,
    seed: int = 42,
    physical_row_cap: Optional[int] = DEFAULT_PHYSICAL_ROW_CAP,
) -> Tuple[Table, Table]:
    """The paper's foreign-key join inputs.

    The build (primary-key) relation has unique keys; every probe tuple's
    key references some build key uniformly at random, so every probe row
    finds exactly one match.  Keys and payloads are int32 columns, so
    both relations report the paper's 8-byte logical tuples.

    The arrays depend only on the physical row counts and ``seed``; the
    logical sizes only set each table's ``sim_scale``.  Inside a
    :func:`~repro.reuse.experiment_scope` every call with the same
    physical shape and seed therefore shares one set of read-only arrays,
    and a repeated call with equal arguments returns the same pair.
    """
    cap = physical_row_cap
    build_rows, build_scale = scaled_rows(rows_for_bytes(build_bytes), cap)
    probe_rows, probe_scale = scaled_rows(rows_for_bytes(probe_bytes), cap)
    if not _PAIRS.keeps():
        return _pair_tables(
            _pair_arrays(build_rows, probe_rows, seed), build_scale, probe_scale
        )
    arrays, pairs = _PAIRS.get_or_make(
        (build_rows, probe_rows, seed),
        lambda: (_pair_arrays(build_rows, probe_rows, seed), {}),
    )
    with LOCK:
        scales = (build_scale, probe_scale)
        if scales not in pairs:
            pairs[scales] = _pair_tables(arrays, build_scale, probe_scale)
        return pairs[scales]


def skewed_probe_keys(
    build_rows: int,
    probe_rows: int,
    zipf_theta: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Zipf-skewed foreign keys (extension beyond the paper's uniform data).

    ``zipf_theta`` = 0 degenerates to uniform; larger values concentrate
    probes on few build keys, which stresses latch contention in PHT.
    """
    if build_rows <= 0 or probe_rows < 0:
        raise ConfigurationError("row counts must be positive")
    if zipf_theta < 0:
        raise ConfigurationError("zipf_theta must be non-negative")
    if zipf_theta == 0:
        return rng.integers(0, build_rows, size=probe_rows, dtype=np.int64)
    ranks = np.arange(1, build_rows + 1, dtype=np.float64)
    weights = ranks ** (-zipf_theta)
    weights /= weights.sum()
    return rng.choice(build_rows, size=probe_rows, p=weights).astype(np.int64)
