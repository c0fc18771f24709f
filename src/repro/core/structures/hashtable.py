"""Bucket-chaining hash table (the PHT/RHO hash table of Blanas et al.).

The table is the classical design the paper's joins use: an array of bucket
heads plus per-tuple chain links.  Construction and probing are vectorized
over numpy, but semantically identical to the pointer-chasing C version:
insertion prepends to the bucket's chain under a per-bucket latch, probing
walks the chain comparing keys.

The multiplicative hash is Knuth's: ``(key * 2654435761) >> shift`` masked
to the bucket count, matching the radix-style hashing of the paper's code.

Heads and links are int32 while row indexes fit, halving the table's
arrays.

The joins take their matches from :func:`match_first`.  When the build
keys are unique non-negative integers below twice their count (every
generated primary key is), it reads the matches from a position array
instead of building a table; the result is the same.  Inside a
:func:`~repro.reuse.experiment_scope` it computes the matches of each
(build keys, probe keys, load factor) once: an experiment joins the same
generated keys in several settings and sizes, and matching does not
depend on either.  Arrays a memo froze are named by their serial, so
looking up generated keys hashes no bytes.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.reuse import ScopedLRU, frozen_serial

_KNUTH_MULTIPLIER = np.uint64(2654435761)

#: Bytes of one hash-table entry in the modelled C layout: key (4), payload
#: (4), chain link (8).
ENTRY_BYTES = 16
#: Bytes of one bucket head pointer.
BUCKET_BYTES = 8


def next_power_of_two(value: int) -> int:
    """Smallest power of two >= ``value`` (>= 1)."""
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


def table_bytes_for(num_tuples: int, load_factor: float = 1.0) -> int:
    """Modelled memory footprint of a chained hash table over ``num_tuples``.

    With the default load factor 1 and the 100 MB build table of the paper
    (12.5 M tuples) this yields ~256 MB — the size Sec. 4.1 quotes for the
    join benchmark's hash table.
    """
    if num_tuples < 0:
        raise ConfigurationError("num_tuples must be non-negative")
    buckets = next_power_of_two(max(1, int(num_tuples / load_factor)))
    return buckets * BUCKET_BYTES + num_tuples * ENTRY_BYTES


class ChainedHashTable:
    """A latch-per-bucket chained hash table over (key, payload) arrays."""

    def __init__(self, keys: np.ndarray, payloads: np.ndarray, load_factor: float = 1.0):
        if len(keys) != len(payloads):
            raise ConfigurationError("keys and payloads must have equal length")
        if load_factor <= 0:
            raise ConfigurationError("load factor must be positive")
        self.keys = np.asarray(keys)
        self.payloads = np.asarray(payloads)
        n = len(self.keys)
        self.num_buckets = next_power_of_two(max(1, int(n / load_factor)))
        # _build sorts (bucket << row_bits) | row in one int64 per row.
        self._row_bits = max(0, n - 1).bit_length()
        if self._row_bits + self.num_buckets.bit_length() - 1 > 63:
            raise ConfigurationError(
                f"{self.num_buckets} buckets x {n} rows do not pack into 63 bits"
            )
        self._mask = np.uint64(self.num_buckets - 1)
        index = np.int32 if n < 2**31 else np.int64
        self.heads = np.full(self.num_buckets, -1, dtype=index)
        self.links = np.full(n, -1, dtype=index)
        if n:
            self._build()

    # -- construction ----------------------------------------------------

    def _hash(self, keys: np.ndarray) -> np.ndarray:
        hashed = keys.astype(np.uint64)
        hashed *= _KNUTH_MULTIPLIER
        hashed &= self._mask
        return hashed.view(np.int64)

    def _build(self) -> None:
        """Vectorized equivalent of chained insertion.

        Sequential insertion prepends each tuple to its bucket, so after
        inserting indexes 0..n-1 the chain of a bucket lists its members in
        *descending* index order.  We reproduce exactly that linkage.

        Rows are grouped by bucket with one in-place sort of the packed
        values ``(bucket << row_bits) | row``: they are unique, so numpy's
        fast unstable sort yields exactly the stable bucket order (ascending
        row index within a bucket) without an argsort permutation.
        """
        row_bits = self._row_bits
        packed = self._hash(self.keys)
        packed <<= row_bits
        packed |= np.arange(len(self.keys), dtype=np.int64)
        packed.sort()
        order = packed & ((1 << row_bits) - 1)
        packed >>= row_bits
        sorted_buckets = packed
        # Within one bucket run (ascending index order), element i is
        # pointed to by element i+1 — the later insertion prepends and links
        # to the earlier one.
        same_bucket = sorted_buckets[1:] == sorted_buckets[:-1]
        self.links[order[1:][same_bucket]] = order[:-1][same_bucket]
        # The head of each bucket is its highest index = last of the run.
        run_ends = np.flatnonzero(
            np.r_[sorted_buckets[1:] != sorted_buckets[:-1], True]
        )
        self.heads[sorted_buckets[run_ends]] = order[run_ends]

    # -- probing ----------------------------------------------------------

    @property
    def max_chain_length(self) -> int:
        """Longest bucket chain (probe cost bound)."""
        if len(self.keys) == 0:
            return 0
        buckets = self._hash(self.keys)
        return int(np.bincount(buckets, minlength=self.num_buckets).max())

    @property
    def footprint_bytes(self) -> int:
        """Modelled memory footprint in the C layout."""
        return self.num_buckets * BUCKET_BYTES + len(self.keys) * ENTRY_BYTES

    def probe_count(self, probe_keys: np.ndarray) -> np.ndarray:
        """Number of matches for each probe key (vectorized chain walk)."""
        probe_keys = np.asarray(probe_keys)
        counts = np.zeros(len(probe_keys), dtype=np.int64)
        cursor = self.heads[self._hash(probe_keys)]
        while True:
            active = cursor >= 0
            if not active.any():
                break
            idx = cursor[active]
            counts[active] += self.keys[idx] == probe_keys[active]
            cursor = cursor.copy()
            cursor[active] = self.links[idx]
        return counts

    def probe_first(self, probe_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """First matching build index per probe key (or -1), plus a hit mask.

        For the paper's foreign-key joins build keys are unique, so the
        first match is the only match.
        """
        probe_keys = np.asarray(probe_keys)
        result = np.full(len(probe_keys), -1, dtype=np.int64)
        cursor = self.heads[self._hash(probe_keys)]
        # Walk only the unresolved probes: (targets, keys, cursor) shrink
        # to the rows still on a chain after every step.
        targets = np.flatnonzero(cursor >= 0)
        keys = probe_keys[targets]
        cursor = cursor[targets]
        while len(targets):
            hit = self.keys[cursor] == keys
            result[targets[hit]] = cursor[hit]
            keep = np.flatnonzero(~hit)
            cursor = self.links[cursor[keep]]
            live = cursor >= 0
            keep = keep[live]
            targets = targets[keep]
            keys = keys[keep]
            cursor = cursor[live]
        return result, result >= 0


#: Bytes of matches (an 8-byte build index and a 1-byte hit flag per probe
#: row) one scope keeps: three 200k-row probes, so each of fig04's three
#: quick seeds still hits at the next build size.
MATCH_MEMO_BYTES = 6 << 20
_MATCH_BYTES_PER_PROBE_ROW = 9
_MATCHES = ScopedLRU("match_first", MATCH_MEMO_BYTES, arrays=lambda matches: matches)


def _fingerprint(keys: np.ndarray):
    """The serial of an array a memo froze (:func:`~repro.reuse.frozen_serial`),
    else dtype, length and a digest of every byte: equal only for equal
    arrays."""
    serial = frozen_serial(keys)
    if serial is not None:
        return serial
    keys = np.ascontiguousarray(keys)
    return keys.dtype.str, len(keys), hashlib.blake2b(keys, digest_size=32).digest()


def dense_match(
    build_keys: np.ndarray, probe_keys: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``probe_first``'s result from a position array, in O(n).

    Returns ``None`` unless both sides are integer arrays and the build
    keys are unique, non-negative and below ``2 * len(build_keys)``: then
    each key's slot holds its only build row, which is what a chain walk
    finds.
    """
    build_keys, probe_keys = np.asarray(build_keys), np.asarray(probe_keys)
    n = len(build_keys)
    if not n or build_keys.dtype.kind not in "iu" or probe_keys.dtype.kind not in "iu":
        return None
    high = int(build_keys.max())
    if build_keys.min() < 0 or high >= 2 * n:
        return None
    positions = np.full(high + 1, -1, dtype=np.int64)
    positions[build_keys] = np.arange(n)
    if np.count_nonzero(positions >= 0) != n:  # a duplicate key
        return None
    inside = probe_keys < len(positions)
    if probe_keys.dtype.kind == "i":
        inside &= probe_keys >= 0
    if inside.all():
        result = positions[probe_keys]
    else:
        result = np.full(len(probe_keys), -1, dtype=np.int64)
        result[inside] = positions[probe_keys[inside]]
    return result, result >= 0


def _match(build_keys, probe_keys, load_factor: float) -> Tuple[np.ndarray, np.ndarray]:
    dense = dense_match(build_keys, probe_keys)
    if dense is not None:
        return dense
    # Payloads play no part in matching; the keys stand in for them.
    return ChainedHashTable(build_keys, build_keys, load_factor).probe_first(probe_keys)


def match_first(
    build_keys: np.ndarray, probe_keys: np.ndarray, load_factor: float = 1.0
) -> Tuple[np.ndarray, np.ndarray]:
    """``ChainedHashTable(build_keys, ..., load_factor).probe_first(probe_keys)``.

    Dense build keys (:func:`dense_match`) skip the table; the result is
    equal in values and dtypes.  Outside an experiment scope every call
    computes fresh matches, and so does a call whose matches would not fit
    :data:`MATCH_MEMO_BYTES`.  Otherwise a call whose keys equal an
    earlier call's in dtype, length and every byte, or are the same
    frozen arrays, returns that call's arrays, which are read-only.
    """
    size = len(probe_keys) * _MATCH_BYTES_PER_PROBE_ROW
    if not _MATCHES.keeps(size):
        return _match(build_keys, probe_keys, load_factor)
    key = (load_factor, _fingerprint(build_keys), _fingerprint(probe_keys))
    return _MATCHES.get_or_make(
        key, lambda: _match(build_keys, probe_keys, load_factor), size
    )
