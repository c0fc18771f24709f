"""Content-addressed result caching for the bench stack.

``repro.cache`` memoizes costed experiment results and their exported
traces under canonical content hashes: :mod:`repro.cache.keys` turns an
(experiment id, operator params, execution setting, seed, calibration
digest) tuple into a SHA-256 key, and :class:`~repro.cache.store.MemoStore`
serves those keys from an in-memory LRU backed by an on-disk JSON store.
Calibration changes rotate the keys, so invalidation is automatic — a
modified cost model can never be answered from stale results.

Below the experiment level, :func:`~repro.cache.keys.query_profile_key`
keys the individual *pricing runs* (catalog profiles, planner candidate
and rewrite estimates).  :mod:`repro.reuse` keeps them in the session
profile memo, a :class:`MemoStore` like this package's, so repeated
templates across experiments, planner arms, and cluster shards execute
the real operators once per process (or once per cache directory, with a
disk tier).
"""

from typing import Optional

from repro.cache.keys import (
    CACHE_FORMAT,
    calibration_digest,
    canonical,
    experiment_key,
    fingerprint,
    query_profile_key,
)
from repro.cache.store import DEFAULT_MEMORY_ENTRIES, MemoStore


def profile_memo() -> Optional[MemoStore]:
    """The session profile memo of :mod:`repro.reuse` (``None`` while off).

    Imported on call: :mod:`repro.reuse` itself imports this package.
    """
    from repro import reuse

    return reuse.profile_memo()


__all__ = [
    "CACHE_FORMAT",
    "DEFAULT_MEMORY_ENTRIES",
    "MemoStore",
    "calibration_digest",
    "canonical",
    "experiment_key",
    "fingerprint",
    "profile_memo",
    "query_profile_key",
]
