"""Tenant/query routing: which shard serves which arrival.

Two policies, both deterministic:

* **consistent hash** (:class:`HashRouter`) — each shard owns ~64 virtual
  points on a 64-bit ring; a tenant's stream name hashes to a ring point
  and walks clockwise to the first *eligible* shard.  Stable under shard
  loss (only the lost shard's keys move) and stateless, but blind to
  load: a hot tenant saturates its natural shard while neighbours idle.
* **load-aware** (:class:`LoadAwareRouter`) — routes to the shard with
  the lowest momentary load score (queued + running thread demand over
  cores, plus EPC fullness: the least-EPC-headroom signal).  Balances
  skew at the price of moving tenants off their data's home shard, which
  the cluster scheduler charges as a cross-socket shuffle.

Routing is a pure function of (key, eligible set, load scores), so the
same workload replayed yields the same placements byte-for-byte.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Callable, Dict, List, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.cluster.spec import ShardSpec

#: Virtual nodes per shard on the hash ring: enough that shard loss
#: redistributes keys roughly evenly across the survivors.
VNODES_PER_SHARD = 64


def _hash64(text: str) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRouter:
    """Consistent-hash routing over the shard set."""

    label = "hash"

    def __init__(self, shards: Sequence[ShardSpec]) -> None:
        if not shards:
            raise ConfigurationError("a router needs at least one shard")
        ring: List[Tuple[int, int]] = []
        for shard in shards:
            for vnode in range(VNODES_PER_SHARD):
                ring.append((_hash64(f"{shard.label}:{vnode}"), shard.shard_id))
        ring.sort()
        self._points = [point for point, _ in ring]
        self._owners = [owner for _, owner in ring]
        #: key -> its ring point; a key's point never changes.
        self._key_points: Dict[str, int] = {}

    def route(
        self,
        key: str,
        eligible: Set[int],
        load: Callable[[int], float],
    ) -> int:
        """The first eligible shard clockwise of ``key``'s ring point."""
        if not eligible:
            raise ConfigurationError("no eligible shard to route to")
        point = self._key_points.get(key)
        if point is None:
            point = self._key_points[key] = _hash64(key)
        start = bisect.bisect_right(self._points, point)
        n = len(self._owners)
        for offset in range(n):
            owner = self._owners[(start + offset) % n]
            if owner in eligible:
                return owner
        raise ConfigurationError("no eligible shard owns a ring point")


class LoadAwareRouter:
    """Least-loaded routing (the least-EPC-headroom signal)."""

    label = "load-aware"

    def __init__(self, shards: Sequence[ShardSpec]) -> None:
        if not shards:
            raise ConfigurationError("a router needs at least one shard")
        self._ids = [shard.shard_id for shard in shards]

    def route(
        self,
        key: str,
        eligible: Set[int],
        load: Callable[[int], float],
    ) -> int:
        """The eligible shard with the lowest load score (id tie-break)."""
        if not eligible:
            raise ConfigurationError("no eligible shard to route to")
        best = None
        best_score = None
        for shard_id in self._ids:
            if shard_id not in eligible:
                continue
            score = load(shard_id)
            if best_score is None or score < best_score:
                best = shard_id
                best_score = score
        if best is None:
            raise ConfigurationError("no eligible shard to route to")
        return best


def make_router(name: str, shards: Sequence[ShardSpec]):
    """Router factory: ``hash`` or ``load-aware``."""
    routers = {"hash": HashRouter, "load-aware": LoadAwareRouter}
    try:
        cls = routers[name]
    except KeyError:
        known = ", ".join(sorted(routers))
        raise ConfigurationError(
            f"unknown routing policy {name!r}; known: {known}"
        ) from None
    return cls(shards)
