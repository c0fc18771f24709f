"""The memo store: an in-memory LRU in front of an on-disk JSON store.

Values are JSON-safe dicts (costed reports, access-profile summaries,
exported trace texts) addressed by the content hashes of
:mod:`repro.cache.keys`.  The LRU bounds resident memory; the disk tier —
one ``<key>.json`` file per entry under the cache directory — persists
across processes and survives restarts.  A trace text (the value field
named in :data:`SIDECARS`) is not JSON-escaped into that file: it is
written raw, as UTF-8 bytes, to a ``<key>.trace.jsonl`` sidecar, and the
entry records each sidecar's name and byte length under ``"sidecars"``.  Disk writes are atomic (write to a temp
file, then rename) and the sidecars are written before their entry, so a
crashed run never leaves a half-written entry behind; an unreadable entry,
or one whose sidecar is missing or has the wrong length, is treated as a
miss, never an error.  The disk tier is bounded too: at most
``disk_entries`` entries are kept (default :data:`DEFAULT_DISK_ENTRIES`),
evicting oldest-first by modification time, each with its sidecars, so a
long-lived shared cache directory cannot grow without limit across
sessions.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import OrderedDict
from typing import Any, Dict, Optional, Union

from repro.errors import CacheError

#: Default number of entries the in-memory tier keeps resident.
DEFAULT_MEMORY_ENTRIES = 64

#: Default number of entries the disk tier may hold.  Long ``--cache DIR``
#: sessions (sweeps over many seeds, scale factors, and calibrations) used
#: to grow the directory without bound; when the cap is exceeded the
#: oldest files — by modification time, name as the deterministic
#: tie-break — are deleted first.  4096 JSON memo entries is a few tens of
#: MB, far more than any one session touches, while still bounding a
#: months-old shared cache directory.
DEFAULT_DISK_ENTRIES = 4096

#: Value fields stored as raw sidecar files, by file-name suffix.  A field
#: is moved to its sidecar only when it holds a string.
SIDECARS = {"trace_jsonl": "trace.jsonl"}

#: The entry field recording each sidecar's file name and byte length.
SIDECAR_FIELD = "sidecars"


class MemoStore:
    """Content-addressed memo cache: memory LRU over an optional disk tier.

    ``directory=None`` gives a purely in-memory store (tests, throwaway
    sessions); with a directory, entries evicted from memory remain on disk
    and are transparently re-promoted on the next :meth:`get`.

    The store counts its own traffic (:attr:`hits` / :attr:`misses`); the
    session driver mirrors those counts into trace counters so ``--trace``
    shows exactly what was recomputed.
    """

    def __init__(
        self,
        directory: Optional[Union[str, pathlib.Path]] = None,
        *,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        disk_entries: int = DEFAULT_DISK_ENTRIES,
    ) -> None:
        if memory_entries < 1:
            raise CacheError("memory_entries must be at least 1")
        if disk_entries < 1:
            raise CacheError("disk_entries must be at least 1")
        self.directory = pathlib.Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.memory_entries = memory_entries
        self.disk_entries = disk_entries
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # -- addressing ------------------------------------------------------

    def path_for(self, key: str) -> Optional[pathlib.Path]:
        """The on-disk file backing ``key`` (None for memory-only stores)."""
        if self.directory is None:
            return None
        if not key or any(c in key for c in "/\\."):
            raise CacheError(f"malformed cache key {key!r}")
        return self.directory / f"{key}.json"

    def _sidecar_path(self, key: str, field: str) -> pathlib.Path:
        return self.directory / f"{key}.{SIDECARS[field]}"

    # -- access ----------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached value for ``key``, or None (counted as hit/miss)."""
        if key in self._memory:
            self._memory.move_to_end(key)
            self.hits += 1
            return self._memory[key]
        path = self.path_for(key)
        if path is not None and path.exists():
            try:
                value = self._load(key, path)
            except (OSError, ValueError, LookupError, CacheError) as exc:
                # A torn or corrupt entry must never poison a run: degrade
                # to a miss and recompute — but leave an audit trail, or
                # silent corruption (a flaky disk, a truncating crash)
                # looks exactly like an expected cold cache.
                from repro.trace.tracer import current_tracer

                tracer = current_tracer()
                if tracer.enabled:
                    tracer.event(
                        "cache.corrupt_entry",
                        {
                            "key": key,
                            "path": str(path),
                            "error": type(exc).__name__,
                        },
                    )
                self.misses += 1
                return None
            self._remember(key, value)
            self.hits += 1
            return value
        self.misses += 1
        return None

    def put(self, key: str, value: Dict[str, Any]) -> None:
        """Store ``value`` under ``key`` in both tiers."""
        if not isinstance(value, dict):
            raise CacheError(f"cache values must be dicts, got {type(value).__name__}")
        if SIDECAR_FIELD in value:
            raise CacheError(f"{SIDECAR_FIELD!r} is reserved in cache values")
        path = self.path_for(key)
        texts = {f: value[f] for f in SIDECARS if isinstance(value.get(f), str)}
        entry = {name: item for name, item in value.items() if name not in texts}
        blobs = {}
        if path is not None:
            for field, text in texts.items():
                blobs[field] = text.encode("utf-8", "surrogatepass")
        if blobs:
            entry[SIDECAR_FIELD] = {
                field: {"name": f"{key}.{SIDECARS[field]}", "bytes": len(data)}
                for field, data in blobs.items()
            }
        try:
            text = json.dumps(entry, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise CacheError(f"cache value is not JSON-serializable: {exc}") from None
        if path is not None:
            # Sidecars first: an entry file is only ever renamed into place
            # once everything it names is complete on disk.
            for field, data in blobs.items():
                self._write(self._sidecar_path(key, field), data)
            self._write(path, text.encode("utf-8"))
            self._evict_disk(keep=path)
        self._remember(key, value)

    @staticmethod
    def _write(path: pathlib.Path, data: bytes) -> None:
        """Write ``data`` to ``path`` atomically (temp file, then rename).

        The temp name carries the writer's pid: concurrent workers storing
        the *same* key (e.g. two shards pricing one shared profile) must
        not rename each other's half-written temp file away.  Both renames
        are atomic; last writer wins with identical content.
        """
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def _load(self, key: str, path: pathlib.Path) -> Dict[str, Any]:
        """The entry at ``path`` with its sidecar texts read back in.

        Raises when the entry or a sidecar is unreadable, or a sidecar's
        name or byte length differs from what the entry recorded.
        """
        value = json.loads(path.read_text())
        if type(value) is not dict:
            raise CacheError(f"cache entry {path.name} is not a JSON object")
        for field, recorded in value.pop(SIDECAR_FIELD, {}).items():
            sidecar = self._sidecar_path(key, field)
            data = sidecar.read_bytes()
            if recorded["name"] != sidecar.name or recorded["bytes"] != len(data):
                raise CacheError(f"sidecar {sidecar.name} does not match its entry")
            value[field] = data.decode("utf-8", "surrogatepass")
        return value

    def _evict_disk(self, *, keep: pathlib.Path) -> None:
        """Hold the disk tier at ``disk_entries`` entries, oldest out first.

        Ordered by (mtime, name) so eviction is deterministic even when a
        burst of writes lands within one timestamp granule.  The entry just
        written is never the victim; a victim's sidecars go with it, and a
        file another worker deleted first is simply skipped.
        """
        if self.directory is None:
            return
        entries = []
        for candidate in self.directory.glob("*.json"):
            if candidate == keep:
                continue
            try:
                mtime = candidate.stat().st_mtime
            except OSError:
                continue
            entries.append((mtime, candidate.name, candidate))
        excess = len(entries) + 1 - self.disk_entries
        if excess <= 0:
            return
        entries.sort()
        for _, _, victim in entries[:excess]:
            key = victim.name[: -len(".json")]
            for doomed in (victim, *(self._sidecar_path(key, f) for f in SIDECARS)):
                try:
                    doomed.unlink()
                except OSError:
                    pass
            self._memory.pop(key, None)

    def _remember(self, key: str, value: Dict[str, Any]) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    # -- inspection ------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct entries across both tiers."""
        keys = set(self._memory)
        if self.directory is not None:
            keys.update(p.stem for p in self.directory.glob("*.json"))
        return len(keys)

    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}
