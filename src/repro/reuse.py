"""One memo layer with one switch.

The paper's protocol repeats every measurement over seeded runs, so the
simulator computes the same deterministic things many times.  Two kinds of
memo collapse that repeat work without changing one output byte:

* **Experiment memos.**  :func:`run_experiment
  <repro.bench.registry.run_experiment>` opens one
  :func:`experiment_scope`.  Inside it each :class:`ScopedLRU` keeps what
  it computed: generated datasets (:func:`reused_within_scope` decorates
  ``generate_tpch`` and ``generate_join_relation_pair``) and join matches
  (``match_first``).  Kept values are shared between cells, so their
  arrays are made read-only: an operator that writes its input raises
  ``ValueError`` instead of silently changing a later cell's input.
  Outside a scope nothing is kept and every call returns fresh, writable
  arrays.  Each memo evicts *before* it computes, so it never holds more
  than its bound, and the outermost scope empties every memo when it
  exits, even on an exception.  Scopes nest and are shared with the
  repetition threads of :func:`repro.bench.runner.repeat_runs`; one
  :data:`LOCK` guards all of it.
* **The session profile memo.**  A :class:`~repro.cache.store.MemoStore`
  of priced query profiles under :func:`~repro.cache.keys.query_profile_key`
  (catalog pricing, planner and rewrite estimates; see :func:`profiled`).
  It lives for the process; with a ``--cache`` directory the session
  driver gives it a disk tier under ``<cache>/profiles`` that worker
  processes and later sessions share.

:func:`use_memos` is the one switch: ``use_memos(False)`` (``--no-memo``,
``run_session(memo=False)``) removes the profile memo and keeps
:func:`experiment_scope` from opening, so no memo keeps anything.  Memo
hits return values equal to the runs they skip and pricing runs are
silent, so memoized and unmemoized runs are byte-identical.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import pathlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, Optional, Union

from repro.cache.store import MemoStore

#: Guards every experiment memo and the scope depth.
LOCK = threading.RLock()
_depth = 0

#: Memo name -> every experiment memo the outermost scope empties.
MEMOS: Dict[str, "ScopedLRU"] = {}

#: Entries the profile memo keeps resident: each is a few floats, and a
#: full-registry session touches a few hundred (template, setting,
#: candidate) triples.
DEFAULT_PROFILE_ENTRIES = 512

#: The session profile memo; ``None`` while memos are off.
_profiles: Optional[MemoStore] = MemoStore(memory_entries=DEFAULT_PROFILE_ENTRIES)


class ScopedLRU:
    """A named LRU that keeps values only inside an experiment scope.

    ``limit`` bounds the summed sizes of the entries.  Callers that pass no
    size bound a count of entries; callers that pass each value's bytes
    bound bytes.  ``arrays`` lists the arrays of one value, which are made
    read-only when it is kept.  ``hits`` and ``misses`` count the calls a
    kept value answered and the values computed and kept.
    """

    def __init__(
        self, name: str, limit: int, arrays: Callable[[Any], Iterable[Any]]
    ) -> None:
        self.name = name
        self.limit = limit
        self._arrays = arrays
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self.held = 0
        self.hits = 0
        self.misses = 0
        MEMOS[name] = self

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.held = 0

    def keeps(self, size: int = 1) -> bool:
        """Whether a value of ``size`` would be kept: a scope is open and it fits."""
        return bool(_depth) and size <= self.limit

    def get_or_make(self, key: Hashable, make: Callable[[], Any], size: int = 1) -> Any:
        """The value kept under ``key``, else ``make()``, kept if it fits."""
        with LOCK:
            if self.keeps(size):
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return self._entries[key][0]
                while self.held + size > self.limit:
                    # Index, do not unpack: a name bound to the evicted value
                    # would keep it alive while make() runs.
                    self.held -= self._entries.popitem(last=False)[1][1]
                value = make()
                for array in self._arrays(value):
                    array.flags.writeable = False
                self._entries[key] = (value, size)
                self.held += size
                self.misses += 1
                return value
        return make()


@contextlib.contextmanager
def experiment_scope() -> Iterator[None]:
    """Keep experiment-memo values until the outermost scope exits.

    With memos off (:func:`use_memos`) the scope does not open.
    """
    global _depth
    if _profiles is None:
        yield
        return
    with LOCK:
        _depth += 1
    try:
        yield
    finally:
        with LOCK:
            _depth -= 1
            if not _depth:
                for memo in MEMOS.values():
                    memo.clear()


def reused_within_scope(
    limit: int, tables: Callable[[Any], Iterable[Any]]
) -> Callable:
    """Decorate a seeded generator so a scope reuses its results.

    ``limit`` bounds the results kept; ``tables`` lists the tables of one
    result, whose columns are made read-only when it is kept.  Keys are
    the bound arguments with defaults applied, each as ``(type, value)``,
    so ``10`` and ``10.0`` are distinct entries and a result always
    carries its caller's argument types.
    """

    def columns(result):
        return [table[name] for table in tables(result) for name in table.column_names]

    def decorate(generate: Callable) -> Callable:
        signature = inspect.signature(generate)
        memo = ScopedLRU(generate.__name__, limit, columns)

        @functools.wraps(generate)
        def generate_or_reuse(*args, **kwargs):
            if not memo.keeps():
                return generate(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple((type(v), v) for v in bound.arguments.values())
            return memo.get_or_make(key, lambda: generate(*args, **kwargs))

        return generate_or_reuse

    return decorate


def profile_memo() -> Optional[MemoStore]:
    """The session profile memo, or ``None`` while memos are off."""
    return _profiles


def profiled(
    key: Callable[[], str], compute: Callable[[], Dict[str, Any]]
) -> Dict[str, Any]:
    """``compute()``'s JSON-safe value, answered by the profile memo under ``key()``.

    With memos off the key is never built and nothing is stored.
    """
    store = _profiles
    if store is None:
        return compute()
    memo_key = key()
    value = store.get(memo_key)
    if value is None:
        value = compute()
        store.put(memo_key, value)
    return value


@contextlib.contextmanager
def use_memos(
    enabled: bool = True, directory: Optional[Union[str, pathlib.Path]] = None
) -> Iterator[Optional[MemoStore]]:
    """Turn every memo off (``enabled=False``), or give the profile memo a
    fresh disk tier in ``directory``; yields the profile memo.

    Otherwise the memos stay as they are.  Scopes nest and always restore.
    """
    global _profiles
    previous = _profiles
    if not enabled:
        _profiles = None
    elif directory is not None:
        _profiles = MemoStore(directory, memory_entries=DEFAULT_PROFILE_ENTRIES)
    try:
        yield _profiles
    finally:
        _profiles = previous


def traffic() -> Dict[str, int]:
    """Memo traffic so far: profile-memo and experiment-memo hits and misses."""
    store = _profiles
    return {
        "memo.hits": store.hits if store is not None else 0,
        "memo.misses": store.misses if store is not None else 0,
        "reuse.hits": sum(memo.hits for memo in MEMOS.values()),
        "reuse.misses": sum(memo.misses for memo in MEMOS.values()),
    }
