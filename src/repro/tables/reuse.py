"""Reuse of seeded generated data within one scope (one experiment).

The paper's protocol repeats each measurement over a few seeds, and the
experiments follow it one (row, column) cell at a time, so many cells ask
for the very same seeded dataset.  Generation is deterministic in its
arguments, so inside a :func:`reuse_generated_data` scope a generator
decorated with :func:`reused_within_scope` returns the *same* object for
the same bound arguments instead of generating it again.

Reused data is shared between cells, so every memoized column is made
read-only (``flags.writeable = False``): an operator that writes its input
raises ``ValueError`` instead of silently changing a later cell's input.
Outside a scope the generators are untouched: each call returns fresh,
writable arrays.

Each generator keeps a small LRU that evicts *before* it generates, so no
more than its bound of datasets is alive at once.  The memo is emptied
when the outermost scope exits, even on an exception, so nothing outlives
the experiment that generated it.  Scopes nest and may be shared with the
repetition threads of :func:`repro.bench.runner.repeat_runs`; one lock
guards all of it.

Other deterministic results derived from that data may be memoized under
the same scope: :func:`register_scoped_memo` adds a memo to the ones the
outermost scope empties, and such a memo takes :data:`LOCK` and checks
:func:`reuse_active` the way the generators do.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterable, Iterator, Sized

from repro.tables.table import Table

#: Guards every scoped memo and the scope depth.
LOCK = threading.RLock()
_depth = 0
#: Memo name -> the memo (a generator's LRU of argument key -> value, or a
#: registered memo); each has ``clear()`` and ``len()``.
_MEMOS: Dict[str, Sized] = {}


@contextlib.contextmanager
def reuse_generated_data() -> Iterator[None]:
    """Reuse generated datasets by argument until the outermost scope exits."""
    global _depth
    with LOCK:
        _depth += 1
    try:
        yield
    finally:
        with LOCK:
            _depth -= 1
            if not _depth:
                for entries in _MEMOS.values():
                    entries.clear()


def reuse_active() -> bool:
    """Whether a :func:`reuse_generated_data` scope is open."""
    return bool(_depth)


def register_scoped_memo(name: str, memo: Sized) -> None:
    """Have the outermost scope's exit call ``memo.clear()``."""
    _MEMOS[name] = memo


def reused_entries() -> Dict[str, int]:
    """Memo name -> entries it holds right now."""
    with LOCK:
        return {name: len(entries) for name, entries in _MEMOS.items()}


def reused_within_scope(
    keep: int, tables: Callable[[object], Iterable[Table]]
) -> Callable:
    """Decorate a seeded generator so a scope reuses its results.

    ``keep`` bounds the LRU; ``tables`` lists the tables of one result,
    whose columns are made read-only when the result is memoized.  Keys
    are the bound arguments with defaults applied, each as ``(type,
    value)``, so ``10`` and ``10.0`` are distinct entries and a result
    always carries its caller's argument types.
    """

    def decorate(generate: Callable) -> Callable:
        signature = inspect.signature(generate)
        entries: "OrderedDict[tuple, object]" = OrderedDict()
        _MEMOS[generate.__name__] = entries

        @functools.wraps(generate)
        def generate_or_reuse(*args, **kwargs):
            if not _depth:
                return generate(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple((type(v), v) for v in bound.arguments.values())
            with LOCK:
                if not _depth:
                    return generate(*args, **kwargs)
                if key in entries:
                    entries.move_to_end(key)
                    return entries[key]
                while len(entries) >= keep:
                    entries.popitem(last=False)
                value = generate(*args, **kwargs)
                for table in tables(value):
                    for name in table.column_names:
                        table[name].flags.writeable = False
                entries[key] = value
                return value

        return generate_or_reuse

    return decorate
