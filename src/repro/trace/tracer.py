"""The tracer: collection, the counters/gauges registry, and installation.

Instrumentation sites throughout the stack fetch the process-current
tracer via :func:`current_tracer` and emit only when ``tracer.enabled`` is
true.  The default is the shared :data:`NULL_TRACER`, whose methods are
no-ops, so an untraced run pays one attribute read per potential record —
tracing off is the zero-overhead path and changes no results either way
(tracers only observe; they never touch RNG state or simulated time).

Install a real tracer for a scope with :func:`use_tracer`::

    tracer = Tracer()
    with use_tracer(tracer):
        run_experiment("wl01")
    write_jsonl(tracer, "out/wl01.trace.jsonl")

:func:`tee` composes sinks: an experiment that wants a private per-run
trace while a CLI-level trace is also active records into both.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.trace.records import Counter, Event, Gauge, Span

TraceRecord = Union[Span, Event, Counter, Gauge]

#: Builds an :class:`Event` from its field tuple without the named
#: tuple's Python-level ``__new__``: the hot path of a traced run.
_tuple_new = tuple.__new__


class Tracer:
    """Collects typed records plus a counters/gauges registry."""

    enabled = True

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.records: List[TraceRecord] = []
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}

    # -- emission --------------------------------------------------------

    def span(
        self,
        name: str,
        *,
        category: str,
        start: float,
        duration: float,
        unit: str = "cycles",
        **attrs: Any,
    ) -> Span:
        record = Span(name, category, start, duration, unit, attrs)
        self.records.append(record)
        return record

    def event(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        time_s: Optional[float] = None,
    ) -> Event:
        """Record one event.  ``attrs`` becomes the record's own dict, so
        the caller builds it for this event and never touches it again."""
        record = _tuple_new(Event, (name, time_s, {} if attrs is None else attrs))
        self.records.append(record)
        return record

    def count(self, name: str, delta: int = 1) -> None:
        """Accumulate ``delta`` onto the named counter."""
        self._counters[name] = self._counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest level."""
        self._gauges[name] = value

    # -- inspection ------------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    def snapshot(self) -> List[TraceRecord]:
        """Records plus the registry, in a deterministic export order."""
        registry: List[TraceRecord] = [
            Counter(name, value) for name, value in sorted(self._counters.items())
        ]
        registry += [
            Gauge(name, value) for name, value in sorted(self._gauges.items())
        ]
        return list(self.records) + registry

    def __len__(self) -> int:
        return len(self.records)


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    enabled = False
    label = ""

    def span(self, name: str, **kwargs: Any) -> None:
        return None

    def event(self, name: str, attrs=None, time_s=None) -> None:
        return None

    def count(self, name: str, delta: int = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    @property
    def counters(self) -> Dict[str, int]:
        return {}

    @property
    def gauges(self) -> Dict[str, float]:
        return {}

    def snapshot(self) -> List[TraceRecord]:
        return []

    def __len__(self) -> int:
        return 0


class TeeTracer:
    """Fans every record out to each child tracer.

    A span or event is built once and the same frozen record is appended
    to every child's ``records``; counters and gauges fan out per child.
    Nested tees flatten into their leaves, so every child is a plain
    :class:`Tracer` and a record reaches each leaf once however the tees
    were composed.
    """

    enabled = True

    def __init__(self, children: Sequence[Union[Tracer, "TeeTracer"]]) -> None:
        leaves: List[Tracer] = []
        for child in children:
            if isinstance(child, TeeTracer):
                leaves.extend(child.children)
            else:
                leaves.append(child)
        self.children = tuple(leaves)
        self.label = "+".join(c.label for c in self.children if c.label)

    def span(
        self,
        name: str,
        *,
        category: str,
        start: float,
        duration: float,
        unit: str = "cycles",
        **attrs: Any,
    ) -> Span:
        record = Span(name, category, start, duration, unit, attrs)
        for child in self.children:
            child.records.append(record)
        return record

    def event(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        time_s: Optional[float] = None,
    ) -> Event:
        record = _tuple_new(Event, (name, time_s, {} if attrs is None else attrs))
        for child in self.children:
            child.records.append(record)
        return record

    def count(self, name: str, delta: int = 1) -> None:
        for child in self.children:
            child.count(name, delta)

    def gauge(self, name: str, value: float) -> None:
        for child in self.children:
            child.gauge(name, value)

    def snapshot(self) -> List[TraceRecord]:
        return self.children[0].snapshot() if self.children else []

    def __len__(self) -> int:
        return len(self.children[0]) if self.children else 0


def tee(*tracers) -> Union[Tracer, NullTracer, TeeTracer]:
    """Compose tracers into one sink, dropping disabled ones."""
    enabled = [t for t in tracers if t is not None and t.enabled]
    if not enabled:
        return NULL_TRACER
    if len(enabled) == 1:
        return enabled[0]
    return TeeTracer(enabled)


#: The shared disabled tracer (also the default current tracer).
NULL_TRACER = NullTracer()

_current: Union[Tracer, NullTracer, TeeTracer] = NULL_TRACER


def current_tracer() -> Union[Tracer, NullTracer, TeeTracer]:
    """The tracer instrumentation sites should emit to right now."""
    return _current


@contextlib.contextmanager
def use_tracer(tracer: Union[Tracer, NullTracer, TeeTracer]) -> Iterator:
    """Install ``tracer`` as the current tracer for the ``with`` scope."""
    global _current
    previous = _current
    _current = tracer if tracer is not None else NULL_TRACER
    try:
        yield tracer
    finally:
        _current = previous
