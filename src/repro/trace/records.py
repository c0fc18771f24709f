"""Typed trace records: what a :class:`~repro.trace.tracer.Tracer` collects.

Four record kinds cover the whole stack:

* :class:`Span` — a named interval with a start and a duration.  Operator
  phases (the cost model's bulk-synchronous phases) are spans measured in
  simulated **cycles**; higher layers may record spans in seconds.
* :class:`Event` — a point occurrence: a query arrival, a dispatch
  decision, an EDMM overflow admission, an enclave allocation.  Events in
  simulated time carry ``time_s``; events with no meaningful clock (the
  enclave has none) leave it ``None``.
* :class:`Counter` / :class:`Gauge` — the registry snapshot a tracer
  appends when it is exported: monotonically accumulated counts and
  last-written level values.

Every record serializes to a flat JSON-able dict via :meth:`as_dict` and
round-trips through :func:`record_from_dict`; free-form context lives in
the ``attrs`` mapping so exporters never need kind-specific columns.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Mapping, NamedTuple, Optional

from repro.errors import BenchmarkError

#: The trace format version written into exported headers.
TRACE_FORMAT = 1

#: The ``attrs`` of a record built without any: read-only, because the
#: default is one object shared by every such record.
_NO_ATTRS: Mapping[str, Any] = MappingProxyType({})


def _clean_attrs(attrs: Mapping[str, Any]) -> Dict[str, Any]:
    """A plain dict copy of ``attrs`` (records never alias caller state)."""
    return {str(key): value for key, value in attrs.items()}


# The four kinds are named tuples, not frozen dataclasses: a traced
# serving run builds hundreds of thousands of events, and a tuple is built
# in one step, without a frozen dataclass's per-field
# ``object.__setattr__`` calls.  Equality stays per kind (see
# ``_same_kind`` below), as it was for the dataclasses.


class Span(NamedTuple):
    """A named interval: one operator phase, one priced section."""

    name: str
    category: str  # e.g. "operator-phase"
    start: float
    duration: float
    unit: str = "cycles"
    attrs: Mapping[str, Any] = _NO_ATTRS

    kind = "span"

    @property
    def end(self) -> float:
        return self.start + self.duration

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "duration": self.duration,
            "unit": self.unit,
            "attrs": _clean_attrs(self.attrs),
        }


class Event(NamedTuple):
    """A point occurrence, optionally stamped with simulated seconds."""

    name: str
    time_s: Optional[float] = None
    attrs: Mapping[str, Any] = _NO_ATTRS

    kind = "event"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "time_s": self.time_s,
            "attrs": _clean_attrs(self.attrs),
        }


class Counter(NamedTuple):
    """A monotonically accumulated count, snapshotted at export time."""

    name: str
    value: int

    kind = "counter"

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name, "value": self.value}


class Gauge(NamedTuple):
    """A last-written level value (e.g. an EPC high-water mark)."""

    name: str
    value: float

    kind = "gauge"

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name, "value": self.value}


def _same_kind(self, other):
    """Tuple equality within one record kind: ``Counter("n", 1)`` is not
    ``Gauge("n", 1)``, nor a plain tuple of the same fields."""
    if type(other) is type(self):
        return tuple.__eq__(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def _other_kind(self, other):
    same = _same_kind(self, other)
    return same if same is NotImplemented else not same


# Assigned after the class bodies so each kind keeps tuple hashing.
for _kind in (Span, Event, Counter, Gauge):
    _kind.__eq__ = _same_kind
    _kind.__ne__ = _other_kind
del _kind


def record_from_dict(payload: Mapping[str, Any]):
    """Rebuild a typed record from its :meth:`as_dict` form."""
    try:
        kind = payload["kind"]
    except KeyError:
        raise BenchmarkError(f"trace record without a kind: {payload!r}") from None
    if kind == Span.kind:
        return Span(
            name=payload["name"],
            category=payload["category"],
            start=payload["start"],
            duration=payload["duration"],
            unit=payload.get("unit", "cycles"),
            attrs=dict(payload.get("attrs", {})),
        )
    if kind == Event.kind:
        return Event(
            name=payload["name"],
            time_s=payload.get("time_s"),
            attrs=dict(payload.get("attrs", {})),
        )
    if kind == Counter.kind:
        return Counter(name=payload["name"], value=int(payload["value"]))
    if kind == Gauge.kind:
        return Gauge(name=payload["name"], value=float(payload["value"]))
    raise BenchmarkError(f"unknown trace record kind {kind!r}")
