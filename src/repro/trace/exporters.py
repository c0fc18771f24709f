"""Trace exporters: JSON lines, their CSV view, and the reader.

JSON lines is the trace format a session writes: one record per line,
keys sorted, so two identical runs produce byte-identical files (the
determinism the golden-shape tests rely on).  CSV flattens the same
records into a fixed column set for spreadsheet triage; nested ``attrs``
are carried as one JSON-encoded column.  Records read back exactly as
they were written, so ``to_csv(read_jsonl(path))`` renders a written
trace's CSV on request (``sgxv2-bench trace-csv DIR``).

Both exporters write events through one shape encoder.  A shape is an
event name with its attrs keys in insertion order; each is compiled once
per export into a ``%`` template holding the JSON texts of the sorted
keys and the line's tail (a CSV row's template has its quotes doubled).
Values are written by exact type, as ``json`` writes them: ``str``
through ``encode_basestring_ascii``, finite ``float`` through
``float.__repr__``, ``int`` through ``int.__repr__``, and ``True``,
``False`` and ``None``.  String and float texts are memoized for the
export, in memos emptied past :data:`MEMO_LIMIT` entries; zeros skip the
float memo, since ``0.0`` and ``-0.0`` are one key.  Any other record is
formatted whole from its :meth:`as_dict`, exactly as
``json.dumps(..., sort_keys=True)`` and ``csv.writer`` format it: spans,
counters, gauges, and events with a non-``str`` name, a non-``str`` key,
a non-finite float, a container, or a subclass (an ``IntEnum`` too) in
their time or attrs.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Union

from repro.errors import BenchmarkError
from repro.trace.records import Event, record_from_dict
from repro.trace.tracer import TraceRecord

#: Flat CSV column set shared by every record kind.
CSV_COLUMNS = (
    "kind",
    "name",
    "category",
    "start",
    "duration",
    "unit",
    "time_s",
    "value",
    "attrs",
)

_CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"

_ENCODER = json.JSONEncoder(sort_keys=True)

#: ``json.dumps(value, sort_keys=True)``, without a new encoder per call.
_encode = _ENCODER.encode

#: Entries a memo of one export holds before it is emptied.  A trace's
#: floats are mostly distinct, so an unbounded memo would hold one text
#: per float of the whole trace.
MEMO_LIMIT = 4096

#: ``csv.writer`` (QUOTE_MINIMAL) writes a field free of these unquoted.
_CSV_SPECIAL = frozenset(',"\r\n')

#: How ``json`` writes a string, a float and an int.
_escape = json.encoder.encode_basestring_ascii
_float_text = float.__repr__
_int_text = int.__repr__


def _records(source) -> List[TraceRecord]:
    """Normalize a tracer or a record iterable into a record list."""
    snapshot = getattr(source, "snapshot", None)
    if callable(snapshot):
        return snapshot()
    return list(source)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted exactly as ``csv.writer`` does."""
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1]


def _csv_value(value) -> str:
    """One column of a CSV row, formatted as ``csv.writer`` formats it."""
    if value is None:
        return ""
    return _csv_field(value if isinstance(value, str) else str(value))


def _generic_line(record) -> str:
    """Any record's JSON line, formatted from its :meth:`as_dict` form."""
    return _encode(record.as_dict()) + "\n"


def _generic_row(record) -> str:
    """Any record's CSV row, formatted from its :meth:`as_dict` form."""
    payload = record.as_dict()
    attrs = payload.pop("attrs", {})
    row = [_csv_value(payload.get(column, "")) for column in CSV_COLUMNS[:-1]]
    encoded = _encode(attrs)
    row.append("" if encoded == "{}" else '"' + encoded.replace('"', '""') + '"')
    return ",".join(row) + "\n"


def _event_encoder(csv_rows: bool):
    """One export's shape encoder: ``encode(record)`` is an event's JSON
    line (or CSV row), or ``None`` when the record needs the generic path.

    Shapes are looked up by key equality, so a ``str``-subclass key shares
    the shape of the equal plain key and is written as that key, as
    :meth:`as_dict`'s ``str(key)`` writes it.
    """
    null_time = "" if csv_rows else "null"
    shapes: Dict[tuple, object] = {}
    strings: Dict[str, str] = {}
    floats: Dict[float, str] = {}

    def compile_shape(name: str, attrs: dict):
        if any(type(key) is not str for key in attrs):
            return None
        keys = sorted(attrs)
        fields = ", ".join(
            _escape(key).replace("%", "%%") + ": %s" for key in keys
        )
        if csv_rows:
            fields = fields.replace('"', '""')
            template = (
                f"event,{_csv_field(name).replace('%', '%%')},,,,,%s,,"
                + ('"{' + fields + '}"' if keys else "")
                + "\n"
            )
        else:
            template = (
                '{"attrs": {' + fields + '}, "kind": "event", "name": '
                + _escape(name).replace("%", "%%")
                + ', "time_s": %s}\n'
            )
        if len(keys) > 1:
            values = itemgetter(*keys)
        elif keys:
            values = lambda attrs, key=keys[0]: (attrs[key],)
        else:
            values = lambda attrs: ()
        return template, values

    def new_float(value: float) -> Optional[str]:
        """A float missing from the memo: its text, memoized unless it is
        a zero (``0.0`` and ``-0.0`` are one key); ``None`` if not finite."""
        if value - value != 0.0:
            return None
        text = _float_text(value)
        if value:
            if len(floats) >= MEMO_LIMIT:
                floats.clear()
            floats[value] = text
        return text

    def encode(record) -> Optional[str]:
        if type(record) is not Event:
            return None
        name, time_s, attrs = record
        if type(name) is not str or type(attrs) is not dict:
            return None
        if time_s is None:
            time_text = null_time
        elif type(time_s) is float:
            time_text = floats.get(time_s) or new_float(time_s)
            if time_text is None:
                return None
        else:
            return None
        key = (name, *attrs)
        shape = shapes.get(key, False)
        if shape is False:
            if len(shapes) >= MEMO_LIMIT:
                shapes.clear()
            shape = shapes[key] = compile_shape(name, attrs)
        if shape is None:
            return None
        template, values = shape
        texts = [time_text] if csv_rows else []
        for value in values(attrs):
            kind = type(value)
            if kind is str:
                text = strings.get(value)
                if text is None:
                    text = _escape(value)
                    if csv_rows:
                        text = text.replace('"', '""')
                    if len(strings) >= MEMO_LIMIT:
                        strings.clear()
                    strings[value] = text
            elif kind is float:
                text = floats.get(value) or new_float(value)
                if text is None:
                    return None
            elif kind is int:
                text = _int_text(value)
            elif value is None:
                text = "null"
            elif value is True:
                text = "true"
            elif value is False:
                text = "false"
            else:
                return None
            texts.append(text)
        if not csv_rows:
            texts.append(time_text)
        return template % tuple(texts)

    return encode


def to_jsonl(source) -> str:
    """The JSON-lines text of ``source`` (a tracer or record iterable)."""
    encode = _event_encoder(csv_rows=False)
    lines: List[str] = []
    for record in _records(source):
        lines.append(encode(record) or _generic_line(record))
    return "".join(lines)


def to_csv(source) -> str:
    """The CSV text of ``source`` (a tracer or record iterable).

    Rows end in ``"\\n"`` like the JSON-lines export, so the CSV of one
    trace is byte-deterministic across platforms.
    """
    encode = _event_encoder(csv_rows=True)
    rows: List[str] = [_CSV_HEADER]
    for record in _records(source):
        rows.append(encode(record) or _generic_row(record))
    return "".join(rows)


def _write(text: str, path: Union[str, pathlib.Path]) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def write_jsonl(source, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write ``source`` as JSON-lines to ``path``; returns the path."""
    return _write(to_jsonl(source), path)


def write_csv(source, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write ``source`` as CSV to ``path``; returns the path."""
    return _write(to_csv(source), path)


def read_jsonl(
    source: Union[str, pathlib.Path, Iterable[str]]
) -> List[TraceRecord]:
    """Load typed records back from a JSON-lines file (or line iterable)."""
    if isinstance(source, (str, pathlib.Path)):
        lines = pathlib.Path(source).read_text().splitlines()
    else:
        lines = list(source)
    records = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BenchmarkError(f"trace line {number} is not JSON: {exc}") from None
        records.append(record_from_dict(payload))
    return records
