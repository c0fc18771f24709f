"""Trace exporters: JSON-lines and CSV from one encoding pass, plus the reader.

JSON-lines is the canonical interchange format: one record per line,
keys sorted, so two identical runs produce byte-identical files (the
determinism the golden-shape tests rely on).  CSV flattens the same
records into a fixed column set for spreadsheet triage; nested ``attrs``
are carried as one JSON-encoded column.

:func:`export_texts` builds both texts in a single walk over the records.
An event's ``attrs`` are JSON-encoded once, and that one string is
spliced into the JSON line (``attrs`` sorts first among the keys) and,
quoted, into the CSV row; event names are encoded once per export.
Events with a finite ``float`` or ``None`` time, a ``str`` name and
string-keyed ``attrs`` take that path.  Every other record (spans,
counters, gauges, non-finite or float-subclass times, non-string names
or keys) is formatted from its :meth:`as_dict` exactly as
``json.dumps(..., sort_keys=True)`` and ``csv.writer`` format it.
:func:`to_jsonl`, :func:`to_csv` and the ``write_*`` helpers are views
over that one encoder.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from typing import Dict, Iterable, List, Optional, Tuple, Union

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


def _reused_encoder():
    """``_encode`` for ``attrs`` dicts, with one C encoder built up front.

    ``JSONEncoder.encode`` builds a fresh C encoder (and a Python closure
    chain) on every call, which is most of its cost for the small dicts of
    trace events.  This builds the same encoder once, with ``encode``'s
    settings.  Its circular-reference markers are cleared when an encode
    fails, since the C encoder leaves them behind then.  Without the
    ``_json`` accelerator, ``_encode`` itself is used.
    """
    make_encoder = json.encoder.c_make_encoder
    if make_encoder is None:
        return _encode
    markers: Dict[int, object] = {}
    chunks = make_encoder(
        markers,
        _ENCODER.default,
        json.encoder.encode_basestring_ascii,
        _ENCODER.indent,
        _ENCODER.key_separator,
        _ENCODER.item_separator,
        _ENCODER.sort_keys,
        _ENCODER.skipkeys,
        _ENCODER.allow_nan,
    )

    def encode(value) -> str:
        try:
            return "".join(chunks(value, 0))
        except BaseException:
            markers.clear()
            raise

    return encode


#: ``_encode`` for one record's ``attrs`` dict.
_encode_attrs = _reused_encoder()

#: ``csv.writer`` (QUOTE_MINIMAL) writes a field free of these unquoted.
_CSV_SPECIAL = frozenset(',"\r\n')

#: A (JSON, CSV) text pair: one value's encodings, or one record's line and row.
_Texts = Tuple[str, str]


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


def _csv_attrs(encoded: str) -> str:
    """The CSV field of a non-empty encoded ``attrs`` (always quoted)."""
    return '"' + encoded.replace('"', '""') + '"'


def _csv_value(value) -> str:
    """One column of a CSV row, formatted as ``csv.writer`` formats it."""
    if value is None:
        return ""
    return _csv_field(value if isinstance(value, str) else str(value))


def _attrs(attrs) -> Optional[_Texts]:
    """``attrs``' (JSON text, CSV field) when keyed by plain strings."""
    if type(attrs) is not dict:
        return None
    if not attrs:
        return "{}", ""
    for key in attrs:
        if type(key) is not str:
            return None
    encoded = _encode_attrs(attrs)
    return encoded, _csv_attrs(encoded)


def _event(record: Event, names: Dict[str, _Texts]) -> Optional[_Texts]:
    """An event's (JSON line, CSV row), or ``None`` for unusual fields."""
    time_s = record.time_s
    if time_s is None:
        time_json, time_csv = "null", ""
    elif type(time_s) is float and time_s - time_s == 0.0:
        time_json = time_csv = repr(time_s)
    else:
        return None
    name = record.name
    attrs = _attrs(record.attrs)
    if type(name) is not str or attrs is None:
        return None
    encoded = names.get(name)
    if encoded is None:
        encoded = names[name] = (_encode(name), _csv_field(name))
    return (
        f'{{"attrs": {attrs[0]}, "kind": "event", "name": {encoded[0]}, '
        f'"time_s": {time_json}}}\n',
        f"event,{encoded[1]},,,,,{time_csv},,{attrs[1]}\n",
    )


def _generic(record) -> _Texts:
    """Any record, formatted from its :meth:`as_dict` form."""
    payload = record.as_dict()
    line = _encode(payload) + "\n"
    attrs = payload.pop("attrs", {})
    row = [_csv_value(payload.get(column, "")) for column in CSV_COLUMNS[:-1]]
    row.append(_csv_attrs(_encode(attrs)) if attrs else "")
    return line, ",".join(row) + "\n"


def export_texts(source) -> Tuple[str, str]:
    """The JSON-lines and CSV texts of ``source``, encoded in one pass.

    ``source`` is a tracer (its :meth:`snapshot` is exported) or an
    iterable of records.
    """
    lines: List[str] = []
    rows: List[str] = [_CSV_HEADER]
    names: Dict[str, _Texts] = {}
    for record in _records(source):
        texts = _event(record, names) if type(record) is Event else None
        line, row = texts or _generic(record)
        lines.append(line)
        rows.append(row)
    return "".join(lines), "".join(rows)


def to_jsonl(source) -> str:
    """The JSON-lines text of ``source`` (a tracer or record iterable)."""
    return export_texts(source)[0]


def to_csv(source) -> str:
    """The CSV text of ``source`` (a tracer or record iterable).

    Rows end in ``"\\n"`` like the JSON-lines export, so both exports of
    one trace are byte-deterministic across platforms.
    """
    return export_texts(source)[1]


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
