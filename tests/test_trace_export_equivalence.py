"""Byte-equivalence of the trace exporters with their predecessors.

``to_jsonl`` and ``to_csv`` JSON-encode each event's ``attrs`` with one
reused encoder and splice that string into the line or row.  The
reference exporters below are the earlier code they replaced:
``json.dumps(record.as_dict(), sort_keys=True)`` per line and a
``csv.DictWriter`` over the flattened record.  The properties assert
identical text for every record kind and for the formatting edge cases
(``time_s=None``, non-finite floats, float subclasses, names that need
CSV quoting, non-string attrs keys).  Real traced runs must render the
same CSV from their read-back JSON lines as from their in-memory
records.  ``test_trace_bytes_pinned.py`` holds real traced exports byte
for byte.
"""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.registry import run_experiment
from repro.trace import (
    Counter,
    Event,
    Gauge,
    Span,
    Tracer,
    read_jsonl,
    to_csv,
    to_jsonl,
)

# -- reference implementations (the replaced code) ---------------------------

REFERENCE_COLUMNS = (
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


def reference_jsonl(records) -> str:
    lines = [json.dumps(record.as_dict(), sort_keys=True) for record in records]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_csv(records) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=REFERENCE_COLUMNS, lineterminator="\n"
    )
    writer.writeheader()
    for record in records:
        payload = record.as_dict()
        attrs = payload.pop("attrs", {})
        row = {column: payload.get(column, "") for column in REFERENCE_COLUMNS}
        row["attrs"] = json.dumps(attrs, sort_keys=True) if attrs else ""
        writer.writerow(row)
    return buffer.getvalue()


def _outcome(export, records):
    """An export's text, or the type of the error it raised."""
    try:
        return export(records)
    except (TypeError, ValueError) as exc:
        return type(exc)


def assert_equivalent(records) -> None:
    """Each exporter gives its reference's text, or raises its error."""
    records = list(records)
    assert _outcome(to_jsonl, records) == _outcome(reference_jsonl, records)
    assert _outcome(to_csv, records) == _outcome(reference_csv, records)


# -- explicit edge cases -----------------------------------------------------

AWKWARD_NAMES = ["a,b", 'say "hi"', "line\nbreak", "carriage\rreturn", "", " x "]
NON_FINITE = [math.inf, -math.inf, math.nan]

EDGE_RECORDS = [
    pytest.param(Event("e", time_s=None, attrs={"k": 1}), id="time-none"),
    pytest.param(Event("e", time_s=None), id="time-none-no-attrs"),
    pytest.param(Event("e", time_s=3), id="time-int"),
    pytest.param(Event("e", time_s=True), id="time-bool"),
    pytest.param(Event("e", time_s=-0.0), id="time-negative-zero"),
    pytest.param(Event("e", time_s=1e-300), id="time-tiny"),
    *[
        pytest.param(Event("e", time_s=value), id=f"time-{value}")
        for value in NON_FINITE
    ],
    pytest.param(Event("e", time_s=np.float64(0.1)), id="time-np-float64"),
    pytest.param(Event("e", time_s=np.float32(0.1)), id="time-np-float32"),
    *[
        pytest.param(Event(name, time_s=1.0, attrs={"k": name}), id=f"name-{i}")
        for i, name in enumerate(AWKWARD_NAMES)
    ],
    pytest.param(Event(7, time_s=1.0), id="name-int"),
    pytest.param(
        Event("e", attrs={"v": math.nan, "w": math.inf, "x": np.float64(2.5)}),
        id="attrs-non-finite-and-np",
    ),
    pytest.param(Event("e", attrs={2: "int key", "1": "str"}), id="attrs-int-key"),
    pytest.param(Event("e", attrs={"b": 1, "a": {"d": [1, 2], "c": None}}),
                 id="attrs-nested"),
    pytest.param(Event("e", attrs={"q": 'a "quoted", line\n'}), id="attrs-quotes"),
    pytest.param(Event("é", attrs={"ü": "ß"}), id="non-ascii"),
    pytest.param(
        Span("hist1", category="operator-phase", start=0.0, duration=123.5,
             attrs={"setting": "Plain CPU", "threads": 16}),
        id="span",
    ),
    pytest.param(Span("s", category="c", start=10, duration=2), id="span-int"),
    pytest.param(
        Span("s", category="c,d", start=math.inf, duration=math.nan, unit="s\n"),
        id="span-awkward",
    ),
    pytest.param(
        Span("s", category="c", start=np.float64(1.5), duration=np.float64(0.1)),
        id="span-np-float64",
    ),
    pytest.param(Counter("enclave.allocations", 3), id="counter"),
    pytest.param(Counter('a,"b"', 0), id="counter-awkward-name"),
    pytest.param(Counter("c", np.int64(4)), id="counter-np-int64-unencodable"),
    pytest.param(Gauge("scheduler.epc_high_water_bytes", 1e9), id="gauge"),
    *[
        pytest.param(Gauge("g", value), id=f"gauge-{value}")
        for value in NON_FINITE
    ],
    pytest.param(Gauge("g", np.float64(0.3)), id="gauge-np-float64"),
]


@pytest.mark.parametrize("record", EDGE_RECORDS)
def test_edge_record_matches_reference(record):
    assert_equivalent([record])


def test_all_edge_records_in_one_export():
    records = [param.values[0] for param in EDGE_RECORDS]
    assert_equivalent(records)


def test_empty_export_matches_reference():
    assert_equivalent([])
    assert (to_jsonl(Tracer()), to_csv(Tracer())) == ("", reference_csv([]))


def test_views_are_halves_of_one_export():
    tracer = Tracer()
    tracer.event("query.arrival", time_s=0.5, query_id=1, cls="q3")
    tracer.span("build", category="operator-phase", start=0.0, duration=9.0)
    tracer.count("scheduler.arrivals")
    tracer.count("scheduler.spilled_bytes", 2.5e8)
    tracer.gauge("scheduler.epc_high_water_bytes", 2.5e8)
    jsonl = to_jsonl(tracer)
    assert jsonl == reference_jsonl(tracer.snapshot())
    assert to_csv(tracer) == reference_csv(tracer.snapshot())
    assert to_csv(read_jsonl(jsonl.splitlines())) == to_csv(tracer)


@pytest.mark.parametrize("experiment_id", [f"wl0{i}" for i in range(1, 9)])
def test_csv_renders_from_the_jsonl_of_a_traced_run(experiment_id):
    # ``sgxv2-bench trace-csv`` renders each CSV from the written JSON
    # lines, so every traced run's read-back records must give the CSV of
    # its in-memory records (wl07's float spill counter once read back as
    # an int).
    tracer = Tracer(label=experiment_id)
    run_experiment(experiment_id, quick=True, tracer=tracer)
    rendered = to_csv(read_jsonl(to_jsonl(tracer).splitlines()))
    assert rendered == to_csv(tracer)


# -- properties --------------------------------------------------------------

names = st.text(
    st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=12
) | st.sampled_from(AWKWARD_NAMES)
floats = st.floats(allow_nan=True, allow_infinity=True)
numbers = (
    floats
    | st.integers(-(2**70), 2**70)
    | floats.map(np.float64)
    | st.booleans()
)
leaves = st.none() | st.booleans() | floats | st.integers() | names
attr_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(names, inner, max_size=3),
    max_leaves=6,
)
attrs = st.dictionaries(names, attr_values, max_size=5) | st.dictionaries(
    st.integers(-5, 5) | names, attr_values, max_size=3
)

events = st.builds(Event, name=names, time_s=st.none() | numbers, attrs=attrs)
spans = st.builds(
    Span,
    name=names,
    category=names,
    start=numbers,
    duration=numbers,
    unit=names,
    attrs=attrs,
)
counters = st.builds(Counter, name=names, value=st.integers())
gauges = st.builds(Gauge, name=names, value=numbers)
records = st.lists(events | spans | counters | gauges, max_size=20)


@settings(max_examples=300, deadline=None)
@given(records)
def test_export_matches_reference(batch):
    assert_equivalent(batch)
