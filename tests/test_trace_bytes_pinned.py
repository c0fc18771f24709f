"""Pinned bytes of real traced exports, JSON-lines and CSV.

The digests were computed before the trace exporters were rewritten, so
any change to a traced run's exported bytes fails here.  A session
writes only the JSON lines; the CSV digests pin the CSV that
``sgxv2-bench trace-csv`` renders from them.
"""

import hashlib

import pytest

from repro.bench.parallel import run_session
from repro.trace import read_jsonl, to_csv

#: sha256 of the traced quick-fidelity exports at the default seed, pinned
#: before the one-pass encoder replaced the two exporters.
PINNED = {
    "wl01": {
        "trace_jsonl": "60daf6133dbdcee171b754306680ba21b70eb84dec42cfb0048ec7ef00b310cf",
        "trace_csv": "86fe304fc0dee2a5b177921eff4d758d4cc87f5493589fc33c2c522055fbdd39",
    },
    "wl04": {
        "trace_jsonl": "d944ca3ba7491cd99342abed2b26214072428d655e8bfabd0d06ae835ddbcbdb",
        "trace_csv": "da6d912c2e201089c70823aaac54c4a6fa1f827004d450cceb1ef3e4c37476ed",
    },
    # Pinned before events were built as one dict each and encoded by
    # shape: the largest trace, a cluster's routes and failovers.
    "wl06": {
        "trace_jsonl": "254ed697dd7507ebe2a51995e424cd05e4d6acaa83c20dcff43e10d7cdbd792a",
        "trace_csv": "977ab4ff9779430182b798f83730efc1302ee07e21865e829ccc67417166abfe",
    },
    # Pinned before the dispatch penalty terms became stages: its
    # spills, storage faults and shards run through every stage.
    "wl07": {
        "trace_jsonl": "f856be8af2cc3e5053755d56393997033d0c67bb2590ed155d46d8b6a4fe76b2",
        "trace_csv": "e8b451e79224df68ba64b11a88bd1a8134adf735deba6374b2050ca923272a24",
    },
}


@pytest.fixture(scope="module")
def traced_session():
    return run_session(sorted(PINNED), traced=True)


@pytest.mark.parametrize("experiment_id", sorted(PINNED))
@pytest.mark.parametrize("field", ["trace_jsonl", "trace_csv"])
def test_traced_export_bytes_pinned(traced_session, experiment_id, field):
    (run,) = [r for r in traced_session.runs if r.experiment_id == experiment_id]
    text = run.trace_jsonl
    if field == "trace_csv":
        text = to_csv(read_jsonl(text.splitlines()))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED[experiment_id][field]
