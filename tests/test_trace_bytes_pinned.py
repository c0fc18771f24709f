"""Pinned bytes of real traced exports, JSON-lines and CSV.

The digests were computed before the trace exporters were rewritten, so
any change to a traced run's exported bytes fails here.  The test uses
only ``run_session`` and so runs unchanged against older checkouts.
"""

import hashlib

import pytest

from repro.bench.parallel import run_session

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
}


@pytest.fixture(scope="module")
def traced_session():
    return run_session(sorted(PINNED), traced=True)


@pytest.mark.parametrize("experiment_id", sorted(PINNED))
@pytest.mark.parametrize("field", ["trace_jsonl", "trace_csv"])
def test_traced_export_bytes_pinned(traced_session, experiment_id, field):
    (run,) = [r for r in traced_session.runs if r.experiment_id == experiment_id]
    digest = hashlib.sha256(getattr(run, field).encode()).hexdigest()
    assert digest == PINNED[experiment_id][field]
