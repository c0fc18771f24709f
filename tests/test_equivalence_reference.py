"""The result-bag check and digest against the code they replaced.

``assert_equivalent`` compares bags column by column with numpy and
computes the digest once; ``bag_digest`` formats all-integer rows without
a JSON encoder.  The reference functions below are the earlier code: a
per-row ``json.dumps`` sort key, values sorted *within* each row, and the
whole bag encoded again for the digest.  The properties assert that

* the digest is byte-identical to the reference on mixed bags;
* the check passes exactly when the two bags hold the same canonical
  rows with their column order kept, and then the two reference digests
  agree, so the one digest returned speaks for both bags.
"""

import hashlib
import json
import math
from typing import Any, Iterable, List, Sequence, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import assert_equivalent, bag_digest
from repro.errors import EquivalenceError

# -- reference implementations (the replaced code) ---------------------------

QUANT_DIGITS = 9


def canonical_value(value: Any) -> Any:
    if value is None:
        return None
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (int, float, str, bytes)):
        value = item()
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "Infinity" if value > 0 else "-Infinity"
        value = round(value, QUANT_DIGITS) + 0.0  # +0.0 folds -0.0
        if value.is_integer() and abs(value) < 2**53:
            return int(value)
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, bytes):
        return value.hex()
    return str(value)


def _value_key(value: Any) -> Tuple[int, Any]:
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, value)


def canonical_row(row: Sequence[Any]) -> Tuple[Any, ...]:
    return tuple(sorted((canonical_value(v) for v in row), key=_value_key))


def canonical_bag(rows: Iterable[Sequence[Any]]) -> List[Tuple[Any, ...]]:
    return sorted(
        (canonical_row(row) for row in rows),
        key=lambda row: json.dumps(row, separators=(",", ":")),
    )


def reference_digest(rows: Iterable[Sequence[Any]]) -> str:
    payload = json.dumps(
        canonical_bag(rows), separators=(",", ":"), sort_keys=False
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def same_rows(left, right) -> bool:
    """The check's specification: equal multisets of canonical rows,
    column order kept."""

    def texts(rows):
        return sorted(
            json.dumps([canonical_value(v) for v in row]) for row in rows
        )

    return texts(left) == texts(right)


# -- strategies -------------------------------------------------------------

INT64_EDGES = (
    -(2**63) - 1, -(2**63), 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**64
)

python_ints = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.sampled_from(INT64_EDGES),
)
numpy_ints = st.one_of(
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
)
#: Within half a quantum of a multiple of 1e-9 (both sides of the step).
near_quantum = st.builds(
    lambda k, offset: k * 1e-9 + offset * 0.5e-9,
    st.integers(-(10**4), 10**4),
    st.sampled_from((-1.0, -0.999, 0.0, 0.999, 1.0)),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((-0.0, 0.0, 1.0, 2.0**53, math.nan, -math.inf)),
    near_quantum,
    st.floats(width=32).map(np.float32),
)
scalars = st.one_of(
    python_ints,
    numpy_ints,
    st.booleans(),
    floats,
    st.none(),
    st.text(max_size=3),
    st.binary(max_size=3),
)
#: Scalars whose bags take the all-integer fast path.
int_scalars = st.one_of(st.integers(-50, 50), numpy_ints, st.booleans())

ragged_bags = st.lists(
    st.lists(scalars, max_size=3).map(tuple), max_size=6
)
int_bags = st.integers(0, 3).flatmap(
    lambda width: st.lists(
        st.lists(int_scalars, min_size=width, max_size=width).map(tuple),
        max_size=8,
    )
)
mixed_bags = st.one_of(ragged_bags, int_bags)


def _equal_form(value: Any) -> Any:
    """Another value with the same canonical form."""
    canon = canonical_value(value)
    if isinstance(canon, int) and abs(canon) < 2**53:
        return float(canon) if canon else -0.0
    return value


@st.composite
def bag_pairs(draw):
    """A bag and a second bag: a reordered equal one, one with a row's
    values rotated, one whose first column is shuffled across rows (each
    column keeps its values), or an unrelated one."""
    left = draw(st.one_of(int_bags, ragged_bags))
    how = draw(
        st.sampled_from(("reordered", "rotated", "recombined", "unrelated"))
    )
    if how == "unrelated":
        return left, draw(mixed_bags)
    right = draw(st.permutations(left)) if left else []
    right = [tuple(_equal_form(v) for v in row) for row in right]
    if how == "rotated" and right:
        index = draw(st.integers(0, len(right) - 1))
        row = right[index]
        right[index] = row[1:] + row[:1]
    if how == "recombined" and all(row for row in right):
        firsts = draw(st.permutations([row[0] for row in right]))
        right = [(first,) + row[1:] for first, row in zip(firsts, right)]
    return left, right


# -- properties -------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(mixed_bags)
def test_digest_matches_reference(rows):
    assert bag_digest(rows) == reference_digest(rows)
    assert bag_digest(iter(rows)) == reference_digest(rows)


@settings(max_examples=400, deadline=None)
@given(bag_pairs())
def test_check_passes_exactly_on_equal_rows(pair):
    left, right = pair
    try:
        digest = assert_equivalent({"left": left, "right": right})
    except EquivalenceError:
        assert not same_rows(left, right)
    else:
        assert same_rows(left, right)
        assert digest == reference_digest(left) == reference_digest(right)
