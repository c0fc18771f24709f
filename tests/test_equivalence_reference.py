"""The result-bag check and digest against the code they replaced.

``assert_equivalent`` compares bags column by column with numpy and
computes the digest once; ``bag_digest`` builds the text of all-integer
bags in numpy.  Bags come as rows or as a ``ColumnBag`` of arrays.  The
reference functions below are the earlier code: a per-row ``json.dumps``
sort key, values sorted *within* each row, and the whole bag encoded
again for the digest.  The properties assert that

* the digest is byte-identical to the reference on mixed bags, in row
  form and in column form;
* the check passes exactly when the two bags hold the same canonical
  rows with their column order kept, and then the two reference digests
  agree, so the one digest returned speaks for both bags.
"""

import hashlib
import json
import math
from typing import Any, Iterable, List, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import ColumnBag, assert_equivalent, bag_digest
from repro.backends import equivalence
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


# -- the column form ----------------------------------------------------------

#: Integers whose decimal texts start one another (the digest sorts text,
#: not numbers) or sit at the int64 bounds.
decimal_ints = st.one_of(
    st.sampled_from((0, 1, 9, 10, 12, 19, 99, 100, 101, 199, 1000, 10**18))
    .flatmap(lambda v: st.sampled_from((v, -v))),
    st.sampled_from((-(2**63), -(2**63) + 1, 2**63 - 2, 2**63 - 1)),
    st.integers(-(2**63), 2**63 - 1),
)
mixed_values = st.one_of(
    st.none(), st.floats(), st.text(max_size=2), st.integers(-12, 12)
)


def columns_of(count: int, ints_only: bool):
    """One column of ``count`` values, in one of the dtypes bags arrive in
    (``ints_only``: one that fits int64)."""

    def of(values, dtype):
        return st.lists(values, min_size=count, max_size=count).map(
            lambda v: np.array(v, dtype=dtype)
        )

    ints = (
        of(decimal_ints, np.int64),
        of(st.integers(-(2**31), 2**31 - 1), np.int32),
        of(st.booleans(), bool),
    )
    if ints_only:
        return st.one_of(ints)
    return st.one_of(
        *ints,
        # uint64 above the int64 bound takes the fallback path.
        of(st.integers(2**63 - 2, 2**64 - 1), np.uint64),
        of(st.floats(), np.float64),
        of(mixed_values, object),
    )


@st.composite
def column_bags(draw, count=None):
    """A column bag of width 0-4; all its columns fit int64 in half of
    the draws."""
    if count is None:
        count = draw(st.integers(0, 8))
    width = draw(st.integers(0, 4))
    kinds = columns_of(count, ints_only=draw(st.booleans()))
    columns = [draw(kinds) for _ in range(width)]
    if draw(st.booleans()) and count:  # duplicates: every row twice
        columns = [np.concatenate([c, c]) for c in columns]
        count *= 2
    return ColumnBag(columns, count)


def rows_of(bag: ColumnBag) -> List[tuple]:
    """``bag``'s rows as tuples of Python values (each column's
    ``tolist()``), the row form the column bag stands for."""
    if not bag.columns:
        return [()] * len(bag)
    return list(zip(*(column.tolist() for column in bag.columns)))


@st.composite
def column_bag_pairs(draw):
    """A column bag and a second bag, in either form: its rows reordered
    (equal), its first two columns swapped (misaligned), its first column
    shuffled across rows, one row replaced by a copy of another, or an
    unrelated bag."""
    left = draw(column_bags())
    count = len(left)
    how = draw(
        st.sampled_from(
            ("reordered", "swapped", "recombined", "replaced", "unrelated")
        )
    )
    if how == "unrelated":
        right = draw(column_bags())
    else:
        order = np.array(draw(st.permutations(range(count))), dtype=np.intp)
        columns = [column[order] for column in left.columns]
        if how == "swapped" and len(columns) >= 2:
            columns[0], columns[1] = columns[1], columns[0]
        if how == "recombined" and columns:
            shuffle = draw(st.permutations(range(count)))
            columns[0] = columns[0][np.array(shuffle, dtype=np.intp)]
        if how == "replaced" and count >= 2:
            columns = [np.concatenate([c[:-1], c[:1]]) for c in columns]
        right = ColumnBag(columns, count)
    if draw(st.booleans()):
        right = rows_of(right)
    return left, right


@settings(max_examples=400, deadline=None)
@given(column_bags())
def test_column_form_digests_like_the_reference(bag):
    rows = rows_of(bag)
    expected = reference_digest(rows)
    assert bag_digest(bag) == expected
    assert bag_digest(rows) == expected


@settings(max_examples=400, deadline=None)
@given(column_bag_pairs())
def test_column_form_check_passes_exactly_on_equal_rows(pair):
    left, right = pair
    left_rows = rows_of(left)
    right_rows = right if isinstance(right, list) else rows_of(right)
    try:
        digest = assert_equivalent({"left": left, "right": right})
    except EquivalenceError:
        assert not same_rows(left_rows, right_rows)
    else:
        assert same_rows(left_rows, right_rows)
        assert digest == reference_digest(left_rows)
        assert digest == reference_digest(right_rows)


@settings(max_examples=100, deadline=None)
@given(column_bags(count=40))
def test_digest_chunks_join_into_one_text(bag):
    with mock.patch.object(equivalence, "DIGEST_CHUNK_ROWS", 3):
        assert bag_digest(bag) == reference_digest(rows_of(bag))


def test_misaligned_column_bag_fails_though_the_digests_agree():
    x = np.array([1, 3, 10], dtype=np.int64)
    y = np.array([2, 4, 12], dtype=np.int64)
    assert bag_digest(ColumnBag([x, y])) == bag_digest(ColumnBag([y, x]))
    with pytest.raises(EquivalenceError, match="misaligned row #0"):
        assert_equivalent({"a": ColumnBag([x, y]), "b": ColumnBag([y, x])})
    with pytest.raises(EquivalenceError, match="misaligned row #0"):
        assert_equivalent({"a": ColumnBag([x, y]), "b": list(zip(y, x))})


def test_column_bags_need_equal_lengths():
    with pytest.raises(ValueError):
        ColumnBag([np.arange(2), np.arange(3)])
    with pytest.raises(ValueError):
        ColumnBag([np.arange(2)], 3)
    assert len(ColumnBag([], 3)) == 3
    assert list(ColumnBag([], 2)) == [(), ()]


@given(st.floats())
@example(5038409234420101.0)
@example(1e300)
@example(-0.0)
@settings(max_examples=500, deadline=None)
def test_numpy_and_python_floats_canonicalize_alike(value):
    """A ``numpy.float64`` (a ``float`` subclass) and a ``numpy.float32``
    canonicalize exactly like the Python float of the same value."""
    as_python = equivalence.canonical_value(value)
    as_numpy = equivalence.canonical_value(np.float64(value))
    assert (type(as_numpy), as_numpy) == (type(as_python), as_python)
    with np.errstate(over="ignore"):  # past float32's range: +-inf
        narrow = np.float32(value)
    assert equivalence.canonical_value(narrow) == equivalence.canonical_value(
        float(narrow)
    )
