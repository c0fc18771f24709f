"""Cross-backend result-bag equivalence: compare as tables, then digest.

The DAT300-style harness rule this package enforces: *no timing without
matching results*.  Every backend executes the same logical query and the
resulting row bags must be identical before any performance number is
reported.  :func:`assert_equivalent` compares bags as tables whose columns
are aligned by name (or, unnamed, by position), and forgives only what
SQL semantics does not fix:

* **row order** — results are multisets, so rows are sorted;
* **numeric representation** — floats are quantized (and integral floats
  collapse to ints) so ``1`` from the simulator equals ``1.0`` from an
  engine; ``-0.0``, NaN, and infinities normalize to stable sentinels;
* **NULLs** — ``None`` sorts and compares deterministically;
* **duplicates** — preserved (a bag, not a set): an engine returning one
  copy of a doubled row fails the gate.

Column order is *not* forgiven: a row whose values sit in the wrong
columns fails even though the same values appear.

A bag comes in one of two forms.  A **column bag** (:class:`ColumnBag`)
holds one equally long numpy array per output column: the simulator's
results, an engine's all-integer results and the rewrite proofs' witness
tables arrive this way.  A **row bag** is a list of row tuples: an
engine's result with a non-integer value, or a caller's literal rows.
Both are compared and digested column by column, so an all-integer
column stays one int64 array from the producer to the digest.  Row
tuples are built only for a mismatch's message and for bags with a
column that is not all integers.

The **digest** (:func:`bag_digest`) is the gate's currency in trace
events and in the calibration artifact, so its bytes never change.  It
is older than the check and weaker: :func:`canonical_row` sorts values
*within* each row, so the digest alone cannot tell a misaligned bag from
a matching one.  It is only ever reported for bags the check passed.
For all-integer bags its text is built and sorted in numpy, as one byte
string per row, and hashed in chunks of :data:`DIGEST_CHUNK_ROWS` rows.
"""

from __future__ import annotations

import hashlib
import json
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import EquivalenceError

#: Decimal digits floats are rounded to before digesting.  Far below any
#: difference the simulator or an engine could legitimately produce for
#: these integer-typed workloads; ties within half a quantum collapse.
QUANT_DIGITS = 9

#: Rows whose digest text is built and hashed in one step.
DIGEST_CHUNK_ROWS = 8192

_INT64_MAX = np.iinfo(np.int64).max


class ColumnBag:
    """A result bag as columns: equally long 1-D arrays, one per output
    column, and the row count (which a bag of width 0 needs).

    Indexing and iterating yield row tuples of Python values, so a column
    bag reads like a row bag wherever rows are wanted.
    """

    __slots__ = ("columns", "_count")

    def __init__(
        self, columns: Sequence[np.ndarray], count: Optional[int] = None
    ) -> None:
        columns = tuple(np.asarray(column) for column in columns)
        lengths = {len(column) for column in columns}
        if any(column.ndim != 1 for column in columns) or len(lengths) > 1:
            raise ValueError("a column bag needs equally long 1-D columns")
        if count is None:
            count = lengths.pop() if lengths else 0
        elif lengths and lengths != {count}:
            raise ValueError(f"columns of {lengths.pop()} rows, not {count}")
        self.columns = columns
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return f"ColumnBag({list(self.columns)!r}, {self._count})"

    def __getitem__(self, index: int) -> Tuple[Any, ...]:
        index = range(self._count)[index]
        return tuple(
            column[index : index + 1].tolist()[0] for column in self.columns
        )

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        if not self.columns:
            return iter([()] * self._count)
        return zip(*(column.tolist() for column in self.columns))


#: Either form of a result bag.
Bag = Union[ColumnBag, List[Sequence[Any]]]


def canonical_value(value: Any) -> Any:
    """One scalar in canonical form (JSON-safe, backend-independent)."""
    if value is None:
        return None
    # Numpy scalars (the simulator's native currency) reduce to Python.
    # Test the exact type: numpy.float64 subclasses float, and rounding it
    # as a numpy scalar is inexact (and overflows near the float limit).
    item = getattr(value, "item", None)
    if item is not None and type(value) not in (int, float, str, bytes):
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
    """A total order over canonical scalars (None < numbers < strings)."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, value)


def canonical_row(row: Sequence[Any]) -> Tuple[Any, ...]:
    """One row in the digest's canonical form: values canonicalized,
    column order erased by sorting within the row."""
    return tuple(sorted((canonical_value(v) for v in row), key=_value_key))


def canonical_bag(rows: Iterable[Sequence[Any]]) -> List[Tuple[Any, ...]]:
    """The digest's sorted-multiset form of a result: duplicates
    preserved, column order erased (see :func:`canonical_row`)."""
    return sorted(
        (canonical_row(row) for row in rows),
        key=lambda row: json.dumps(row, separators=(",", ":")),
    )


def _sha256(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _int_column(values: Sequence[Any]) -> Optional[np.ndarray]:
    """``values`` as int64 when numpy finds only ints and bools that fit
    (their canonical values are those ints); ``None`` otherwise."""
    try:
        array = np.asarray(values)
    except ValueError:  # nested sequences of unequal lengths
        return None
    if array.ndim != 1 or array.dtype.kind not in "biu":
        return None
    if array.dtype.kind == "u" and array.size and array.max() > _INT64_MAX:
        return None
    return array.astype(np.int64, copy=False)


def _canonical_column(values: Sequence[Any]) -> np.ndarray:
    """One column's canonical values as a sortable array: int64 when every
    one is an integer that fits, otherwise each one's JSON text.

    Either encoding is a function of the canonical values alone, so two
    columns hold the same canonical multiset exactly when their sorted
    arrays are equal.
    """
    column = _int_column(values)
    if column is None:
        if isinstance(values, np.ndarray):
            values = values.tolist()
        canon = [canonical_value(value) for value in values]
        column = _int_column(canon)
        if column is None:
            column = np.array([json.dumps(v) for v in canon], dtype=str)
    return column


def _source(bag: Union[ColumnBag, Iterable[Sequence[Any]]]) -> Bag:
    """``bag`` as a column bag or a list of rows."""
    if isinstance(bag, (ColumnBag, list)):  # the backends' bags already are
        return bag
    return list(bag)


def _widths(source: Bag) -> Set[int]:
    """The widths of ``source``'s rows."""
    if isinstance(source, ColumnBag):
        return {len(source.columns)} if len(source) else set()
    return set(map(len, source))


class _Bag(NamedTuple):
    """One bag, its columns aligned to the reference's and canonicalized."""

    source: Bag
    #: The raw column behind each aligned column (``None``: by position).
    positions: Optional[List[int]]
    #: Canonical column arrays (``None``: the rows are not one width).
    columns: Optional[List[np.ndarray]]

    @property
    def count(self) -> int:
        return len(self.source)

    def aligned_row(self, index: int) -> Tuple[Any, ...]:
        row = self.source[index]
        if self.positions is not None:
            row = [row[position] for position in self.positions]
        return tuple(canonical_value(value) for value in row)

    def row_texts(self) -> List[np.ndarray]:
        """The bag as one column of whole-row JSON texts (column order
        kept): the comparable form of bags that are not one width."""
        return [
            np.array(
                [
                    json.dumps([canonical_value(v) for v in row])
                    for row in self.source
                ],
                dtype=str,
            )
        ]


def _bag(
    source: Bag, positions: Optional[List[int]], widths: Set[int]
) -> _Bag:
    """``source`` as a :class:`_Bag`; ``widths`` is ``_widths(source)``."""
    if len(widths) > 1:
        return _Bag(source, positions, None)
    if isinstance(source, ColumnBag):
        raw = list(source.columns)
    else:
        raw = list(zip(*source))
    if positions is not None and raw:
        raw = [raw[position] for position in positions]
    return _Bag(source, positions, [_canonical_column(c) for c in raw])


def _aligned_bags(
    bags: Mapping[str, Union[ColumnBag, Iterable[Sequence[Any]]]],
    columns: Optional[Mapping[str, Sequence[str]]],
) -> Dict[str, _Bag]:
    """Every bag, with named columns reordered to the reference's names."""
    names = list(bags)
    if columns is not None and set(columns) != set(names):
        raise EquivalenceError("name the columns of every bag or of none")
    aligned = {}
    for name in names:
        source = _source(bags[name])
        widths = _widths(source)
        positions = None
        if columns is not None:
            order, own = tuple(columns[names[0]]), tuple(columns[name])
            if len(set(own)) != len(own) or sorted(own) != sorted(order):
                raise EquivalenceError(
                    f"column names differ: {names[0]} {order} vs {name} {own}"
                )
            if widths - {len(own)}:
                raise EquivalenceError(
                    f"{name} has rows whose width is not that of its "
                    f"{len(own)} column names {own}"
                )
            positions = [own.index(column) for column in order]
        aligned[name] = _bag(source, positions, widths)
    return aligned


def _lexsorted(
    columns: List[np.ndarray],
) -> Tuple[Optional[np.ndarray], List[np.ndarray]]:
    """The row order sorting ``columns`` (first column first), and the
    sorted columns."""
    if not columns:  # rows of width 0 are all equal
        return None, columns
    order = np.lexsort(columns[::-1])
    return order, [column[order] for column in columns]


def _mismatch(
    left: _Bag, right: _Bag
) -> Optional[Tuple[int, Tuple[Any, ...], Tuple[Any, ...]]]:
    """The first sorted row where two equally long bags differ, as
    (index, left row, right row); ``None`` when they hold the same rows."""
    if (
        left.columns is not None
        and right.columns is not None
        and len(left.columns) == len(right.columns)
    ):
        left_columns, right_columns = left.columns, right.columns
    else:
        left_columns, right_columns = left.row_texts(), right.row_texts()
    left_order, left_columns = _lexsorted(left_columns)
    right_order, right_columns = _lexsorted(right_columns)
    differs = np.zeros(left.count, dtype=bool)
    for ours, theirs in zip(left_columns, right_columns):
        if ours.dtype.kind != theirs.dtype.kind:  # int vs text: unequal
            ours, theirs = ours.astype(str), theirs.astype(str)
        differs |= ours != theirs
    if not differs.any():
        return None
    index = int(np.argmax(differs))
    return (
        index,
        left.aligned_row(int(left_order[index])),
        right.aligned_row(int(right_order[index])),
    )


def _int_texts(column: np.ndarray) -> np.ndarray:
    """The decimal text of each value of a non-empty int64 ``column``, as
    byte strings as wide as the longest (at its minimum or maximum)."""
    width = max(len(str(column.min())), len(str(column.max())))
    return column.astype(f"S{width}")


def _int_digest(count: int, columns: List[np.ndarray]) -> str:
    """:func:`bag_digest` of ``count`` rows of int64 ``columns``, built in
    numpy: each canonical row's JSON text (and a comma) is one fixed-width
    byte string, numpy sorts them as Python sorts the texts, and their
    bytes are hashed in chunks, the NUL padding dropped."""
    if not columns or not count:
        return _sha256("[" + ",".join(["[]"] * count) + "]")
    within = np.sort(np.column_stack(columns), axis=1)
    texts = np.char.add(b"[", _int_texts(within[:, 0]))
    for column in within.T[1:]:
        texts = np.char.add(np.char.add(texts, b","), _int_texts(column))
    # The comma cannot reorder rows: "]" ends every text and only it.
    texts = np.char.add(texts, b"],")
    texts.sort()
    digest = hashlib.sha256(b"[")
    for start in range(0, count, DIGEST_CHUNK_ROWS):
        chunk = texts[start : start + DIGEST_CHUNK_ROWS].view(np.uint8)
        text = chunk[chunk != 0]
        digest.update(text if start + DIGEST_CHUNK_ROWS < count else text[:-1])
    digest.update(b"]")
    return digest.hexdigest()


def _digest(bag: _Bag) -> str:
    if bag.columns is not None and all(
        column.dtype.kind == "i" for column in bag.columns
    ):
        return _int_digest(bag.count, bag.columns)
    return _sha256(
        json.dumps(canonical_bag(bag.source), separators=(",", ":"))
    )


def bag_digest(rows: Union[ColumnBag, Iterable[Sequence[Any]]]) -> str:
    """SHA-256 hex digest of the canonical bag (the gate's currency).

    Insensitive to column order (see :func:`canonical_row`).  Bags of
    integer rows of one width, in either form, take a numpy path to the
    same bytes.
    """
    source = _source(rows)
    return _digest(_bag(source, None, _widths(source)))


def assert_equivalent(
    bags: Mapping[str, Union[ColumnBag, Iterable[Sequence[Any]]]],
    *,
    columns: Optional[Mapping[str, Sequence[str]]] = None,
    context: str = "",
) -> str:
    """Require every named bag to hold the same rows; return their digest.

    ``bags`` maps backend names to bags: a :class:`ColumnBag` or an
    iterable of rows.  The first entry (in insertion order) is the reference.
    ``columns`` names each bag's columns (every bag's, or none): the
    other bags' columns are aligned to the reference's names, so they may
    project in any order.  Unnamed bags align by position.  Any
    disagreement raises :class:`~repro.errors.EquivalenceError` naming
    both backends, both digests, and the first differing (or misaligned)
    row.

    Bags that pass hold the same canonical rows, so they share one
    :func:`bag_digest`; it is computed once, from the reference.
    """
    if not bags:
        raise EquivalenceError("equivalence gate needs at least one bag")
    aligned = _aligned_bags(bags, columns)
    names = list(aligned)
    reference = aligned[names[0]]
    for name in names[1:]:
        other = aligned[name]
        same_count = other.count == reference.count
        if same_count:
            mismatch = _mismatch(reference, other)
            if mismatch is None:
                continue
        ours_digest, theirs_digest = _digest(reference), _digest(other)
        if not same_count:
            detail = f"row counts differ: {reference.count} vs {other.count}"
        elif ours_digest == theirs_digest:
            detail = (
                "first misaligned row #{}: {} vs {} (the bags agree only "
                "with each row's values sorted)".format(*mismatch)
            )
        else:
            detail = "first differing row #{}: {} vs {}".format(*mismatch)
        where = f" for {context}" if context else ""
        raise EquivalenceError(
            f"result bags differ{where}: {names[0]} "
            f"({ours_digest[:16]}..., {reference.count} rows) vs "
            f"{name} ({theirs_digest[:16]}..., {other.count} rows); "
            + detail
        )
    return _digest(reference)
