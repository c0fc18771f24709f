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

The **digest** (:func:`bag_digest`) is the gate's currency in trace
events and in the calibration artifact, so its bytes never change.  It
is older than the check and weaker: :func:`canonical_row` sorts values
*within* each row, so the digest alone cannot tell a misaligned bag from
a matching one.  It is only ever reported for bags the check passed.
"""

from __future__ import annotations

import hashlib
import json
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import EquivalenceError

#: Decimal digits floats are rounded to before digesting.  Far below any
#: difference the simulator or an engine could legitimately produce for
#: these integer-typed workloads; ties within half a quantum collapse.
QUANT_DIGITS = 9

_INT64_MAX = np.iinfo(np.int64).max


def canonical_value(value: Any) -> Any:
    """One scalar in canonical form (JSON-safe, backend-independent)."""
    if value is None:
        return None
    # Numpy scalars (the simulator's native currency) reduce to Python.
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
        canon = [canonical_value(value) for value in values]
        column = _int_column(canon)
        if column is None:
            column = np.array([json.dumps(v) for v in canon], dtype=str)
    return column


class _Bag(NamedTuple):
    """One bag, its columns aligned to the reference's and canonicalized."""

    rows: List[Sequence[Any]]
    #: The raw column behind each aligned column (``None``: by position).
    positions: Optional[List[int]]
    #: Canonical column arrays (``None``: the rows are not one width).
    columns: Optional[List[np.ndarray]]

    def aligned_row(self, index: int) -> Tuple[Any, ...]:
        row = self.rows[index]
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
                    for row in self.rows
                ],
                dtype=str,
            )
        ]


def _bag(
    rows: List[Sequence[Any]],
    positions: Optional[List[int]],
    widths: Set[int],
) -> _Bag:
    """``rows`` as a :class:`_Bag`; ``widths`` is ``set(map(len, rows))``."""
    if len(widths) > 1:
        return _Bag(rows, positions, None)
    raw = list(zip(*rows))
    if positions is not None and raw:
        raw = [raw[position] for position in positions]
    return _Bag(rows, positions, [_canonical_column(c) for c in raw])


def _aligned_bags(
    bags: Mapping[str, Iterable[Sequence[Any]]],
    columns: Optional[Mapping[str, Sequence[str]]],
) -> Dict[str, _Bag]:
    """Every bag, with named columns reordered to the reference's names."""
    names = list(bags)
    if columns is not None and set(columns) != set(names):
        raise EquivalenceError("name the columns of every bag or of none")
    aligned = {}
    for name in names:
        rows = bags[name]
        if not isinstance(rows, list):  # the backends' bags already are
            rows = list(rows)
        widths = set(map(len, rows))
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
        aligned[name] = _bag(rows, positions, widths)
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
    differs = np.zeros(len(left.rows), dtype=bool)
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


def _int_digest(count: int, columns: List[np.ndarray]) -> str:
    """:func:`bag_digest` of ``count`` rows of int64 ``columns``, without
    a JSON encoder: each row's text is both its sort key and payload."""
    if not columns:
        texts = ["[]"] * count
    else:
        within = np.sort(np.column_stack(columns), axis=1)
        row_format = "[" + ",".join(["%d"] * len(columns)) + "]"
        texts = sorted(
            map(
                row_format.__mod__,
                zip(*(column.tolist() for column in within.T)),
            )
        )
    return _sha256("[" + ",".join(texts) + "]")


def _digest(bag: _Bag) -> str:
    if bag.columns is not None and all(
        column.dtype.kind == "i" for column in bag.columns
    ):
        return _int_digest(len(bag.rows), bag.columns)
    return _sha256(json.dumps(canonical_bag(bag.rows), separators=(",", ":")))


def bag_digest(rows: Iterable[Sequence[Any]]) -> str:
    """SHA-256 hex digest of the canonical bag (the gate's currency).

    Insensitive to column order (see :func:`canonical_row`).  Bags of
    integer rows of one width take a numpy path to the same bytes.
    """
    rows = list(rows)
    return _digest(_bag(rows, None, set(map(len, rows))))


def assert_equivalent(
    bags: Mapping[str, Iterable[Sequence[Any]]],
    *,
    columns: Optional[Mapping[str, Sequence[str]]] = None,
    context: str = "",
) -> str:
    """Require every named bag to hold the same rows; return their digest.

    ``bags`` maps backend names to row iterables.  The first entry (in
    insertion order) is the reference.  ``columns`` names each bag's
    columns (every bag's, or none): the other bags' columns are aligned
    to the reference's names, so they may project in any order.  Unnamed
    bags align by position.  Any disagreement raises
    :class:`~repro.errors.EquivalenceError` naming both backends, both
    digests, and the first differing (or misaligned) row.

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
        same_count = len(other.rows) == len(reference.rows)
        if same_count:
            mismatch = _mismatch(reference, other)
            if mismatch is None:
                continue
        ours_digest, theirs_digest = _digest(reference), _digest(other)
        if not same_count:
            detail = (
                f"row counts differ: {len(reference.rows)} vs "
                f"{len(other.rows)}"
            )
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
            f"({ours_digest[:16]}..., {len(reference.rows)} rows) vs "
            f"{name} ({theirs_digest[:16]}..., {len(other.rows)} rows); "
            + detail
        )
    return _digest(reference)
