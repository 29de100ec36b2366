"""Exact simulation of fixed-width integer accumulation.

Overflow verdicts must never themselves be victims of overflow, so every dot
product that feeds a verdict is exact.  certify's closed form, which
check_accumulator applies to one row, takes one route per call, picked in
_closed_forms alone: one int64 numpy pass over all rows when every row is a
non-empty integer array within int64, the call holds at least 256 codes and
B = K * max|q| * max(|c|, |d|), from its longest row and its largest code, is
below 2^62; Python ints for every row otherwise.

The exhaustive oracle builds the set of dot products a row can reach as one
Python-int bitset: its extremes are the set's top and bottom bits, and its
witnesses, the first inputs at them, follow from the row's signs and are
checked against them; AccumWitness is its record, and no other code builds
witnesses.  It takes a row within two limits, checked in order: (2^N)^K input
vectors at most ENUM_BUDGET, 2^24, then a span 2B, B taken over the row alone,
at most 2^22.  Past either it raises EnumerationBudgetError.

certify is the one certificate rule: it gives every row the closed-form
worst case and sends the rows within the budget to the exhaustive oracle too.

A P-bit register holds [-2^(P-1), 2^(P-1) - 1].  A row overflows when its
worst-case max lies above that range or its min below it: the one rule that
certify, check_accumulator and exhaustive_check all apply.  wrap reduces an
out-of-range value mod 2^P back into the range, as two's complement does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import _flag_field, _int_field, int_range
from .errors import EnumerationBudgetError, NonFiniteInputError

ENUM_BUDGET = 1 << 24  # most input vectors, (2^N)^K, the exhaustive oracle takes in one row
_INT64_GUARD = 1 << 62  # every sum bounded by B below this fits int64
# about the fewest codes for which the int64 pass beats the Python-int loop, on
# lists of int64 rows: 4x5 codes took 19 us against 5 us, 16x16 26 against
# 28 us, 36x16 55 against 112 us.  On one int64 row of codes in [-7, 7]
# (check_accumulator, best of 5) the int64 pass took 13.4 us at K = 1, 2, 16
# and 64, against 4.5, 4.6, 5.1 and 6.4 us in Python ints; 14.1 against 12.3
# us at K = 256; 15.6 against 38.4 us at K = 1024 (Python 3.11, numpy 2.4,
# 2-CPU x86 box).  So short rows keep the Python-int route
_INT64_MIN_CODES = 256
# the largest span 2 * K * max|q| * max(|c|, |d|) the exhaustive oracle takes.
# The reachable set is at most span bits wide: on the widest rows the budget
# admits (K = 24 at N = 1, K = 6 at N = 4, every code near the cap) the oracle
# peaked at 1.1-2.0 MB and took 1.1-2.3 ms (Python 3.11, 2-CPU x86 box)
_REACH_SPAN = 1 << 22


@dataclass(frozen=True)
class AccumulatorSpec:
    """A signed P-bit accumulation register."""

    P: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "P", _int_field(self.P, "P", 2))

    @property
    def lo(self) -> int:
        return -(1 << (self.P - 1))

    @property
    def hi(self) -> int:
        return (1 << (self.P - 1)) - 1


@dataclass(frozen=True)
class AccumWitness:
    """The exhaustive oracle's record of one integer weight vector.

    true_max / true_min are exact; witness_x_max / witness_x_min are the first
    input vectors reaching them.  overflowed is the register rule certify
    applies: true_max above 2^(P-1) - 1 or true_min below -2^(P-1).
    """

    true_max: int
    true_min: int
    overflowed: bool
    witness_x_max: tuple[int, ...]
    witness_x_min: tuple[int, ...]


def _int_vector(q) -> list[int]:
    # integer dtypes and Python ints are exact codes already; a sequence goes
    # through the object dtype, since numpy would turn [2**63, -3] into float64
    arr = np.asarray(q) if isinstance(q, np.ndarray) else np.asarray(q, dtype=object)
    if arr.ndim > 1:
        raise ValueError(f"one row of codes expected, got shape {arr.shape}")
    items = arr.ravel().tolist()
    if arr.dtype.kind in "iu" or all(type(x) is int for x in items):
        return items
    out = []
    for item in items:
        try:
            as_int = int(item)
        except (TypeError, ValueError, OverflowError):  # nan / inf / not a number
            raise NonFiniteInputError(f"integer code expected, got {item!r}") from None
        if as_int != item or np.asarray(item).dtype.kind == "b":  # int(True) is 1: a flag is no code
            raise NonFiniteInputError(f"integer code expected, got {item!r}")
        out.append(as_int)
    return out


def wrap(value: int, P: int) -> int:
    """Reduce an exact integer into the signed P-bit range, two's complement; NonFiniteInputError for a non-integer."""
    P = _int_field(P, "P", 2)
    (value,) = _int_vector([value])
    lo = -(1 << (P - 1))
    return ((value - lo) % (1 << P)) + lo


def _input_range(N: int, act_signed: bool) -> tuple[int, int, int]:
    # N as an int and [c, d] of the N-bit inputs; a bad N or act_signed is named so at every entry point
    N = _int_field(N, "N", 1)
    return (N, *int_range(N, _flag_field(act_signed, "act_signed")))


def _extremes(qs: list[int], c: int, d: int) -> tuple[int, int]:
    # with alpha = sum of the positive codes and beta = sum of the negative
    # ones, inputs in [c, d] reach d*alpha + c*beta at most and c*alpha + d*beta
    # at least, exactly in Python ints
    alpha = sum([v for v in qs if v > 0])
    beta = sum(qs) - alpha
    return d * alpha + c * beta, c * alpha + d * beta


class Certificate(NamedTuple):
    """Verdict on one row of codes; the field order is accq verify's key order."""

    K: int
    true_max: int
    true_min: int
    overflowed: bool
    exhaustive: bool


def check_accumulator(q, N: int, act_signed: bool, spec: AccumulatorSpec) -> Certificate:
    """certify's closed form on row q, without the oracle: a Certificate, exhaustive false; a bare code is a one-code row."""
    _, c, d = _input_range(N, act_signed)
    row = np.atleast_1d(q if isinstance(q, np.ndarray) else np.asarray(q, dtype=object))
    (K,), (f,), (e,) = _closed_forms([row], c, d)
    return Certificate(K, f, e, f > spec.hi or e < spec.lo, False)


def _enumerable(K: int, N: int) -> bool:
    # certify's routing rule and the oracle's first limit: a row's (2^N)^K
    # input vectors fit ENUM_BUDGET, read at call time
    return (1 << (N * K)) <= ENUM_BUDGET


def _reachable(qs: list[int], N: int) -> int:
    # bit s is set when the row's dot product can equal s plus the sum of its
    # smallest products min(v * c, v * d).  A code v adds |v| * w for every
    # w < 2^N: N doublings, each ORing the set with itself shifted by |v| * 2^j
    t = 1
    for a in [abs(v) for v in qs if v]:
        for j in range(N):
            t |= t << (a << j)
    return t


def exhaustive_check(q, N: int, act_signed: bool, spec: AccumulatorSpec) -> AccumWitness:
    """Exact max/min dot product over every N-bit input vector, without the closed form.

    Independent oracle for certify's closed form: no extremal shortcut.  It
    builds the set of dot products the row can reach as one bitset; its max
    and min are the set's top and bottom bits.  The witnesses are the first
    extremes, the last element varying fastest: for the max, d at each
    positive code and c elsewhere, for the min, d at each negative code and c
    elsewhere.  Each is checked in exact integers against the set's
    extremes, and a mismatch is an AssertionError naming the row.
    Raises EnumerationBudgetError, naming the quantity and its cap, when
    (2^N)^K exceeds ENUM_BUDGET, 2^24, or else when the span
    2 * K * max|q| * max(|c|, |d|) exceeds 2^22.
    """
    qs, (N, c, d) = _int_vector(q), _input_range(N, act_signed)
    K = len(qs)
    if not _enumerable(K, N):
        raise EnumerationBudgetError(f"{(1 << N) ** K} input vectors exceed budget {ENUM_BUDGET}")
    # 2B bounds the spread of the reachable sums, and so the set's width
    span = 2 * K * max(abs(c), abs(d)) * max(map(abs, qs), default=0)
    if span > _REACH_SPAN:
        raise EnumerationBudgetError(f"span {span} of the reachable sums exceeds cap {_REACH_SPAN}")
    reach, base = _reachable(qs, N), sum([min(v * c, v * d) for v in qs])
    top, bottom = base + reach.bit_length() - 1, base + (reach & -reach).bit_length() - 1
    # the first input in flat order at each extreme: a code that needs d there
    # takes it, and every other code, a zero one included, its first input, c
    x_max = [d if v > 0 else c for v in qs]
    x_min = [d if v < 0 else c for v in qs]
    dots = sum([v * x for v, x in zip(qs, x_max)]), sum([v * x for v, x in zip(qs, x_min)])
    if dots != (top, bottom):
        raise AssertionError(f"row {qs}: the inputs at its extremes reach {dots}, its reachable set {(top, bottom)}")
    return AccumWitness(top, bottom, top > spec.hi or bottom < spec.lo, tuple(x_max), tuple(x_min))


def _closed_forms(rows: list, c: int, d: int) -> tuple[list[int], list[int], list[int]]:
    # K, max and min of every row's dot product over inputs in [c, d], exactly.
    # One int64 pass covers the whole call when every row is a non-empty
    # integer array within int64, the call holds _INT64_MIN_CODES codes or
    # more, and the longest K times the largest |q| times max(|c|, |d|), which
    # bounds every row's B and so every partial sum, is below 2^62; otherwise
    # every row takes _extremes in Python ints
    reach = max(-c, d)
    fast = all(
        isinstance(row, np.ndarray) and row.ndim == 1 and row.size
        and (row.dtype.kind == "i" or row.dtype.kind == "u" and row.dtype.itemsize < 8)  # within int64
        for row in rows
    )
    sizes = [row.size for row in rows] if fast else []
    if sum(sizes) >= _INT64_MIN_CODES and reach < _INT64_GUARD:
        flat = np.concatenate(rows).astype(np.int64, copy=False)
        if max(sizes) * max(int(flat.max()), -int(flat.min())) * reach < _INT64_GUARD:
            starts = list(itertools.accumulate(sizes[:-1], initial=0))  # np.cumsum costs more on a few rows
            alpha = np.add.reduceat(np.maximum(flat, 0), starts)
            # the negative mass is the row's total less its positive one, exact below 2^62
            beta = np.add.reduceat(flat, starts) - alpha
            return sizes, (d * alpha + c * beta).tolist(), (c * alpha + d * beta).tolist()
    out = []
    for i, row in enumerate(rows):
        # the object array _int_vector would build; a scalar in rows is a code, not a row
        row = row if isinstance(row, np.ndarray) else np.asarray(row, dtype=object)
        if not row.ndim:
            raise ValueError(f"row {i} is a single code, not a row of codes")
        qs = _int_vector(row)
        out.append((len(qs), *_extremes(qs, c, d)))
    return [K for K, _, _ in out], [f for _, f, _ in out], [e for _, _, e in out]


def certify(
    rows, N: int, act_signed: bool, spec: AccumulatorSpec, exhaustive: bool = False
) -> list[Certificate]:
    """Certify integer code rows (of any lengths) against a P-bit register.

    rows is a (C, K) array or a sequence of rows; an array with fewer than
    two dimensions, or a row with more than one, is a ValueError naming its
    shape, and a row that is a single code is one naming its index.  Every
    row gets the exact closed-form worst case, all of them on one route: in
    int64, over all rows at once, when every row is a non-empty integer array
    within int64, the call holds at least 256 codes and
    B = K * max|q| * max(|c|, |d|), taken over its longest row and largest
    code, is below 2^62; in Python ints, row by row, otherwise.  A row also
    goes to the exhaustive oracle when exhaustive is set, or when its
    (2^N)^K input vectors fit ENUM_BUDGET, 2^24; it overflows when
    either route says so.  An unforced row the oracle refuses, its span past
    2^22, keeps the closed form alone, with exhaustive false.  A forced row
    past either of the oracle's limits raises EnumerationBudgetError before
    any result is returned.
    """
    N, c, d = _input_range(N, act_signed)
    exhaustive = _flag_field(exhaustive, "exhaustive")
    if isinstance(rows, np.ndarray) and rows.ndim < 2:
        raise ValueError(f"rows must be a (C, K) array or a sequence of rows, got shape {rows.shape}")
    rows = list(rows)
    Ks, fs, es = _closed_forms(rows, c, d)
    hi, lo = spec.hi, spec.lo
    overflowed = [f > hi or e < lo for f, e in zip(fs, es)]
    checked = [exhaustive or _enumerable(K, N) for K in Ks]
    for i in [i for i, flag in enumerate(checked) if flag]:
        # the oracle converts the row itself, independently of the closed form
        try:
            overflowed[i] |= exhaustive_check(rows[i], N, act_signed, spec).overflowed
        except EnumerationBudgetError:
            if exhaustive:
                raise
            checked[i] = False
    return list(map(Certificate._make, zip(Ks, fs, es, overflowed, checked)))
