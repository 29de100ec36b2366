"""Exact simulation of fixed-width integer accumulation.

Overflow verdicts must never themselves be victims of overflow, so every dot
product that feeds a verdict is exact.  The closed form runs in int64, all rows
in one numpy pass, for integer arrays whose bound B = K * max|q| * max(|c|, |d|)
is below 2^62, and in Python ints for any other row.  The exhaustive enumerator
holds its sums in the narrowest of int16, int32 and int64 that provably fits,
else in two int64 limbs, else in Python ints (an object array).

certify is the one certificate rule: it gives every row the closed-form
worst case and decides which rows the exhaustive oracle also enumerates.

Wraparound follows two's complement: a P-bit register holds
[-2^(P-1), 2^(P-1) - 1] and out-of-range values are reduced mod 2^P back into it.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import _check_bits, int_range
from .errors import EnumerationBudgetError, InvalidBudgetError, LengthMismatchError, NonFiniteInputError

DEFAULT_ENUM_BUDGET = 1 << 24
ENUM_BUDGET_ENV = "ACCQ_ENUM_BUDGET"
_BLOCK = 1 << 18  # most sums one enumerated block holds
_INT64_GUARD = 1 << 62  # every sum bounded by B below this fits int64


@dataclass(frozen=True)
class AccumulatorSpec:
    """A signed P-bit accumulation register."""

    P: int

    def __post_init__(self) -> None:
        _check_bits(self.P, "P", 2)

    @property
    def lo(self) -> int:
        return -(1 << (self.P - 1))

    @property
    def hi(self) -> int:
        return (1 << (self.P - 1)) - 1


@dataclass(frozen=True)
class AccumWitness:
    """Worst-case accumulation of one integer weight vector.

    true_max / true_min are exact; witness_x_max / witness_x_min are input vectors
    achieving them.  The three fits_* flags report the individual register
    conditions (max side, min side, and total span <= 2^P - 1); overflowed is
    their combined verdict.  wrapped_max is true_max after two's-complement
    wraparound, equal to true_max exactly when the max side fits.
    """

    true_max: int
    true_min: int
    overflowed: bool
    wrapped_max: int
    witness_x_max: tuple[int, ...]
    witness_x_min: tuple[int, ...]
    fits_max_side: bool
    fits_min_side: bool
    fits_span: bool


def _int_vector(q) -> list[int]:
    # integer dtypes and Python ints are exact codes already; a sequence goes
    # through the object dtype, since numpy would turn [2**63, -3] into float64
    arr = np.asarray(q) if isinstance(q, np.ndarray) else np.asarray(q, dtype=object)
    items = arr.ravel().tolist()
    if arr.dtype.kind in "iu" or all(type(x) is int for x in items):
        return items
    out = []
    for item in items:
        try:
            as_int = int(item)
        except (TypeError, ValueError, OverflowError):  # nan / inf / not a number
            raise NonFiniteInputError(f"integer code expected, got {item!r}") from None
        if as_int != item:
            raise NonFiniteInputError(f"integer code expected, got {item!r}")
        out.append(as_int)
    return out


def exact_dot(x, q) -> int:
    """Dot product of two integer vectors in arbitrary precision."""
    xs, qs = _int_vector(x), _int_vector(q)
    if len(xs) != len(qs):
        raise LengthMismatchError(f"len(x)={len(xs)} vs len(q)={len(qs)}")
    return sum(a * b for a, b in zip(xs, qs))


def extremal_max_input(q, N: int, act_signed: bool) -> list[int]:
    """Input vector maximizing the dot product with q over the N-bit range.

    Componentwise: take the range top where q_i >= 0, the range bottom where
    q_i < 0.  Ties at q_i = 0 contribute nothing either way.
    """
    c, d = int_range(N, act_signed)
    return [d if qi >= 0 else c for qi in _int_vector(q)]


def extremal_min_input(q, N: int, act_signed: bool) -> list[int]:
    """Input vector minimizing the dot product with q (mirror of the max case)."""
    c, d = int_range(N, act_signed)
    return [c if qi >= 0 else d for qi in _int_vector(q)]


def wrap(value: int, P: int) -> int:
    """Reduce an exact integer into the signed P-bit range, two's complement."""
    _check_bits(P, "P", 2)
    lo = -(1 << (P - 1))
    return ((int(value) - lo) % (1 << P)) + lo


def _extremes(qs: list[int], c: int, d: int) -> tuple[int, int]:
    # with alpha = sum of the positive codes and beta = sum of the negative
    # ones, inputs in [c, d] reach d*alpha + c*beta at most and c*alpha + d*beta
    # at least, exactly in Python ints
    alpha = sum([v for v in qs if v > 0])
    beta = sum(qs) - alpha
    return d * alpha + c * beta, c * alpha + d * beta


def check_accumulator(q, N: int, act_signed: bool, spec: AccumulatorSpec) -> AccumWitness:
    """Exact worst-case check of q against a P-bit register via extremal inputs."""
    qs = _int_vector(q)
    c, d = int_range(N, act_signed)
    f, e = _extremes(qs, c, d)
    return _witness(f, e, [d if v >= 0 else c for v in qs], [c if v >= 0 else d for v in qs], spec)


def _witness(f: int, e: int, x_max, x_min, spec: AccumulatorSpec) -> AccumWitness:
    fits_max = f <= spec.hi
    fits_min = e >= spec.lo
    # implied by the two one-sided conditions; reported separately on purpose
    fits_span = (f - e) <= (1 << spec.P) - 1
    return AccumWitness(
        true_max=f,
        true_min=e,
        overflowed=not (fits_max and fits_min),
        wrapped_max=wrap(f, spec.P),
        witness_x_max=tuple(x_max),
        witness_x_min=tuple(x_min),
        fits_max_side=fits_max,
        fits_min_side=fits_min,
        fits_span=fits_span,
    )


def enumeration_budget() -> int:
    """Active exhaustive-enumeration budget; env ACCQ_ENUM_BUDGET (0 never enumerates) overrides the default."""
    raw = os.environ.get(ENUM_BUDGET_ENV)
    if raw and not (raw.isascii() and raw.isdigit()):
        raise InvalidBudgetError(f"{ENUM_BUDGET_ENV} must be a non-negative base-10 integer, got {raw!r}")
    return int(raw) if raw else DEFAULT_ENUM_BUDGET


def _outer_sums(table: np.ndarray) -> np.ndarray:
    # every sum taking one entry per row of the table, the last row varying fastest
    out = table[-1] if len(table) else np.zeros(1, dtype=table.dtype)
    for row in table[-2::-1]:
        out = (row[:, None] + out).ravel()
    return out


def _products(qs: list[int], lo: int, hi: int, dtype) -> np.ndarray:
    # each code times every input in [lo, hi), formed wide and then narrowed:
    # B bounds the products, not the input values themselves
    wide = object if dtype is object else np.int64
    return (np.array(qs, dtype=wide).reshape(len(qs), 1) * np.arange(lo, hi, dtype=wide)).astype(dtype, copy=False)


def _blocks(qs: list[int], c: int, R: int, dtype):
    # (first flat index, sums) in flat order, at most _BLOCK sums each
    K = len(qs)
    if K == 0:
        # the one empty input vector, without forming the input range
        yield 0, np.zeros(1, dtype=dtype)
        return
    if R ** K <= _BLOCK:
        yield 0, _outer_sums(_products(qs, c, c + R, dtype))
        return
    if R > _BLOCK:
        # one input's range alone overflows a block: take the leading inputs one
        # vector at a time and the last input's range in chunks
        for lead, xs in enumerate(itertools.product(range(c, c + R), repeat=K - 1)):
            base = sum(q * x for q, x in zip(qs, xs))
            for start in range(0, R, _BLOCK):
                block = _products(qs[-1:], c + start, c + min(start + _BLOCK, R), dtype)[0]
                block += base
                yield lead * R + start, block
        return
    # a space over _BLOCK reuses one buffer
    table = _products(qs, c, c + R, dtype)
    T = next(t for t in range(K, -1, -1) if R ** t <= _BLOCK)
    tail = _outer_sums(table[K - T:])
    lead = _outer_sums(table[:K - T])
    n, per = len(tail), _BLOCK // len(tail)
    buf = np.empty(min(per, len(lead)) * n, dtype=table.dtype)
    for start in range(0, len(lead), per):
        chunk = lead[start:start + per, None]
        block = buf[:len(chunk) * n]
        np.add(chunk, tail, out=block.reshape(len(chunk), n))
        yield start * n, block


def _two_limbs(qs: list[int], c: int, R: int, shift: int):
    # each code splits as (v >> shift) * 2^shift + (v & mask), and so does each
    # sum; the low sum's carry moves up, leaving the low limb in [0, 2^shift)
    mask = (1 << shift) - 1
    highs = _blocks([v >> shift for v in qs], c, R, np.int64)
    lows = _blocks([v & mask for v in qs], c, R, np.int64)
    for (first, high), (_, low) in zip(highs, lows):
        high += low >> shift
        low &= mask
        yield first, high, low


def _first_tie(high: np.ndarray, low: np.ndarray, arg) -> int:
    # first index of the extreme (high, low) pair under arg (np.argmax or
    # np.argmin), the high limb compared first
    j = int(arg(high))
    tie = np.flatnonzero(high == high[j])
    return int(tie[arg(low[tie])])


def _block_extremes(qs: list[int], c: int, R: int, spread: int):
    # per block of sums, in flat order: its first flat index, then the index and
    # value of its first maximum and of its first minimum.  spread = K * max(|c|, |d|)
    # bounds every sum of codes in [-1, 1], so spread * max|v| bounds the sums of v
    bits = (spread * max(map(abs, qs), default=0)).bit_length()
    shift = 62 - spread.bit_length()
    if bits > 62 and shift > 0 and spread * (max(abs(v >> shift) for v in qs) + 1) < _INT64_GUARD:
        for first, high, low in _two_limbs(qs, c, R, shift):
            jmax, jmin = _first_tie(high, low, np.argmax), _first_tie(high, low, np.argmin)
            top = (int(high[jmax]) << shift) + int(low[jmax])
            bottom = (int(high[jmin]) << shift) + int(low[jmin])
            yield first, jmax, top, jmin, bottom
        return
    dtype = np.int16 if bits <= 15 else np.int32 if bits <= 31 else np.int64 if bits <= 62 else object
    for first, block in _blocks(qs, c, R, dtype):
        jmax, jmin = int(block.argmax()), int(block.argmin())
        yield first, jmax, int(block[jmax]), jmin, int(block[jmin])


def _decode_index(flat: int, K: int, R: int, c: int) -> tuple[int, ...]:
    digits = []
    for pos in range(K):
        digits.append(c + (flat // R ** (K - 1 - pos)) % R)
    return tuple(digits)


def exhaustive_check(q, N: int, act_signed: bool, spec: AccumulatorSpec) -> AccumWitness:
    """Enumerate every N-bit input vector and take the exact max/min dot product.

    Independent oracle for check_accumulator: no extremal shortcut, every dot
    value is materialized and compared.  Raises EnumerationBudgetError when
    (2^N)^K exceeds the budget (default 2^24, env ACCQ_ENUM_BUDGET overrides).
    Sums are int16, int32 or int64 when B = K * max|q| * max(|c|, |d|) is below
    2^15, 2^31 or 2^62, two int64 limbs while each limb's sums stay below 2^62,
    Python ints beyond, and come in blocks of at most 2^18.  The witnesses are
    the first extremes, the last element varying fastest.
    """
    qs = _int_vector(q)
    K = len(qs)
    c, d = int_range(N, act_signed)
    R = d - c + 1
    total = R ** K
    limit = enumeration_budget()
    if total > limit:
        raise EnumerationBudgetError(f"{total} input vectors exceed budget {limit}")

    f = e = None
    for first, jmax, top, jmin, bottom in _block_extremes(qs, c, R, K * max(abs(c), abs(d))):
        # strict improvement only, so the first maximizer and minimizer win
        if f is None or top > f:
            f, flat_max = top, first + jmax
        if e is None or bottom < e:
            e, flat_min = bottom, first + jmin
    return _witness(f, e, _decode_index(flat_max, K, R, c), _decode_index(flat_min, K, R, c), spec)


class Certificate(NamedTuple):
    """Verdict on one row of codes; the field order is accq verify's key order."""

    K: int
    true_max: int
    true_min: int
    overflowed: bool
    exhaustive: bool


def _int64_codes(arr) -> bool:
    # an integer array whose every value fits int64
    if not isinstance(arr, np.ndarray):
        return False
    kind = arr.dtype.kind
    return kind == "i" or (kind == "u" and arr.dtype.itemsize < 8)


def _closed_forms(rows, c: int, d: int) -> tuple[list[int], list[int], list[int]]:
    # K, max and min of every row's dot product over inputs in [c, d], exactly.
    # Non-empty integer-array rows with B = K * max|q| * max(|c|, |d|) < 2^62
    # take one int64 pass, where every partial sum is bounded by B; the other
    # rows take _extremes in Python ints
    n = len(rows)
    reach = max(-c, d)
    if isinstance(rows, np.ndarray):
        fast = list(range(n)) if rows.shape[1] and _int64_codes(rows) else []
        sizes = [rows.shape[1]] * len(fast)
        flat = rows.reshape(-1)
    else:
        fast = [i for i, row in enumerate(rows) if _int64_codes(row) and row.ndim == 1 and row.size]
        sizes = [rows[i].size for i in fast]
        flat = np.concatenate([rows[i] for i in fast]) if fast else None
    Ks, fs, es = [None] * n, [None] * n, [None] * n
    if fast and reach < _INT64_GUARD:
        flat = flat.astype(np.int64, copy=False)
        starts = np.cumsum([0] + sizes[:-1])
        alpha = np.add.reduceat(np.maximum(flat, 0), starts)
        beta = np.add.reduceat(np.minimum(flat, 0), starts)
        # rows past the guard wrap silently here and are redone below
        tops = (d * alpha + c * beta).tolist()
        bottoms = (c * alpha + d * beta).tolist()
        if max(sizes) * max(int(flat.max()), -int(flat.min())) * reach < _INT64_GUARD:
            # the largest B of any row is within the guard
            if len(fast) == n:
                return sizes, tops, bottoms
            guarded = [True] * len(fast)
        else:
            highs = np.maximum.reduceat(flat, starts).tolist()
            lows = np.minimum.reduceat(flat, starts).tolist()
            guarded = [K * max(hi, -lo) * reach < _INT64_GUARD for K, hi, lo in zip(sizes, highs, lows)]
        for i, K, f, e, ok in zip(fast, sizes, tops, bottoms, guarded):
            if ok:
                Ks[i], fs[i], es[i] = K, f, e
    for i in [i for i, K in enumerate(Ks) if K is None]:
        qs = _int_vector(rows[i])
        Ks[i] = len(qs)
        fs[i], es[i] = _extremes(qs, c, d)
    return Ks, fs, es


def certify(
    rows, N: int, act_signed: bool, spec: AccumulatorSpec, exhaustive: bool = False
) -> list[Certificate]:
    """Certify integer code rows (of any lengths) against a P-bit register.

    rows is a (C, K) array or a sequence of rows.  Every row gets the exact
    closed-form worst case: in int64, over all rows at once, for integer-array
    rows whose B = K * max|q| * max(|c|, |d|) is below 2^62, in Python ints for
    the rest.  A row also goes to the exhaustive oracle when exhaustive is set,
    or when its (2^N)^K input vectors fit the enumeration budget; it overflows
    when either route says so.  A forced row over the budget raises
    EnumerationBudgetError before any result is returned.
    """
    c, d = int_range(N, act_signed)
    cap = enumeration_budget()
    if not (isinstance(rows, np.ndarray) and rows.ndim == 2):
        rows = list(rows)
    Ks, fs, es = _closed_forms(rows, c, d)
    hi, lo = spec.hi, spec.lo
    overflowed = [f > hi or e < lo for f, e in zip(fs, es)]
    enumerated = [exhaustive or (1 << (N * K)) <= cap for K in Ks]  # (2^N)^K input vectors
    for i in [i for i, flag in enumerate(enumerated) if flag]:
        # the oracle converts the row itself, independently of the closed form
        overflowed[i] |= exhaustive_check(rows[i], N, act_signed, spec).overflowed
    return list(map(Certificate._make, zip(Ks, fs, es, overflowed, enumerated)))


def verify_domination(w, s, q) -> bool:
    """True when the rescaled codes s*q never exceed w in magnitude or flip its sign.

    w and q are one row with one scale s, or (C, K) stacks of rows with one
    scale per row in s; the answer is True only when every row holds.  These
    are exactly the hypotheses under which replacing w by s*q cannot enlarge
    any dot product against sign-aligned inputs, so an l1 certificate on w/s
    transfers to the integer codes.  s*q is the float64 product, as in Python.
    """
    w_arr = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w_arr)):
        raise NonFiniteInputError("w must be finite")
    s_arr = np.asarray(s, dtype=float)
    if not np.all((s_arr > 0.0) & np.isfinite(s_arr)):
        raise NonFiniteInputError(f"scale must be a positive finite float, got {s!r}")
    q_arr = q if isinstance(q, np.ndarray) else np.asarray(q, dtype=object)
    if q_arr.dtype.kind in "iu":
        codes = q_arr.astype(float)
    else:
        codes = np.array(_int_vector(q_arr), dtype=float).reshape(q_arr.shape)
    if w_arr.ndim == 2:
        if codes.shape != w_arr.shape:
            raise LengthMismatchError(f"w shape {w_arr.shape} vs q shape {codes.shape}")
        s_arr = s_arr.reshape(-1, 1)
    else:
        w_arr, codes = w_arr.ravel(), codes.ravel()
        if codes.size != w_arr.size:
            raise LengthMismatchError(f"len(w)={w_arr.size} vs len(q)={codes.size}")
    if np.any(np.abs(s_arr * codes) > np.abs(w_arr)):
        return False
    # a nonzero code needs w of the same strict sign
    return not np.any(((codes > 0) & ~(w_arr > 0)) | ((codes < 0) & ~(w_arr < 0)))
