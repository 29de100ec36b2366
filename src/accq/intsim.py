"""Exact simulation of fixed-width integer accumulation.

Overflow verdicts must never themselves be victims of overflow, so every dot
product that feeds a verdict is exact: Python ints in the closed form, and in
the exhaustive enumerator the narrowest of int16, int32 and int64 that provably
holds every sum, else Python ints (an object array).

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
    return (np.array(qs, dtype=wide).reshape(len(qs), 1) * np.arange(lo, hi, dtype=wide)).astype(dtype)


def _blocks(qs: list[int], c: int, R: int, dtype):
    # (first flat index, sums) in flat order, at most _BLOCK sums each
    K = len(qs)
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
    2^15, 2^31 or 2^62, Python ints beyond, and come in blocks of at most 2^18.
    The witnesses are the first extremes, the last element varying fastest.
    """
    qs = _int_vector(q)
    K = len(qs)
    c, d = int_range(N, act_signed)
    R = d - c + 1
    total = R ** K
    limit = enumeration_budget()
    if total > limit:
        raise EnumerationBudgetError(f"{total} input vectors exceed budget {limit}")

    bits = (K * max(map(abs, qs), default=0) * max(abs(c), abs(d))).bit_length()
    dtype = np.int16 if bits <= 15 else np.int32 if bits <= 31 else np.int64 if bits <= 62 else object
    f = e = None
    for first, block in _blocks(qs, c, R, dtype):
        jmax, jmin = int(block.argmax()), int(block.argmin())
        # strict improvement only, so the first maximizer and minimizer win
        if f is None or block[jmax] > f:
            f, flat_max = int(block[jmax]), first + jmax
        if e is None or block[jmin] < e:
            e, flat_min = int(block[jmin]), first + jmin
    return _witness(f, e, _decode_index(flat_max, K, R, c), _decode_index(flat_min, K, R, c), spec)


class Certificate(NamedTuple):
    """Verdict on one row of codes; the field order is accq verify's key order."""

    K: int
    true_max: int
    true_min: int
    overflowed: bool
    exhaustive: bool


def certify(
    rows, N: int, act_signed: bool, spec: AccumulatorSpec, exhaustive: bool = False
) -> list[Certificate]:
    """Certify integer code rows (of any lengths) against a P-bit register.

    Every row gets the exact closed-form worst case.  A row also goes to the
    exhaustive oracle when exhaustive is set, or when its (2^N)^K input vectors
    fit the enumeration budget; it overflows when either route says so.  A
    forced row over the budget raises EnumerationBudgetError before any result
    is returned.
    """
    c, d = int_range(N, act_signed)
    cap = enumeration_budget()
    out = []
    for row in rows:
        qs = _int_vector(row)
        f, e = _extremes(qs, c, d)
        overflowed = f > spec.hi or e < spec.lo
        enumerated = exhaustive or (1 << (N * len(qs))) <= cap  # (2^N)^K input vectors
        if enumerated:
            # the oracle converts the row itself, independently of the closed form
            overflowed |= exhaustive_check(row, N, act_signed, spec).overflowed
        out.append(Certificate(len(qs), f, e, overflowed, enumerated))
    return out


def verify_domination(w, s: float, q) -> bool:
    """True when the rescaled codes s*q never exceed w in magnitude or flip its sign.

    These are exactly the hypotheses under which replacing w by s*q cannot
    enlarge any dot product against sign-aligned inputs, so an l1 certificate on
    w/s transfers to the integer codes.
    """
    w_arr = np.asarray(w, dtype=float).ravel()
    if not np.all(np.isfinite(w_arr)):
        raise NonFiniteInputError("w must be finite")
    if not (s > 0.0 and np.isfinite(s)):
        raise NonFiniteInputError(f"scale must be a positive finite float, got {s!r}")
    qs = _int_vector(q)
    if len(qs) != w_arr.size:
        raise LengthMismatchError(f"len(w)={w_arr.size} vs len(q)={len(qs)}")
    for wi, qi in zip(w_arr.tolist(), qs):
        if abs(s * qi) > abs(wi):
            return False
        # a nonzero code needs w of the same strict sign
        if (qi > 0 and not wi > 0) or (qi < 0 and not wi < 0):
            return False
    return True
