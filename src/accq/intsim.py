"""Exact simulation of fixed-width integer accumulation.

Overflow verdicts must never themselves be victims of overflow, so every dot
product that feeds a verdict is computed with Python ints (arbitrary precision).
The exhaustive enumerator switches to vectorized int64 only when the worst-case
magnitude provably fits, and falls back to exact Python arithmetic otherwise.

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
from .errors import EnumerationBudgetError, LengthMismatchError, NonFiniteInputError

DEFAULT_ENUM_BUDGET = 1 << 24
ENUM_BUDGET_ENV = "ACCQ_ENUM_BUDGET"


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


def wrapping_dot(x, q, spec: AccumulatorSpec) -> tuple[int, bool]:
    """Dot product as a P-bit register would hold it, plus an overflow flag."""
    true = exact_dot(x, q)
    wrapped = wrap(true, spec.P)
    return wrapped, wrapped != true


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
    x_max = [d if v >= 0 else c for v in qs]
    x_min = [c if v >= 0 else d for v in qs]
    return _witness(f, e, x_max, x_min, spec)


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


def enumeration_budget(budget: int | None = None) -> int:
    """Active exhaustive-enumeration budget; env ACCQ_ENUM_BUDGET overrides the default."""
    if budget is not None:
        return int(budget)
    raw = os.environ.get(ENUM_BUDGET_ENV)
    return int(raw) if raw else DEFAULT_ENUM_BUDGET


def _dots_int64(qs: list[int], vals: np.ndarray) -> np.ndarray:
    # outer-sum expansion; the last element varies fastest in the flat index
    dots = np.zeros(1, dtype=np.int64)
    for qi in qs:
        contrib = (qi * vals).astype(np.int64)
        dots = (dots[:, None] + contrib[None, :]).ravel()
    return dots


def _decode_index(flat: int, K: int, R: int, c: int) -> tuple[int, ...]:
    digits = []
    for pos in range(K):
        digits.append(c + (flat // R ** (K - 1 - pos)) % R)
    return tuple(digits)


def exhaustive_check(
    q, N: int, act_signed: bool, spec: AccumulatorSpec, budget: int | None = None
) -> AccumWitness:
    """Enumerate every N-bit input vector and take the exact max/min dot product.

    Independent oracle for check_accumulator: no extremal shortcut, every dot
    value is materialized and compared.  Raises EnumerationBudgetError when
    (2^N)^K exceeds the budget (default 2^24, env ACCQ_ENUM_BUDGET overrides).
    """
    qs = _int_vector(q)
    K = len(qs)
    c, d = int_range(N, act_signed)
    R = d - c + 1
    total = R ** K
    limit = enumeration_budget(budget)
    if total > limit:
        raise EnumerationBudgetError(f"{total} input vectors exceed budget {limit}")

    max_abs = max((abs(v) for v in qs), default=0) * max(abs(c), abs(d))
    if K * max_abs < (1 << 62):
        vals = np.arange(c, d + 1, dtype=np.int64)
        if total > (1 << 22) and K > 1:
            # split on the first element to keep peak memory at R^(K-1)
            tail = _dots_int64(qs[1:], vals)
            f = e = None
            jmax = jmin = 0
            for i0 in range(R):
                block = qs[0] * int(vals[i0]) + tail
                bmax_j = int(block.argmax())
                bmin_j = int(block.argmin())
                if f is None or int(block[bmax_j]) > f:
                    f, jmax = int(block[bmax_j]), i0 * len(tail) + bmax_j
                if e is None or int(block[bmin_j]) < e:
                    e, jmin = int(block[bmin_j]), i0 * len(tail) + bmin_j
        else:
            dots = _dots_int64(qs, vals)
            jmax, jmin = int(dots.argmax()), int(dots.argmin())
            f, e = int(dots[jmax]), int(dots[jmin])
        x_max = _decode_index(jmax, K, R, c)
        x_min = _decode_index(jmin, K, R, c)
    else:
        # magnitudes too large for int64: exact but slow Python path
        f = e = None
        x_max = x_min = tuple([0] * K)
        for combo in itertools.product(range(c, d + 1), repeat=K):
            dot = sum(a * b for a, b in zip(combo, qs))
            if f is None or dot > f:
                f, x_max = dot, combo
            if e is None or dot < e:
                e, x_min = dot, combo

    return _witness(f, e, list(x_max), list(x_min), spec)


class Certificate(NamedTuple):
    """Verdict on one row of codes; the field order is accq verify's key order."""

    K: int
    true_max: int
    true_min: int
    overflowed: bool
    exhaustive: bool


def certify(
    rows, N: int, act_signed: bool, spec: AccumulatorSpec, exhaustive: bool = False,
    budget: int | None = None,
) -> list[Certificate]:
    """Certify integer code rows (of any lengths) against a P-bit register.

    Every row gets the exact closed-form worst case.  A row also goes to the
    exhaustive oracle when exhaustive is set, or when its (2^N)^K input vectors
    fit the enumeration budget; it overflows when either route says so.  A
    forced row over the budget raises EnumerationBudgetError before any result
    is returned.
    """
    c, d = int_range(N, act_signed)
    cap = enumeration_budget(budget)
    out = []
    for row in rows:
        qs = _int_vector(row)
        f, e = _extremes(qs, c, d)
        overflowed = f > spec.hi or e < spec.lo
        enumerated = exhaustive or (1 << (N * len(qs))) <= cap  # (2^N)^K input vectors
        if enumerated:
            # the oracle converts the row itself, independently of the closed form
            overflowed |= exhaustive_check(row, N, act_signed, spec, budget=budget).overflowed
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
