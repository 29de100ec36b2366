"""Accumulator-aware l1 budgets for integer weight vectors, kept exact as rationals.

A length-K dot product between N-bit integer inputs and integer weights q stays
inside a signed P-bit register whenever ||q||_1 is small enough.  Two budgets:

* ``a2q_limit``:      ||q||_1 <= (2^(P-1) - 1) / 2^(N - 1{signed})
* ``a2q_plus_limit``: ||q||_1 <= (2^P - 2) / (2^N - 1), valid when q sums to zero

The zero-sum budget is strictly wider for every N and does not depend on input
signedness.  Both are returned as ``fractions.Fraction`` so callers can compare
against integer code norms without any float round-off.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidBitWidthError

_MAX_BITS = 64

# weight codes are trunc(w / s) in float64.  Up to 52 bits every code sits
# where the float spacing is below 1, so truncation rounds toward zero; from 53
# bits on it reaches 1, codes can round away from zero (A2Q+ channels overflow
# from M = 53), and at M = 64 the clip bound 2^63 - 1 rounds up to 2^63
MAX_WEIGHT_BITS = 52


# One rule per kind of scalar field, integer, real and flag.  Each refuses a bool
# where a number is meant and anything not of its kind, checks the range, raises
# an error naming the field, and returns the Python value the field keeps, which
# callers compute with: a numpy integer wraps, and 1 << np.int64(63) is -2^63


def _int_field(value, name: str, low: int, high: float = _MAX_BITS, error=InvalidBitWidthError) -> int:
    """value as an int in [low, high], high = math.inf for no upper bound; the defaults fit a bit width."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise error(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if not low <= value <= high:
        span = f"at least {low}" if high == math.inf else f"in [{low}, {high}]"
        raise error(f"{name} must be {span}, got {value}")
    return value


def _real_field(value, name: str, low: float = -math.inf, error=ValueError, strict: bool = False) -> float:
    """value as a finite float, at least low (above it if strict); an int, a Fraction or a numpy number converts."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise error(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int or a Fraction past float range
            value = math.inf if value > 0 else -math.inf
    if not (math.isfinite(value) and (value > low if strict else value >= low)):
        span = "" if low == -math.inf else f" and {'above' if strict else 'at least'} {low:g}"
        raise error(f"{name} must be finite{span}, got {value}")
    return value


def _flag_field(value, name: str) -> bool:
    """value as a bool, a numpy bool converted; InvalidBitWidthError otherwise."""
    if type(value) is bool or isinstance(value, np.bool_):
        return bool(value)
    raise InvalidBitWidthError(f"{name} must be a bool, got {value!r}")


@dataclass(frozen=True)
class BitWidths:
    """Bit widths of one quantized dot product.

    M: signed weight bits (2 to MAX_WEIGHT_BITS: sign plus at least one
       magnitude bit, and codes that stay exact in float64)
    N: input (activation) bits (>= 1)
    P: accumulator register bits (>= 2)
    act_signed: whether the N-bit inputs are signed
    """

    M: int
    N: int
    P: int
    act_signed: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", _int_field(self.M, "M", 2, MAX_WEIGHT_BITS))
        object.__setattr__(self, "N", _int_field(self.N, "N", 1))
        object.__setattr__(self, "P", _int_field(self.P, "P", 2))
        object.__setattr__(self, "act_signed", _flag_field(self.act_signed, "act_signed"))


def int_range(bits: int, signed: bool) -> tuple[int, int]:
    """Inclusive [lo, hi] of a two's-complement (signed) or plain (unsigned) code."""
    bits = _int_field(bits, "bits", 1)
    if _flag_field(signed, "signed"):
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def a2q_limit(P: int, N: int, act_signed: bool = False) -> Fraction:
    """l1 budget that keeps any N-bit dot product inside a signed P-bit register.

    Holds for arbitrary integer q (no zero-sum requirement).  Signed inputs get a
    factor-2 wider budget because their magnitude ceiling is half as large.
    """
    P, N = _int_field(P, "P", 2), _int_field(N, "N", 1)
    return Fraction((1 << (P - 1)) - 1, 1 << (N - _flag_field(act_signed, "act_signed")))


def a2q_plus_limit(P: int, N: int) -> Fraction:
    """Wider l1 budget available when the integer weights sum to zero.

    For zero-sum q the accumulator range consumed by the dot product is symmetric,
    which buys (2^P - 2) / (2^N - 1) regardless of input signedness.
    """
    P, N = _int_field(P, "P", 2), _int_field(N, "N", 1)
    return Fraction((1 << P) - 2, (1 << N) - 1)


def bound_ratio(N: int, act_signed: bool = False) -> Fraction:
    """Ratio a2q_plus_limit / a2q_limit; independent of P.

    Equals 2^(N + 1 - 1{signed}) / (2^N - 1): a 4x budget increase at N = 1 for
    unsigned inputs, 2x signed, approaching 2x (unsigned) or 1x (signed) as N grows.
    """
    N = _int_field(N, "N", 1)
    return Fraction(1 << (N + 1 - _flag_field(act_signed, "act_signed")), (1 << N) - 1)


def min_acc_width(k_star: int, M: int, N: int, act_signed: bool = False) -> int:
    """Most conservative accumulator width for a K*-long M-bit x N-bit dot product.

    Returns ceil(alpha + phi(alpha) + 1) with alpha = log2(K*) + N + M - 1 - 1{signed}
    and phi(alpha) = log2(1 + 2^-alpha).  Since alpha + phi(alpha) =
    log2(2^alpha + 1) and 2^alpha = K* * 2^(N + M - 1 - 1{signed}) is an
    integer A, the ceiling is the bit length of A, computed in exact integers.

    The result can over-reserve for unsigned inputs (the derivation bounds
    2^N - 1 by 2^N): one bit typically, two in the N = 1 corner where that
    slack compounds with the rounding headroom.  It never under-reserves.
    """
    k_star, M, N = _int_field(k_star, "k_star", 1, math.inf), _int_field(M, "M", 2), _int_field(N, "N", 1)
    return (k_star << (N + M - 1 - _flag_field(act_signed, "act_signed"))).bit_length() + 1
