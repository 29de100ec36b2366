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
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidBitWidthError

_MAX_BITS = 64

# weight codes are trunc(w / s) in float64.  Up to 52 bits every code sits
# where the float spacing is below 1, so truncation rounds toward zero; from 53
# bits on it reaches 1, codes can round away from zero (A2Q+ channels overflow
# from M = 53), and at M = 64 the clip bound 2^63 - 1 rounds up to 2^63
MAX_WEIGHT_BITS = 52


def _check_bits(value: int, name: str, low: int, high: int = _MAX_BITS) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidBitWidthError(f"{name} must be an int, got {value!r}")
    if not low <= value <= high:
        raise InvalidBitWidthError(f"{name} must be in [{low}, {high}], got {value}")


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
        _check_bits(self.M, "M", 2, MAX_WEIGHT_BITS)
        _check_bits(self.N, "N", 1)
        _check_bits(self.P, "P", 2)


def int_range(bits: int, signed: bool) -> tuple[int, int]:
    """Inclusive [lo, hi] of a two's-complement (signed) or plain (unsigned) code."""
    _check_bits(bits, "bits", 1)
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def a2q_limit(P: int, N: int, act_signed: bool = False) -> Fraction:
    """l1 budget that keeps any N-bit dot product inside a signed P-bit register.

    Holds for arbitrary integer q (no zero-sum requirement).  Signed inputs get a
    factor-2 wider budget because their magnitude ceiling is half as large.
    """
    _check_bits(P, "P", 2)
    _check_bits(N, "N", 1)
    return Fraction((1 << (P - 1)) - 1, 1 << (N - (1 if act_signed else 0)))


def a2q_plus_limit(P: int, N: int) -> Fraction:
    """Wider l1 budget available when the integer weights sum to zero.

    For zero-sum q the accumulator range consumed by the dot product is symmetric,
    which buys (2^P - 2) / (2^N - 1) regardless of input signedness.
    """
    _check_bits(P, "P", 2)
    _check_bits(N, "N", 1)
    return Fraction((1 << P) - 2, (1 << N) - 1)


def bound_ratio(N: int, act_signed: bool = False) -> Fraction:
    """Ratio a2q_plus_limit / a2q_limit; independent of P.

    Equals 2^(N + 1 - 1{signed}) / (2^N - 1): a 4x budget increase at N = 1 for
    unsigned inputs, 2x signed, approaching 2x (unsigned) or 1x (signed) as N grows.
    """
    _check_bits(N, "N", 1)
    return Fraction(1 << (N + 1 - (1 if act_signed else 0)), (1 << N) - 1)


def min_acc_width(k_star: int, M: int, N: int, act_signed: bool = False) -> int:
    """Most conservative accumulator width for a K*-long M-bit x N-bit dot product.

    Returns ceil(alpha + phi(alpha) + 1) with alpha = log2(K*) + N + M - 1 - 1{signed}
    and phi(alpha) = log2(1 + 2^-alpha).  Computed in double precision, ceiling
    applied last; phi(alpha) < 1 always, so the ceiling is unambiguous unless the
    sum sits within 1e-9 of an integer, in which case we round up (conservative).

    The result can over-reserve for unsigned inputs (the derivation bounds
    2^N - 1 by 2^N): one bit typically, two in the N = 1 corner where that
    slack compounds with the rounding headroom.  It never under-reserves.
    """
    if not isinstance(k_star, int) or isinstance(k_star, bool) or k_star < 1:
        raise InvalidBitWidthError(f"k_star must be a positive int, got {k_star!r}")
    _check_bits(M, "M", 2)
    _check_bits(N, "N", 1)
    alpha = math.log2(k_star) + N + M - 1 - (1 if act_signed else 0)
    phi = math.log2(1.0 + 2.0 ** (-alpha))
    total = alpha + phi + 1.0
    nearest = round(total)
    if abs(total - nearest) <= 1e-9:
        return int(nearest) + 1
    return math.ceil(total)
