"""Bit-width bookkeeping and the exact rational norm limits."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accq.bounds import (
    MAX_WEIGHT_BITS,
    BitWidths,
    a2q_limit,
    a2q_plus_limit,
    bound_ratio,
    int_range,
    min_acc_width,
)
from accq.errors import InvalidBitWidthError

from oracles import exact_min_width


def test_int_range_frozen():
    assert int_range(4, signed=True) == (-8, 7)
    assert int_range(4, signed=False) == (0, 15)
    assert int_range(1, signed=True) == (-1, 0)
    assert int_range(1, signed=False) == (0, 1)
    assert int_range(8, signed=True) == (-128, 127)


def test_a2q_limit_frozen():
    # 16-bit register, 8-bit inputs: (2^15 - 1) / 2^8 resp. /2^7 for signed
    assert a2q_limit(16, 8, act_signed=False) == Fraction(32767, 256)
    assert a2q_limit(16, 8, act_signed=True) == Fraction(32767, 128)
    assert a2q_limit(4, 1, act_signed=False) == Fraction(7, 2)
    assert a2q_limit(4, 1, act_signed=True) == Fraction(7, 1)
    assert a2q_limit(2, 1, act_signed=False) == Fraction(1, 2)


def test_a2q_plus_limit_frozen():
    assert a2q_plus_limit(16, 8) == Fraction(65534, 255)
    assert a2q_plus_limit(4, 1) == Fraction(14, 1)
    assert a2q_plus_limit(3, 2) == Fraction(2, 1)
    assert a2q_plus_limit(2, 1) == Fraction(2, 1)


def test_bound_ratio_frozen():
    assert bound_ratio(1, act_signed=False) == Fraction(4, 1)
    assert bound_ratio(1, act_signed=True) == Fraction(2, 1)
    assert bound_ratio(2, act_signed=False) == Fraction(8, 3)
    assert bound_ratio(2, act_signed=True) == Fraction(4, 3)
    assert bound_ratio(8, act_signed=False) == Fraction(512, 255)


@given(
    P=st.integers(min_value=2, max_value=32),
    N=st.integers(min_value=1, max_value=16),
    signed=st.booleans(),
)
def test_plus_limit_is_ratio_times_base(P, N, signed):
    assert a2q_plus_limit(P, N) == a2q_limit(P, N, act_signed=signed) * bound_ratio(
        N, act_signed=signed
    )


@given(
    P=st.integers(min_value=2, max_value=31),
    N=st.integers(min_value=1, max_value=15),
    signed=st.booleans(),
)
def test_limits_monotone_in_register_and_input_width(P, N, signed):
    assert a2q_limit(P + 1, N, act_signed=signed) > a2q_limit(P, N, act_signed=signed)
    assert a2q_limit(P, N + 1, act_signed=signed) < a2q_limit(P, N, act_signed=signed)
    assert a2q_plus_limit(P + 1, N) > a2q_plus_limit(P, N)
    assert a2q_plus_limit(P, N + 1) < a2q_plus_limit(P, N)


@given(N=st.integers(min_value=1, max_value=30), signed=st.booleans())
def test_ratio_always_strictly_above_one(N, signed):
    r = bound_ratio(N, act_signed=signed)
    assert r > 1
    # grows toward 2 (unsigned) from above resp. approaches 1 (signed, large N)
    if not signed:
        assert r >= 2


def test_bitwidths_validation():
    bw = BitWidths(M=8, N=4, P=16)
    assert bw.M == 8 and not bw.act_signed
    with pytest.raises(InvalidBitWidthError):
        BitWidths(M=1, N=4, P=16)
    with pytest.raises(InvalidBitWidthError):
        BitWidths(M=8, N=0, P=16)
    with pytest.raises(InvalidBitWidthError):
        BitWidths(M=8, N=4, P=1)
    with pytest.raises(InvalidBitWidthError):
        BitWidths(M=8, N=4, P=65)


def test_weight_bits_stop_where_float_codes_stop_being_exact():
    assert MAX_WEIGHT_BITS == 52
    assert BitWidths(M=52, N=64, P=64).M == 52
    for M in (53, 64):
        with pytest.raises(InvalidBitWidthError):
            BitWidths(M=M, N=4, P=16)


def test_rejects_bool_and_non_integer_widths():
    with pytest.raises(InvalidBitWidthError):
        a2q_limit(True, 1)
    with pytest.raises(InvalidBitWidthError):
        a2q_limit(16, 8.0)
    with pytest.raises(InvalidBitWidthError):
        min_acc_width(0, 8, 8)


def test_min_acc_width_frozen():
    # hand arithmetic: alpha = 25 / 16 / 1, correction 4.3e-8 / 2.2e-5 / 0.585
    assert min_acc_width(1024, 8, 8, act_signed=False) == 27
    assert min_acc_width(512, 4, 4, act_signed=False) == 18
    assert min_acc_width(1, 2, 1, act_signed=True) == 3


def test_min_acc_width_never_below_exact_requirement():
    # the closed form over-reserves for unsigned inputs (one bit, two in the
    # N = 1 corner where the 2^N - 1 -> 2^N slack compounds); never under
    for k in (1, 2, 3, 7, 16, 100, 512):
        for M in (2, 3, 4, 8):
            for N in (1, 2, 4, 8):
                for signed in (False, True):
                    P = min_acc_width(k, M, N, act_signed=signed)
                    need = exact_min_width(k, M, N, signed)
                    assert P >= need
                    assert P - need <= (2 if N == 1 else 1)


def test_min_acc_width_exact_for_signed_inputs():
    for k in (1, 2, 5, 33, 1024):
        for M in (2, 4, 8):
            for N in (1, 2, 4, 8):
                assert min_acc_width(k, M, N, act_signed=True) == exact_min_width(
                    k, M, N, True
                )


@given(
    k=st.integers(min_value=1, max_value=10_000),
    M=st.integers(min_value=2, max_value=10),
    N=st.integers(min_value=1, max_value=10),
    signed=st.booleans(),
)
@settings(max_examples=200)
def test_min_acc_width_monotone(k, M, N, signed):
    base = min_acc_width(k, M, N, act_signed=signed)
    assert min_acc_width(k + 1, M, N, act_signed=signed) >= base
    assert min_acc_width(k, M + 1, N, act_signed=signed) >= base
    assert min_acc_width(k, M, N + 1, act_signed=signed) >= base


def test_min_acc_width_log_term_dominates():
    # doubling k adds exactly one bit once the correction term is negligible
    widths = [min_acc_width(1 << e, 8, 8) for e in range(4, 14)]
    diffs = [b - a for a, b in zip(widths, widths[1:])]
    assert all(d == 1 for d in diffs)


@given(
    P=st.integers(min_value=2, max_value=32),
    N=st.integers(min_value=1, max_value=16),
)
def test_limits_are_in_lowest_terms_and_positive(P, N):
    for f in (a2q_limit(P, N), a2q_limit(P, N, act_signed=True), a2q_plus_limit(P, N)):
        assert f > 0
        assert math.gcd(f.numerator, f.denominator) == 1
