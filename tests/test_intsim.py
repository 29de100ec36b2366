"""Exact integer accumulation, overflow witnesses, two's-complement wrapping."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accq import intsim
from accq.bounds import int_range
from accq.errors import EnumerationBudgetError, InvalidBitWidthError, NonFiniteInputError
from accq.intsim import (
    AccumulatorSpec,
    _extremes,
    certify,
    check_accumulator,
    exhaustive_check,
    wrap,
)

from oracles import (
    LengthMismatchError,
    brute_extremes,
    brute_witness,
    exact_dot,
    extremal_inputs,
    verify_domination,
)


def test_spec_register_range():
    spec = AccumulatorSpec(P=4)
    assert (spec.lo, spec.hi) == (-8, 7)
    assert AccumulatorSpec(P=2).lo == -2


def test_exact_dot_is_plain_integer_arithmetic():
    assert exact_dot([3, -1, 2], [2, 5, -4]) == 3 * 2 - 5 - 8
    assert exact_dot([], []) == 0
    # stays exact far past float53
    big = 1 << 60
    assert exact_dot([big, big], [3, 5]) == 8 * big


def test_extremal_inputs_frozen():
    # unsigned N=2: positive weights take 3, negatives and zeros take 0 (max side)
    wit = exhaustive_check([2, -1, 0], 2, False, AccumulatorSpec(P=8))
    assert (wit.witness_x_max, wit.witness_x_min) == ((3, 0, 0), (0, 3, 0))
    # signed N=1 codes are {-1, 0}: max pairs negatives with -1
    wit = exhaustive_check([2, -1], 1, True, AccumulatorSpec(P=8))
    assert (wit.witness_x_max, wit.witness_x_min) == ((0, -1), (-1, 0))


@given(
    q=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
    N=st.integers(min_value=1, max_value=3),
    signed=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_extremal_inputs_match_brute_force(q, N, signed):
    hi, lo = brute_extremes(q, N, signed)
    cert = check_accumulator(q, N, signed, AccumulatorSpec(P=8))
    assert (cert.true_max, cert.true_min) == (hi, lo)
    wit = exhaustive_check(q, N, signed, AccumulatorSpec(P=8))
    assert exact_dot(wit.witness_x_max, q) == hi
    assert exact_dot(wit.witness_x_min, q) == lo


@pytest.mark.parametrize("N", [0, 65])
@pytest.mark.parametrize(
    "check, codes",
    [(check_accumulator, [1]), (exhaustive_check, [1]), (certify, [[1]])],
    ids=["check_accumulator", "exhaustive_check", "certify"],
)
def test_bad_input_width_is_named_N(check, codes, N):
    with pytest.raises(InvalidBitWidthError, match=rf"^N must be in \[1, 64\], got {N}$"):
        check(codes, N, False, AccumulatorSpec(P=8))


@pytest.mark.parametrize(
    "check, codes",
    [(check_accumulator, [8] * 16), (exhaustive_check, [8] * 16), (certify, [[8] * 16])],
    ids=["check_accumulator", "exhaustive_check", "certify"],
)
def test_a_signedness_flag_that_is_not_a_bool_is_refused(check, codes):
    # "false" is truthy: these 16 codes at N = 4 were certified as signed inputs,
    # true_max 896, where unsigned inputs reach 1920; the flag is named as these callers name it
    with pytest.raises(InvalidBitWidthError, match="^act_signed must be a bool, got 'false'$"):
        check(codes, 4, "false", AccumulatorSpec(P=8))


@pytest.mark.parametrize(
    "check, codes",
    [
        (check_accumulator, np.array([[1, 2], [3, -4]])),
        (exhaustive_check, np.array([[1, 2], [3, -4]])),
        (certify, [np.array([[1, 2], [3, -4]])]),
        (certify, np.zeros((3, 2, 2), dtype=np.int64)),
    ],
    ids=["check_accumulator", "exhaustive_check", "certify-2d-row", "certify-3d"],
)
def test_multi_dimensional_codes_are_rejected(check, codes):
    # a 2-d row is not flattened into one K=4 verdict
    with pytest.raises(ValueError, match=r"^one row of codes expected, got shape \(2, 2\)$"):
        check(codes, 4, False, AccumulatorSpec(P=16))


def test_zero_d_code_is_one_code_and_a_block_is_rows():
    spec = AccumulatorSpec(P=16)
    one = check_accumulator([3], 4, False, spec)
    assert [check_accumulator(v, 4, False, spec) for v in (np.int64(3), np.array(3), 3)] == [one] * 3
    block = [[1, 2], [3, -4]]
    assert [c.true_max for c in certify(np.array(block), 4, False, spec)] == [45, 45]
    assert certify(np.array(block), 4, False, spec) == certify(block, 4, False, spec)


@pytest.mark.parametrize("codes, shape", [(np.array([1, 2, 3]), r"\(3,\)"), (np.array(3), r"\(\)")], ids=["1-d", "0-d"])
def test_certify_rejects_an_array_of_fewer_than_two_dimensions(codes, shape):
    # a 1-d array is not three K=1 rows; as one (1, K) row it is one K=3 certificate
    spec = AccumulatorSpec(P=16)
    with pytest.raises(ValueError, match=rf"^rows must be a \(C, K\) array or a sequence of rows, got shape {shape}$"):
        certify(codes, 4, False, spec)
    assert certify(codes.reshape(1, -1), 4, False, spec) == [(codes.size, 15 * int(codes.sum()), 0, False, True)]


@pytest.mark.parametrize("rows", [[1, 2, 3], (np.int64(1), np.int64(2))], ids=["ints", "numpy-scalars"])
def test_certify_rejects_a_sequence_of_codes(rows):
    # a sequence of codes is not one K=1 row per code; wrapped as one row it is one certificate
    spec = AccumulatorSpec(P=16)
    with pytest.raises(ValueError, match=r"^row 0 is a single code, not a row of codes$"):
        certify(rows, 4, False, spec)
    with pytest.raises(ValueError, match=r"^row 1 is a single code, not a row of codes$"):
        certify([[1, 2], *rows], 4, False, spec)
    assert certify([list(rows)], 4, False, spec) == [(len(rows), 15 * sum(map(int, rows)), 0, False, True)]


def test_wrap_frozen():
    assert wrap(12, 4) == -4
    assert wrap(7, 4) == 7
    assert wrap(8, 4) == -8
    assert wrap(-9, 4) == 7
    assert wrap(-8, 4) == -8


@pytest.mark.parametrize("value", [1.5, "7", float("inf"), float("nan"), None, np.float64(-0.5), np.array(2.5)])
def test_wrap_refuses_non_integers(value):
    with pytest.raises(NonFiniteInputError):
        wrap(value, 8)


def test_wrap_takes_integral_values_of_any_type():
    # an integral float, a numpy scalar or a 0-d array is the integer it holds
    assert [wrap(v, 4) for v in (12.0, np.int64(-9), np.float64(8.0), np.array(7), 2**70 + 3)] == [-4, 7, -8, 7, 3]


@given(v=st.integers(min_value=-(1 << 70), max_value=1 << 70), P=st.integers(2, 64))
def test_wrap_is_congruent_and_in_range(v, P):
    w = wrap(v, P)
    lo, hi = -(1 << (P - 1)), (1 << (P - 1)) - 1
    assert lo <= w <= hi
    assert (w - v) % (1 << P) == 0


def test_wrapping_dot_frozen():
    # a P=4 register holds the exact dot product wrapped; it overflowed iff they differ
    assert wrap(exact_dot([3], [4]), 4) == -4 != exact_dot([3], [4])
    assert wrap(exact_dot([1, 1], [2, 3]), 4) == 5 == exact_dot([1, 1], [2, 3])


def test_check_accumulator_fits():
    spec = AccumulatorSpec(P=3)
    wit = check_accumulator([1, -1], 2, False, spec)
    assert (wit.true_max, wit.true_min) == (3, -3)
    assert not wit.overflowed
    assert wit.true_max <= spec.hi and wit.true_min >= spec.lo and wit.true_max - wit.true_min <= (1 << 3) - 1
    assert wrap(wit.true_max, 3) == 3


def test_check_accumulator_overflow_witness():
    cert = check_accumulator([4], 2, False, AccumulatorSpec(P=4))
    assert cert.overflowed
    assert cert.true_max == 12 and wrap(cert.true_max, 4) == -4
    x_max = exhaustive_check([4], 2, False, AccumulatorSpec(P=4)).witness_x_max
    assert x_max == (3,)
    assert cert.true_max > AccumulatorSpec(P=4).hi
    # replaying the oracle's witness through the wrapping register reproduces the corruption
    assert wrap(exact_dot(x_max, [4]), 4) == -4 != exact_dot(x_max, [4])


@given(
    q=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
    N=st.integers(min_value=1, max_value=3),
    signed=st.booleans(),
    P=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=150, deadline=None)
def test_side_conditions_imply_span_condition(q, N, signed, P):
    # the span of a signed register is exactly (hi - lo), so the two one-sided
    # checks passing forces the span check to pass as well
    spec = AccumulatorSpec(P=P)
    wit = check_accumulator(q, N, signed, spec)
    assert wit.overflowed == (wit.true_max > spec.hi or wit.true_min < spec.lo)
    if not wit.overflowed:
        assert wit.true_max - wit.true_min <= (1 << P) - 1


def _span(q, N: int, signed: bool) -> int:
    # 2 * K * max|q| * max(|c|, |d|), which the oracle's span cap bounds
    reach = 1 << (N - 1) if signed else (1 << N) - 1
    return 2 * len(q) * max(map(abs, q), default=0) * reach


def _assert_refused(q, N: int, signed: bool):
    """The oracle and forced certify refuse a row past the span cap; unforced, certify gives the closed form alone."""
    spec = AccumulatorSpec(P=64)
    cap = f"span {_span(q, N, signed)} of the reachable sums exceeds cap {intsim._REACH_SPAN}"
    with pytest.raises(EnumerationBudgetError, match=f"^{cap}$"):
        exhaustive_check(q, N, signed, spec)
    with pytest.raises(EnumerationBudgetError, match=f"^{cap}$"):
        certify([q], N, signed, spec, exhaustive=True)
    (cert,) = certify([q], N, signed, spec)
    assert cert == check_accumulator(q, N, signed, spec)
    return cert


@given(
    q=st.lists(st.integers(min_value=-7, max_value=7), min_size=1, max_size=4),
    N=st.integers(min_value=1, max_value=3),
    signed=st.booleans(),
    P=st.integers(min_value=2, max_value=10),
)
@settings(max_examples=150, deadline=None)
def test_exhaustive_agrees_with_extremal(q, N, signed, P):
    spec = AccumulatorSpec(P=P)
    fast = check_accumulator(q, N, signed, spec)
    full = exhaustive_check(q, N, signed, spec)
    assert (full.true_max, full.true_min, full.overflowed) == (fast.true_max, fast.true_min, fast.overflowed)
    assert (full.witness_x_max, full.witness_x_min) == extremal_inputs(q, N, signed)


@pytest.mark.parametrize(
    "q, N, signed",
    [([87381] * 24, 1, False), ([87381, -87381] * 12, 1, True), ([43690, -43690] * 3, 4, True), ([23301] * 6, 4, False)],
    ids=["24x1-unsigned", "24x1-signed", "6x4-signed", "6x4-unsigned"],
)
def test_reachable_sets_stay_within_the_enumeration_memory(q, N, signed):
    # the widest rows the span cap admits at the budget's K * N = 24, each
    # span within 2^7 of 2^22: one reachable set of up to 2^22 bits, within
    # 8 MB
    assert 0 <= intsim._REACH_SPAN - _span(q, N, signed) < 1 << 7
    tracemalloc.start()
    try:
        wit = exhaustive_check(q, N, signed, AccumulatorSpec(P=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fast = check_accumulator(q, N, signed, AccumulatorSpec(P=64))
    assert (wit.true_max, wit.true_min) == (fast.true_max, fast.true_min)
    assert exact_dot(wit.witness_x_max, q) == wit.true_max
    assert exact_dot(wit.witness_x_min, q) == wit.true_min
    assert peak <= 8 << 20


@pytest.mark.parametrize(
    "q, signed, x_max, x_min",
    [
        ([1, 0, 0, 0, 0, 1], False, (15, 0, 0, 0, 0, 15), (0,) * 6),
        ([1, 0, 0, 0, 0, -1], True, (7,) + (-8,) * 5, (-8,) * 5 + (7,)),
    ],
)
def test_exhaustive_witnesses_are_first_across_blocks(q, signed, x_max, x_min):
    # 16^6 input vectors, among which each extreme recurs many times
    wit = exhaustive_check(q, 4, signed, AccumulatorSpec(P=8))
    assert (wit.witness_x_max, wit.witness_x_min) == (x_max, x_min)
    assert (wit.true_max, wit.true_min) == (exact_dot(x_max, q), exact_dot(x_min, q))


@st.composite
def _enumerable_channels(draw):
    # zero, tied and repeated codes at every magnitude; (2^N)^K <= 2^12 keeps
    # the brute force quick
    N = draw(st.integers(min_value=1, max_value=4))
    K = draw(st.integers(min_value=1, max_value=min(5, 12 // N)))
    scale = draw(st.sampled_from([3, 1 << 12, 1 << 28, 1 << 59, 1 << 70, 1 << 126]))
    pool = draw(st.lists(st.integers(min_value=-scale, max_value=scale), min_size=1, max_size=3))
    q = draw(st.lists(st.sampled_from(pool + [0]), min_size=K, max_size=K))
    return q, N, draw(st.booleans())


# rows whose worst sum K * max|q| * max(|c|, |d|) is 2^15 - 1, 2^15,
# 2^31 - 1, 2^31, 2^62 - 1 and 2^62, then past int64 and far past it: all but
# the first two lie past the span cap of 2^22.  Then rows of zeros, rows whose
# negative codes leave zero codes tied, and spans at the cap and one row past
# it, whose span is 2^22 + 2.  Then rows of few input vectors and wide sums,
# and rows mixing zero and nonzero codes, one with an input of 128 values.
# A row within the cap matches the brute force; one past it is refused
@given(channel=_enumerable_channels())
@example(channel=([4681], 3, False))
@example(channel=([-2048, -2048], 4, True))
@example(channel=([2**31 - 1], 1, False))
@example(channel=([-(2**27), -(2**27)], 4, True))
@example(channel=([(2**62 - 1) // 3] * 3, 1, False))
@example(channel=([-(2**59), -(2**59)], 3, True))
@example(channel=([2**62 + 1, -(2**62 + 1), 2**62], 1, False))
@example(channel=([2**130, -(2**129), 0], 2, True))
@example(channel=([0, 0, 0], 4, True))
@example(channel=([0] * 6, 2, False))
@example(channel=([-3, 0, -3], 3, True))
@example(channel=([0, -5, 0, -5], 2, False))
@example(channel=([-1, -1, 0], 4, False))
@example(channel=([1 << 21], 1, False))
@example(channel=([(1 << 21) + 1], 1, False))
@example(channel=([-(1 << 20), 0], 1, True))
@example(channel=([1 << 20, -(1 << 20)], 1, True))
@example(channel=([32768] * 3, 4, False))
@example(channel=([1 << 20], 2, True))
@example(channel=([3, -1, 2, 0, -2, 1], 2, False))
@example(channel=([5, -7, 3], 4, True))
@example(channel=([10920, 1, 1, 0], 2, True))
@example(channel=([-9], 7, True))
@settings(max_examples=200, deadline=None)
def test_exhaustive_witnesses_are_the_first_extremes(channel):
    q, N, signed = channel
    want = brute_witness(q, N, signed)
    assert extremal_inputs(q, N, signed) == want[2:]
    if _span(q, N, signed) <= intsim._REACH_SPAN:
        wit = exhaustive_check(q, N, signed, AccumulatorSpec(P=64))
        assert (wit.true_max, wit.true_min, wit.witness_x_max, wit.witness_x_min) == want
    else:
        assert _assert_refused(q, N, signed)[1:3] == want[:2]


@given(
    q=st.lists(st.integers(min_value=-6, max_value=6), max_size=4),
    N=st.integers(min_value=1, max_value=3),
    signed=st.booleans(),
)
@example(q=[3, -2, 0, 5], N=2, signed=True)
@settings(max_examples=100, deadline=None)
def test_suffix_sets_hold_every_reachable_sum_and_its_first_input(q, N, signed):
    # bit s of the row's reachable set is set exactly when some input vector's
    # dot product is s above the sum of the smallest products, and the
    # oracle's witnesses are the first such vectors at the set's top and
    # bottom bits
    if (1 << N) ** len(q) > 1 << 9:
        q = q[: 9 // N]
    c, d = (-(1 << (N - 1)), (1 << (N - 1)) - 1) if signed else (0, (1 << N) - 1)
    reach, floor = intsim._reachable(q, N), sum(min(v * c, v * d) for v in q)
    first = {}
    for x in itertools.product(range(c, d + 1), repeat=len(q)):
        first.setdefault(exact_dot(x, q) - floor, x)
    assert sorted(first) == [s for s in range(reach.bit_length()) if reach >> s & 1]
    wit = exhaustive_check(q, N, signed, AccumulatorSpec(P=64))
    assert (wit.witness_x_max, wit.witness_x_min) == (first[max(first)], first[min(first)])


@pytest.mark.parametrize(
    "skew",
    [lambda t: t | t << 1, lambda t: t ^ 1 << (t.bit_length() - 1), lambda t: t ^ 1],
    ids=["wider", "narrower-top", "narrower-bottom"],
)
def test_reachable_sets_that_disagree_with_the_row_are_refused(monkeypatch, skew):
    # a set one sum wider than the row reaches, or missing its top or bottom
    # sum: the inputs the signs pick miss its extremes, and the oracle fails
    # rather than certify from it
    real = intsim._reachable
    monkeypatch.setattr(intsim, "_reachable", lambda qs, N: skew(real(qs, N)))
    q, spec = [3, -2, 0], AccumulatorSpec(P=64)
    msg = r"^row \[3, -2, 0\]: the inputs at its extremes reach "
    with pytest.raises(AssertionError, match=msg):
        exhaustive_check(q, 2, False, spec)
    with pytest.raises(AssertionError, match=msg):
        certify([q], 2, False, spec)


def _brute_one(v: int, N: int, signed: bool) -> tuple[int, int, tuple, tuple]:
    # brute_witness for a K = 1 row, 2^16 inputs at a time in numpy: the
    # first max and min in input order
    c, d = (-(1 << (N - 1)), (1 << (N - 1)) - 1) if signed else (0, (1 << N) - 1)
    top = bottom = None
    for start in range(c, d + 1, 1 << 16):
        xs = np.arange(start, min(start + (1 << 16), d + 1), dtype=np.int64)
        dots = v * xs
        i, j = int(dots.argmax()), int(dots.argmin())
        if top is None or dots[i] > top:
            top, x_top = int(dots[i]), int(xs[i])
        if bottom is None or dots[j] < bottom:
            bottom, x_bottom = int(dots[j]), int(xs[j])
    return top, bottom, (x_top,), (x_bottom,)


def _brute_reachable(v: int, N: int, signed: bool) -> int:
    # the bitset of v * x - min(v * c, v * d) over every input x in [c, d],
    # 2^16 inputs at a time in numpy: what _reachable builds for a K = 1 row
    c, d = (-(1 << (N - 1)), (1 << (N - 1)) - 1) if signed else (0, (1 << N) - 1)
    floor = min(v * c, v * d)
    seen = np.zeros(max(v * c, v * d) - floor + 1, dtype=bool)
    for start in range(c, d + 1, 1 << 16):
        xs = np.arange(start, min(start + (1 << 16), d + 1), dtype=np.int64)
        seen[v * xs - floor] = True
    return int.from_bytes(np.packbits(seen, bitorder="little").tobytes(), "little")


@pytest.mark.parametrize("path", ["enumerate", "reach"])
@pytest.mark.parametrize(
    "q, N, signed",
    [([2], 20, False), ([-2], 20, False), ([3], 20, True), ([-3], 20, True), ([0], 24, False), ([0], 24, True)],
)
def test_exhaustive_one_wide_input_matches_brute_force(path, q, N, signed):
    # one input of 2^20 values, the code of either sign.  "reach": the
    # oracle's extremes and first witnesses are brute force's.  A zero code
    # at N = 24 gives every input 0, and the first, c.  "enumerate": the
    # reachable set it builds is exactly the set of products that
    # enumerating every input gives
    if path == "reach":
        wit = exhaustive_check(q, N, signed, AccumulatorSpec(P=64))
        assert (wit.true_max, wit.true_min, wit.witness_x_max, wit.witness_x_min) == _brute_one(q[0], N, signed)
    else:
        assert intsim._reachable(q, N) == _brute_reachable(q[0], N, signed)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("past", [0, 1], ids=["at-cap", "cap+1"])
def test_reachable_path_ends_at_the_span_cap(monkeypatch, signed, past):
    # 2^17 and fifteen 1s at N = 1 span 2 * 16 * 2^17 = 2^22, the cap: the
    # oracle takes them.  With the cap one lower, the same row lies one past
    # it and is refused
    q, N = [1 << 17] + [1] * 15, 1
    assert _span(q, N, signed) == intsim._REACH_SPAN
    monkeypatch.setattr(intsim, "_REACH_SPAN", intsim._REACH_SPAN - past)
    if past:
        _assert_refused(q, N, signed)
    else:
        wit = exhaustive_check(q, N, signed, AccumulatorSpec(P=64))
        assert (wit.true_max, wit.true_min, wit.witness_x_max, wit.witness_x_min) == brute_witness(q, N, signed)
        assert certify([q], N, signed, AccumulatorSpec(P=64))[0].exhaustive


# one fixed row per shape, values and witnesses written out: any rewrite of
# the oracle must reproduce them exactly
@pytest.mark.parametrize(
    "q, N, signed, expected",
    [
        ([3, -5, 0, -2], 4, False, (45, -105, (15, 0, 0, 0), (0, 15, 0, 15))),
        ([3, -5, 2, 0, 4, -1], 4, False, (135, -90, (15, 0, 15, 0, 15, 0), (0, 15, 0, 0, 0, 15))),
        ([1000, -3000, 0, 2500], 4, True, (48500, -49000, (7, -8, -8, 7), (-8, 7, -8, -8))),
        ([], 40, False, (0, 0, (), ())),  # K = 0
        ([0, 5, -3], 7, False, (635, -381, (0, 127, 0), (0, 0, 127))),  # one input's 128 values
    ],
)
def test_exhaustive_routes_are_pinned(q, N, signed, expected):
    wit = exhaustive_check(q, N, signed, AccumulatorSpec(P=64))
    assert (wit.true_max, wit.true_min, wit.witness_x_max, wit.witness_x_min) == expected


# rows past the span cap of 2^22, their extremes written out: sums past
# int64 and far past it.  The oracle refuses each, and certify gives these
# extremes from the closed form, with exhaustive false
@pytest.mark.parametrize(
    "q, N, signed, extremes",
    [
        ([1 << 40, 0, -(1 << 40) + 3, 12345], 3, True, (7696581431455, -7696581443803)),
        ([1 << 58, -(1 << 58), 5, 7, 3, 1, 9], 3, True, (2017612633061982283, -2017612633061982308)),
        (
            [2**130, -(2**129), 0, 3], 2, True,
            (2722258935367507707706996859454145691651, -3402823669209384634633746074317682114566),
        ),
        ([1 << 58, 0, -(1 << 58)], 7, True, (36605257771267391488, -36605257771267391488)),
        ([(1 << 61) - 3, -((1 << 61) - 3)], 1, False, ((1 << 61) - 3, -((1 << 61) - 3))),
    ],
    ids=["2^40", "2^58-seven", "2^130", "2^58-wide-input", "2^61"],
)
def test_exhaustive_refuses_rows_past_the_span_cap(q, N, signed, extremes):
    assert _assert_refused(q, N, signed)[1:3] == extremes


def test_exhaustive_empty_row_is_one_empty_input():
    # K = 0 has one input vector whatever N is; its range is never formed
    tracemalloc.start()
    try:
        wit = exhaustive_check([], 40, False, AccumulatorSpec(P=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (wit.true_max, wit.true_min, wit.witness_x_max, wit.witness_x_min) == (0, 0, (), ())
    assert peak <= 1 << 20


def test_enumeration_budget_guard():
    # 2^36 inputs of a K = 9, N = 4 row lie past the default budget of 2^24
    assert intsim.ENUM_BUDGET == 1 << 24
    with pytest.raises(EnumerationBudgetError, match=r"^68719476736 input vectors exceed budget 16777216$"):
        exhaustive_check([1] * 9, 4, False, AccumulatorSpec(P=16))


def test_zero_budget_env_never_enumerates(monkeypatch):
    monkeypatch.setattr(intsim, "ENUM_BUDGET", 0)
    assert [c.exhaustive for c in certify([[1, 2]], 2, False, AccumulatorSpec(P=8))] == [False]
    with pytest.raises(EnumerationBudgetError):
        exhaustive_check([], 2, False, AccumulatorSpec(P=8))


def test_env_budget_is_the_only_budget(monkeypatch):
    # ENUM_BUDGET, read at call time, is the one budget: the oracle refuses
    # past it and certify routes by it, at the same 16 inputs of a K = 2, N = 2 row
    monkeypatch.setattr(intsim, "ENUM_BUDGET", 15)
    with pytest.raises(EnumerationBudgetError):
        exhaustive_check([1, -1], 2, False, AccumulatorSpec(P=8))
    assert [c.exhaustive for c in certify([[1, 2]], 2, False, AccumulatorSpec(P=8))] == [False]
    monkeypatch.setattr(intsim, "ENUM_BUDGET", 16)
    assert exhaustive_check([1, -1], 2, False, AccumulatorSpec(P=8)).true_max == 3
    assert [c.exhaustive for c in certify([[1, 2]], 2, False, AccumulatorSpec(P=8))] == [True]


def test_non_integer_weights_rejected():
    with pytest.raises(NonFiniteInputError):
        check_accumulator([1.5], 2, False, AccumulatorSpec(P=8))
    with pytest.raises(NonFiniteInputError):
        check_accumulator([float("nan")], 2, False, AccumulatorSpec(P=8))
    # integral floats are fine (quantized codes arrive as float arrays)
    wit = check_accumulator(np.array([2.0, -1.0]), 2, False, AccumulatorSpec(P=8))
    assert wit.true_max == 6


@pytest.mark.parametrize(
    "call",
    [
        lambda: certify([[True, 2]], 4, False, AccumulatorSpec(12)),
        lambda: certify(np.array([[True, False]]), 4, False, AccumulatorSpec(12)),
        lambda: check_accumulator([2, np.True_], 4, False, AccumulatorSpec(12)),
        lambda: exhaustive_check([False, 1], 4, False, AccumulatorSpec(12)),
        lambda: wrap(True, 8),
    ],
    ids=["certify list", "certify bool array", "check_accumulator numpy bool", "exhaustive_check", "wrap"],
)
def test_a_bool_is_not_an_integer_code(call):
    # int(True) is 1, so a flag once passed for the code 1
    with pytest.raises(NonFiniteInputError, match=r"^integer code expected, got (np\.)?(True|False)_?$"):
        call()


def test_verify_domination():
    assert verify_domination([0.5, -0.7], s=0.25, q=[2, -2])
    # magnitude grows: 3 * 0.25 > 0.7
    assert not verify_domination([0.5, -0.7], s=0.25, q=[2, -3])
    # sign flip on a nonzero code
    assert not verify_domination([0.5, -0.7], s=0.25, q=[2, 2])
    # zero codes dominate anything
    assert verify_domination([1e-9, -1e-9], s=1.0, q=[0, 0])
    with pytest.raises(LengthMismatchError):
        verify_domination([0.5], s=0.25, q=[1, 1])
    with pytest.raises(NonFiniteInputError):
        verify_domination([0.5], s=0.0, q=[1])


@given(
    q=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3),
    N=st.integers(min_value=1, max_value=2),
    signed=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_witness_inputs_are_valid_codes(q, N, signed):
    wit = exhaustive_check(q, N, signed, AccumulatorSpec(P=6))
    lo = -(1 << (N - 1)) if signed else 0
    hi = (1 << (N - 1)) - 1 if signed else (1 << N) - 1
    for x in (wit.witness_x_max, wit.witness_x_min):
        assert all(lo <= xi <= hi for xi in x)
    # the oracle's witnesses reach the closed-form extremes
    cert = check_accumulator(q, N, signed, AccumulatorSpec(P=6))
    assert exact_dot(wit.witness_x_max, q) == cert.true_max
    assert exact_dot(wit.witness_x_min, q) == cert.true_min


def test_codes_past_int64_stay_exact_in_any_sequence():
    # numpy alone turns (2**63 + 1, -3) into float64, losing the trailing 1
    q = (2**63 + 1, -3)
    assert exact_dot(q, (1, 0)) == 2**63 + 1
    for codes in (q, list(q), np.array(q, dtype=object)):
        assert check_accumulator(codes, 1, False, AccumulatorSpec(P=64)).true_max == 2**63 + 1


_CODES = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
)
_SMALL_BUDGET = 1 << 12  # lowered, so the budget binds rows of few codes too


@given(
    rows=st.lists(st.lists(_CODES, min_size=1, max_size=6), min_size=1, max_size=5),
    N=st.integers(min_value=1, max_value=8),
    signed=st.booleans(),
    P=st.integers(min_value=2, max_value=64),
)
@settings(max_examples=200, deadline=None)
def test_certify_matches_per_row_checks(rows, N, signed, P):
    spec = AccumulatorSpec(P=P)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(intsim, "ENUM_BUDGET", _SMALL_BUDGET)
        certs = certify(rows, N, signed, spec)
        assert len(certs) == len(rows)
        for q, cert in zip(rows, certs):
            wit = check_accumulator(q, N, signed, spec)
            assert cert.K == len(q)
            assert (cert.true_max, cert.true_min, cert.overflowed) == (
                wit.true_max, wit.true_min, wit.overflowed
            )
            # the routing rule: within the budget, and within the oracle's span cap
            within = (1 << N) ** len(q) <= _SMALL_BUDGET and _span(q, N, signed) <= intsim._REACH_SPAN
            assert cert.exhaustive == within
            if cert.exhaustive:
                full = exhaustive_check(q, N, signed, spec)
                assert (full.true_max, full.true_min, full.overflowed) == (
                    cert.true_max, cert.true_min, cert.overflowed
                )


def test_certify_forced_enumeration():
    spec = AccumulatorSpec(P=16)
    # 16^2 inputs fit the budget; forcing changes nothing
    assert certify([[1, -2]], 4, False, spec, exhaustive=True) == certify([[1, -2]], 4, False, spec)
    # forced past the budget: the oracle refuses, and no partial result comes back
    with pytest.raises(EnumerationBudgetError):
        certify([[1, 2], [1] * 9], 4, False, spec, exhaustive=True)
    # unforced, the long row gets the closed form only
    certs = certify([[1, 2], [1] * 9], 4, False, spec)
    assert [c.exhaustive for c in certs] == [True, False]
    assert certs[1]._asdict() == {
        "K": 9, "true_max": 135, "true_min": 0, "overflowed": False, "exhaustive": False,
    }


_INT64_CODES = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
)


@st.composite
def _code_blocks(draw):
    # a (C, K) block of int64 codes
    K = draw(st.integers(min_value=1, max_value=6))
    return draw(st.lists(st.lists(_INT64_CODES, min_size=K, max_size=K), min_size=1, max_size=5))


# B = K * max|q| * max(|c|, |d|) on each side of the int64 route's 2^62 guard
@given(
    block=_code_blocks(),
    ragged=st.lists(st.lists(_INT64_CODES, max_size=6), max_size=3),
    N=st.integers(min_value=1, max_value=64),
    signed=st.booleans(),
    P=st.integers(min_value=2, max_value=64),
)
@example(block=[[2**62 - 1]], ragged=[], N=1, signed=False, P=64)
@example(block=[[2**62]], ragged=[], N=1, signed=False, P=64)
@example(block=[[(2**62 - 1) // 3] * 3], ragged=[[1, 2**62]], N=1, signed=False, P=63)
@example(block=[[2**60, -(2**60)], [3, -3]], ragged=[], N=2, signed=True, P=62)
@example(block=[[-(2**63)]], ragged=[[]], N=1, signed=True, P=64)
# mixed calls take Python ints for every row: int64 rows with one list row, and
# int64 rows with one row past the guard
@example(block=[[3, -5], [7, 1]], ragged=[[2, -1]], N=4, signed=False, P=16)
@example(block=[[3, -5], [7, 1]], ragged=[[2**62, -1]], N=2, signed=True, P=64)
@settings(max_examples=200, deadline=None)
def test_certify_int64_route_matches_python_ints(block, ragged, N, signed, P):
    spec = AccumulatorSpec(P=P)
    rows = block + ragged
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(intsim, "ENUM_BUDGET", _SMALL_BUDGET)
        # a call of fewer than 256 codes would skip the int64 route, so it is taken at any size here
        monkeypatch.setattr(intsim, "_INT64_MIN_CODES", 1)
        want = certify(rows, N, signed, spec)  # lists of Python ints: no int64 anywhere
        as_arrays = certify([np.array(row, dtype=np.int64) for row in rows], N, signed, spec)
        as_block = certify(np.array(block, dtype=np.int64), N, signed, spec)
        mixed = certify([np.array(row, dtype=np.int64) for row in block] + ragged, N, signed, spec)
    assert as_arrays == want
    assert as_block == want[: len(block)]
    assert mixed == want
    # plain Python values, so accq verify's JSON cannot tell the routes apart
    for cert in as_arrays + as_block + mixed:
        assert [type(v) for v in cert] == [int, int, int, bool, bool]


@pytest.mark.parametrize("N, signed", [(1, False), (3, True), (8, False), (8, True)])
def test_closed_forms_int64_route_at_its_default_size_matches_python_ints(N, signed):
    # ragged rows of 256 codes or more in all, so the int64 route runs at its
    # own threshold: all-positive and all-negative rows whose B sits just
    # under the 2^62 guard, all-zero rows and mixed ones
    c, d = int_range(N, signed)
    K_max = 128
    q_max = (intsim._INT64_GUARD - 1) // (K_max * max(-c, d))
    rng = np.random.default_rng(N + signed)
    rows = [[q_max] * K_max, [-q_max] * K_max, [0] * 5, [0], [-q_max] * 3, [q_max, -q_max, 0]]
    rows += [rng.integers(-q_max, q_max, size=K, endpoint=True).tolist() for K in (1, 2, 17, 64, 100)]
    assert sum(map(len, rows)) >= intsim._INT64_MIN_CODES
    assert K_max * q_max * max(-c, d) < intsim._INT64_GUARD <= K_max * (q_max + 1) * max(-c, d)
    want = intsim._closed_forms(rows, c, d)  # lists of Python ints: no int64 anywhere
    assert intsim._closed_forms([np.array(row, dtype=np.int64) for row in rows], c, d) == want
    assert want[1][:2] == [d * q_max * K_max, -c * q_max * K_max]


_ARRAY_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def _assert_same_certificate(got, q: list, N: int, signed: bool, spec):
    # equal, field for field and in plain Python types, to the list route's
    # certificate, with extremes that the sign rule's inputs reach
    assert got == check_accumulator(q, N, signed, spec)
    assert [type(v) for v in got] == [int, int, int, bool, bool]
    x_max, x_min = extremal_inputs(q, N, signed)
    assert exact_dot(x_max, q) == got.true_max
    assert exact_dot(x_min, q) == got.true_min


@pytest.mark.parametrize("dtype", _ARRAY_DTYPES, ids=lambda t: np.dtype(t).name)
def test_check_accumulator_array_matches_python_ints(dtype):
    # an integer array takes the int64 route from 256 codes on, a list Python
    # ints always: both give one certificate, whose extremes the sign rule's
    # inputs reach
    info = np.iinfo(dtype)
    rng = np.random.default_rng(np.dtype(dtype).itemsize * 2 + (info.min < 0))
    spec = AccumulatorSpec(P=40)
    for K in (0, 1, 255, 256, 1024):
        full = rng.integers(info.min, info.max, size=K, endpoint=True, dtype=dtype)
        small = rng.integers(max(info.min, -7), 8, size=K, dtype=dtype)
        for q in (full, small):
            q[: K // 2 : 7] = 0  # zero codes, which add nothing to either extreme
            for N in (1, 8, 16, 32, 64):
                for signed in (False, True):
                    _assert_same_certificate(check_accumulator(q, N, signed, spec), q.tolist(), N, signed, spec)


@pytest.mark.parametrize("K", [256, 1024])
@pytest.mark.parametrize("N, signed", [(1, False), (8, True), (16, False), (32, True)])
def test_check_accumulator_array_at_the_int64_guard(monkeypatch, K, N, signed):
    # B = K * max|q| * max(|c|, |d|) just below 2^62 takes the int64 pass, and
    # just above it Python ints; both equal the list route
    reach = 1 << (N - 1) if signed else (1 << N) - 1
    top = ((1 << 62) - 1) // (K * reach)
    calls = []

    def counted(*args):
        calls.append(args)
        return _extremes(*args)

    monkeypatch.setattr(intsim, "_extremes", counted)
    for big, python_ints in ((top, False), (top + 1, True)):
        assert (K * big * reach < 1 << 62) != python_ints
        q = np.random.default_rng(K + N).integers(-big, big, size=K, endpoint=True)
        q[:2] = (big, -big)
        spec = AccumulatorSpec(P=64)
        calls.clear()
        got = check_accumulator(q, N, signed, spec)
        assert bool(calls) == python_ints
        _assert_same_certificate(got, q.tolist(), N, signed, spec)


def test_int64_route_skips_the_python_int_loop(monkeypatch):
    # pins both routes: long integer arrays never reach _extremes, in
    # check_accumulator or certify, while rows under 256 codes and lists do
    class PythonIntRoute(Exception):
        pass

    def refuse(*args):
        raise PythonIntRoute

    monkeypatch.setattr(intsim, "_extremes", refuse)
    spec = AccumulatorSpec(P=32)
    codes = np.arange(-512, 512, dtype=np.int64)
    assert check_accumulator(codes, 4, False, spec).true_max == 15 * sum(range(512))
    assert [c.true_min for c in certify(codes.reshape(4, 256), 4, True, spec)][-1] == -8 * sum(range(256, 512))
    for short in (codes[:255], codes.tolist()):
        with pytest.raises(PythonIntRoute):
            check_accumulator(short, 4, False, spec)


@st.composite
def _one_rows(draw):
    # a row for each of the closed form's routes: integer arrays of 1 to 1024
    # codes on both sides of the 256-code threshold, lists holding a code past
    # 2^63, and int64 arrays whose B is just below the 2^62 guard or at it
    N, signed = draw(st.integers(min_value=1, max_value=64)), draw(st.booleans())
    K = draw(st.one_of(st.sampled_from([1, 2, 255, 256, 257, 1024]), st.integers(min_value=1, max_value=1024)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["array", "list", "guard"]))
    if kind == "array":
        info = np.iinfo(draw(st.sampled_from(_ARRAY_DTYPES[:-1])))  # uint64 is past int64
        q = rng.integers(info.min, info.max, size=K, endpoint=True, dtype=info.dtype)
    elif kind == "list":
        q = rng.integers(-(1 << 62), 1 << 62, size=K).tolist()
        q[int(rng.integers(K))] = draw(st.sampled_from([1, -1])) * draw(st.integers(1 << 63, 1 << 70))
    else:
        reach = 1 << (N - 1) if signed else (1 << N) - 1
        big = ((1 << 62) - 1) // (K * reach) + draw(st.integers(min_value=0, max_value=1))
        q = rng.integers(-big, big, size=K, endpoint=True)
        q[0] = draw(st.sampled_from([big, -big]))
    if draw(st.booleans()):
        q[::7] = [0] * len(q[::7])  # zero codes among the rest
    return q, N, signed


@given(row=_one_rows(), P=st.integers(min_value=2, max_value=64))
@example(row=(np.arange(-128, 128, dtype=np.int8), 8, True), P=16)
@example(row=([2**63 + 1, -3], 1, False), P=64)
@settings(max_examples=200, deadline=None)
def test_check_accumulator_is_certify_on_one_row(row, P):
    q, N, signed = row
    spec = AccumulatorSpec(P=P)
    assert check_accumulator(q, N, signed, spec) == certify([q], N, signed, spec)[0]._replace(exhaustive=False)


def test_verify_domination_over_row_stacks():
    w = np.array([[0.5, -0.7], [0.35, 0.0]])
    s = np.array([0.25, 0.1])
    assert verify_domination(w, s, np.array([[2, -2], [3, 0]]))
    # one row failing fails the stack: 4 * 0.1 > 0.35, and a sign flip
    assert not verify_domination(w, s, np.array([[2, -2], [4, 0]]))
    assert not verify_domination(w, s, np.array([[2, 2], [3, 0]]))
    # every row agrees with its one-row verdict, codes given as lists too
    assert verify_domination(w, s, [[2, -2], [3, 0]]) == all(
        verify_domination(wr, sr, qr) for wr, sr, qr in zip(w, s, [[2, -2], [3, 0]])
    )
    with pytest.raises(LengthMismatchError):
        verify_domination(w, s, np.array([[2, -2, 0], [3, 0, 0]]))
    with pytest.raises(NonFiniteInputError):
        verify_domination(w, np.array([0.25, 0.0]), np.array([[2, -2], [3, 0]]))
