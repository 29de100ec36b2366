"""Exact integer accumulation, overflow witnesses, two's-complement wrapping."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accq.errors import (
    EnumerationBudgetError,
    InvalidBudgetError,
    LengthMismatchError,
    NonFiniteInputError,
)
from accq.intsim import (
    DEFAULT_ENUM_BUDGET,
    AccumulatorSpec,
    certify,
    check_accumulator,
    enumeration_budget,
    exact_dot,
    exhaustive_check,
    extremal_max_input,
    extremal_min_input,
    verify_domination,
    wrap,
)

from oracles import brute_extremes, brute_witness


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
    # unsigned N=2: positive weights take 3, negatives take 0 (max side)
    assert extremal_max_input([2, -1, 0], 2, False) == [3, 0, 3]
    assert extremal_min_input([2, -1, 0], 2, False) == [0, 3, 0]
    # signed N=1 codes are {-1, 0}: max pairs negatives with -1
    assert extremal_max_input([2, -1], 1, True) == [0, -1]
    assert extremal_min_input([2, -1], 1, True) == [-1, 0]


@given(
    q=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
    N=st.integers(min_value=1, max_value=3),
    signed=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_extremal_inputs_match_brute_force(q, N, signed):
    hi, lo = brute_extremes(q, N, signed)
    assert exact_dot(extremal_max_input(q, N, signed), q) == hi
    assert exact_dot(extremal_min_input(q, N, signed), q) == lo


def test_wrap_frozen():
    assert wrap(12, 4) == -4
    assert wrap(7, 4) == 7
    assert wrap(8, 4) == -8
    assert wrap(-9, 4) == 7
    assert wrap(-8, 4) == -8


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
    wit = check_accumulator([1, -1], 2, False, AccumulatorSpec(P=3))
    assert (wit.true_max, wit.true_min) == (3, -3)
    assert not wit.overflowed
    assert wit.fits_max_side and wit.fits_min_side and wit.fits_span
    assert wit.wrapped_max == 3


def test_check_accumulator_overflow_witness():
    wit = check_accumulator([4], 2, False, AccumulatorSpec(P=4))
    assert wit.overflowed
    assert wit.true_max == 12 and wit.wrapped_max == -4
    assert wit.witness_x_max == (3,)
    assert not wit.fits_max_side
    # replaying the witness through the wrapping register reproduces the corruption
    assert wrap(exact_dot(wit.witness_x_max, [4]), 4) == -4 != exact_dot(wit.witness_x_max, [4])


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
    wit = check_accumulator(q, N, signed, AccumulatorSpec(P=P))
    if wit.fits_max_side and wit.fits_min_side:
        assert wit.fits_span
        assert not wit.overflowed
    else:
        assert wit.overflowed
    assert wit.fits_span == (wit.true_max - wit.true_min <= (1 << P) - 1)


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
    assert (full.true_max, full.true_min) == (fast.true_max, fast.true_min)
    assert full.overflowed == fast.overflowed
    assert full.fits_span == fast.fits_span


def test_exhaustive_int64_split_path_matches():
    # 16^6 input vectors take the blocked path under the default budget
    q = [3, -5, 2, -2, 4, -1]
    fast = check_accumulator(q, 4, False, AccumulatorSpec(P=10))
    full = exhaustive_check(q, 4, False, AccumulatorSpec(P=10))
    assert (full.true_max, full.true_min) == (fast.true_max, fast.true_min)
    assert exact_dot(full.witness_x_max, q) == full.true_max
    assert exact_dot(full.witness_x_min, q) == full.true_min


def test_exhaustive_memory_stays_bounded(monkeypatch):
    # the whole default budget in blocks: 16^6 input vectors through one reused
    # buffer, and 2^24 values of a single input in chunks of its range
    monkeypatch.delenv("ACCQ_ENUM_BUDGET", raising=False)
    for q, N, P, extremes, max_peak in [
        ([3, -5, 2, -2, 4, -1], 4, 10, (9 * 15, -8 * 15), 8 << 20),
        ([5], 24, 40, (5 * ((1 << 24) - 1), 0), 16 << 20),
    ]:
        tracemalloc.start()
        try:
            wit = exhaustive_check(q, N, False, AccumulatorSpec(P=P))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (wit.true_max, wit.true_min) == extremes
        assert peak <= max_peak


@pytest.mark.parametrize(
    "q, signed, x_max, x_min",
    [
        ([1, 0, 0, 0, 0, 1], False, (15, 0, 0, 0, 0, 15), (0,) * 6),
        ([1, 0, 0, 0, 0, -1], True, (7,) + (-8,) * 5, (-8,) * 5 + (7,)),
    ],
)
def test_exhaustive_witnesses_are_first_across_blocks(monkeypatch, q, signed, x_max, x_min):
    # 16^6 input vectors span many blocks, and each extreme recurs in several
    monkeypatch.delenv("ACCQ_ENUM_BUDGET", raising=False)
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


# each side of every element-type edge: the worst sum K * max|q| * max(|c|, |d|)
# is reached exactly, at 2^15 - 1, 2^15, 2^31 - 1, 2^31, 2^62 - 1 and 2^62;
# then two int64 limbs whose high limbs tie, and sums past two limbs
@given(channel=_enumerable_channels())
@example(channel=([4681], 3, False))
@example(channel=([-2048, -2048], 4, True))
@example(channel=([2**31 - 1], 1, False))
@example(channel=([-(2**27), -(2**27)], 4, True))
@example(channel=([(2**62 - 1) // 3] * 3, 1, False))
@example(channel=([-(2**59), -(2**59)], 3, True))
@example(channel=([2**62 + 1, -(2**62 + 1), 2**62], 1, False))
@example(channel=([2**130, -(2**129), 0], 2, True))
@settings(max_examples=200, deadline=None)
def test_exhaustive_witnesses_are_the_first_extremes(channel):
    q, N, signed = channel
    wit = exhaustive_check(q, N, signed, AccumulatorSpec(P=64))
    assert (wit.true_max, wit.true_min, wit.witness_x_max, wit.witness_x_min) == brute_witness(q, N, signed)


def test_exhaustive_bigint_fallback_matches():
    # entries near 2^61 overflow int64 products, falling back to python ints
    big = (1 << 61) - 3
    spec = AccumulatorSpec(P=64)
    fast = check_accumulator([big, -big], 1, False, spec)
    full = exhaustive_check([big, -big], 1, False, spec)
    assert (full.true_max, full.true_min) == (fast.true_max, fast.true_min)
    assert full.true_max == big


def test_exhaustive_two_limb_sums_stay_fast(monkeypatch):
    # B = 2^63 needs more than int64, but each limb of the sums fits it: 2^24
    # inputs in fixed width, where Python-int sums took seconds
    monkeypatch.delenv("ACCQ_ENUM_BUDGET", raising=False)
    spec = AccumulatorSpec(P=64)
    t0 = time.perf_counter()
    full = exhaustive_check([1 << 40], 24, True, spec)
    elapsed = time.perf_counter() - t0
    fast = check_accumulator([1 << 40], 24, True, spec)
    assert (full.true_max, full.true_min) == (fast.true_max, fast.true_min)
    assert elapsed < 0.5


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


def test_enumeration_budget_guard(monkeypatch):
    monkeypatch.delenv("ACCQ_ENUM_BUDGET", raising=False)
    assert enumeration_budget() == DEFAULT_ENUM_BUDGET
    monkeypatch.setenv("ACCQ_ENUM_BUDGET", "100")
    assert enumeration_budget() == 100
    monkeypatch.delenv("ACCQ_ENUM_BUDGET")
    with pytest.raises(EnumerationBudgetError):
        exhaustive_check([1] * 9, 4, False, AccumulatorSpec(P=16))
    monkeypatch.setenv("ACCQ_ENUM_BUDGET", "8")
    with pytest.raises(EnumerationBudgetError):
        exhaustive_check([1, 1], 2, False, AccumulatorSpec(P=8))
    monkeypatch.setenv("ACCQ_ENUM_BUDGET", "64")
    exhaustive_check([1, 1], 2, False, AccumulatorSpec(P=8))


@pytest.mark.parametrize("raw", ["abc", "1.5", "-1", " 7", "1e3", "0x10"])
def test_malformed_budget_env_is_a_typed_error(monkeypatch, raw):
    monkeypatch.setenv("ACCQ_ENUM_BUDGET", raw)
    with pytest.raises(InvalidBudgetError):
        enumeration_budget()
    with pytest.raises(InvalidBudgetError):
        certify([[1, 2]], 2, False, AccumulatorSpec(P=8))


def test_zero_budget_env_never_enumerates(monkeypatch):
    monkeypatch.setenv("ACCQ_ENUM_BUDGET", "0")
    assert enumeration_budget() == 0
    assert [c.exhaustive for c in certify([[1, 2]], 2, False, AccumulatorSpec(P=8))] == [False]


def test_env_budget_is_the_only_budget(monkeypatch):
    monkeypatch.setenv("ACCQ_ENUM_BUDGET", "2")
    with pytest.raises(EnumerationBudgetError):
        exhaustive_check([1, -1], 2, False, AccumulatorSpec(P=8))
    monkeypatch.setenv("ACCQ_ENUM_BUDGET", "16")
    wit = exhaustive_check([1, -1], 2, False, AccumulatorSpec(P=8))
    assert wit.true_max == 3


def test_non_integer_weights_rejected():
    with pytest.raises(NonFiniteInputError):
        check_accumulator([1.5], 2, False, AccumulatorSpec(P=8))
    with pytest.raises(NonFiniteInputError):
        check_accumulator([float("nan")], 2, False, AccumulatorSpec(P=8))
    # integral floats are fine (quantized codes arrive as float arrays)
    wit = check_accumulator(np.array([2.0, -1.0]), 2, False, AccumulatorSpec(P=8))
    assert wit.true_max == 6


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
    wit = check_accumulator(q, N, signed, AccumulatorSpec(P=6))
    lo = -(1 << (N - 1)) if signed else 0
    hi = (1 << (N - 1)) - 1 if signed else (1 << N) - 1
    for x in (wit.witness_x_max, wit.witness_x_min):
        assert all(lo <= xi <= hi for xi in x)
    # the witnesses reach the closed-form extremes
    assert exact_dot(wit.witness_x_max, q) == wit.true_max
    assert exact_dot(wit.witness_x_min, q) == wit.true_min


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
_SMALL_BUDGET = 1 << 12  # keeps the exhaustive oracle cheap on huge codes


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
        monkeypatch.setenv("ACCQ_ENUM_BUDGET", str(_SMALL_BUDGET))
        certs = certify(rows, N, signed, spec)
        assert len(certs) == len(rows)
        for q, cert in zip(rows, certs):
            wit = check_accumulator(q, N, signed, spec)
            assert cert.K == len(q)
            assert (cert.true_max, cert.true_min, cert.overflowed) == (
                wit.true_max, wit.true_min, wit.overflowed
            )
            assert cert.exhaustive == ((1 << N) ** len(q) <= _SMALL_BUDGET)
            if cert.exhaustive:
                full = exhaustive_check(q, N, signed, spec)
                assert (full.true_max, full.true_min, full.overflowed) == (
                    cert.true_max, cert.true_min, cert.overflowed
                )


def test_certify_forced_enumeration(monkeypatch):
    monkeypatch.delenv("ACCQ_ENUM_BUDGET", raising=False)
    spec = AccumulatorSpec(P=16)
    # 16^2 inputs fit any sane budget; forcing changes nothing
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
@settings(max_examples=200, deadline=None)
def test_certify_int64_route_matches_python_ints(block, ragged, N, signed, P):
    spec = AccumulatorSpec(P=P)
    rows = block + ragged
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setenv("ACCQ_ENUM_BUDGET", str(_SMALL_BUDGET))
        want = certify(rows, N, signed, spec)  # lists of Python ints: no int64 anywhere
        as_arrays = certify([np.array(row, dtype=np.int64) for row in rows], N, signed, spec)
        as_block = certify(np.array(block, dtype=np.int64), N, signed, spec)
    assert as_arrays == want
    assert as_block == want[: len(block)]
    # plain Python values, so accq verify's JSON cannot tell the routes apart
    for cert in as_arrays + as_block:
        assert [type(v) for v in cert] == [int, int, int, bool, bool]


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
