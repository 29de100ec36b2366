"""Executable re-derivations of the zero-sum accumulator bound, and their checks.

The helpers recompute, with exact integer arithmetic, the chain of facts behind
the wider zero-sum l1 budget:

* for zero-sum q the positive and negative code mass are equal halves of
  ||q||_1, so the extremal dot products are symmetric: f = -e = alpha (d - c);
* keeping f inside the register top is therefore the binding condition, and its
  budget (2^P - 2) / (2^N - 1) implies the min-side and span conditions;
* replacing real weights by sign-preserving, magnitude-dominated codes can only
  shrink dot products against sign-aligned inputs.

The enumerators also serve acceptance criterion 5.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from accq.bounds import a2q_limit, a2q_plus_limit, int_range
from accq.intsim import AccumulatorSpec, check_accumulator

from oracles import exact_dot, extremal_inputs


class InfeasibleError(ValueError):
    """The requested object cannot exist (e.g. a nonzero zero-sum vector of length 1)."""


class HypothesisViolationError(ValueError):
    """Inputs handed to a derivation check do not satisfy its hypotheses."""


@dataclass(frozen=True)
class ZeroSumVector:
    """Integer vector with zero sum; alpha/beta are its positive/negative mass."""

    q: tuple[int, ...]
    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if sum(self.q) != 0:
            raise HypothesisViolationError(f"q must sum to zero, got {self.q}")
        pos = sum(x for x in self.q if x > 0)
        neg = sum(x for x in self.q if x < 0)
        if self.alpha != pos or self.beta != neg or self.alpha != -self.beta:
            raise HypothesisViolationError("alpha/beta do not match q")

    @classmethod
    def from_codes(cls, q) -> "ZeroSumVector":
        codes = tuple(map(int, q))
        pos = sum(x for x in codes if x > 0)
        return cls(q=codes, alpha=pos, beta=-pos)

    @property
    def l1(self) -> int:
        return self.alpha - self.beta


def gen_zero_sum(K: int, l1_budget: int, seed: int | None = 0) -> ZeroSumVector:
    """Random zero-sum integer vector with ||q||_1 <= l1_budget.

    Drops equal positive and negative mass onto K slots; mass landing on the
    same slot cancels, which is why the budget is an upper bound, not a target.
    """
    if not isinstance(K, int) or K < 1:
        raise ValueError(f"K must be a positive int, got {K!r}")
    if l1_budget < 0:
        raise ValueError(f"l1_budget must be >= 0, got {l1_budget}")
    if K == 1:
        if l1_budget > 0:
            raise InfeasibleError("a length-1 zero-sum vector can only be [0]")
        return ZeroSumVector.from_codes([0])
    rng = np.random.default_rng(seed)
    half = int(rng.integers(0, l1_budget // 2 + 1))
    flat = np.full(K, 1.0 / K)
    pos = rng.multinomial(half, flat)
    neg = rng.multinomial(half, flat)
    return ZeroSumVector.from_codes((pos - neg).tolist())


@dataclass(frozen=True)
class DerivationReport:
    """Exact recomputation of the zero-sum worst-case identities for one q."""

    alpha: int
    span: int  # d - c, the input range width
    f: int
    e: int
    max_identity_ok: bool  # f == alpha * span
    min_identity_ok: bool  # -e == alpha * span
    span_identity_ok: bool  # f - e == span * ||q||_1, elementwise too
    budget_chain_ok: bool  # zero-sum budget <= span budget <= min-side budget
    implication_ok: bool  # within zero-sum budget -> all register conditions hold

    @property
    def all_ok(self) -> bool:
        return (
            self.max_identity_ok
            and self.min_identity_ok
            and self.span_identity_ok
            and self.budget_chain_ok
            and self.implication_ok
        )


def check_zero_sum_identities(
    q, N: int, act_signed: bool, p_range: range = range(2, 33)
) -> DerivationReport:
    """Recompute the extremal-dot identities and budget orderings for zero-sum q."""
    qs = list(map(int, q))
    if sum(qs) != 0:
        raise HypothesisViolationError(f"q must sum to zero, got {qs}")
    c, d = int_range(N, act_signed)
    span = d - c
    alpha = sum(x for x in qs if x > 0)
    l1 = sum(abs(x) for x in qs)

    # the sign rule's inputs, at any length; the register width only sets the
    # closed form's overflow verdict, which goes unread here
    mu, nu = extremal_inputs(qs, N, act_signed)
    f = exact_dot(mu, qs)
    e = exact_dot(nu, qs)
    cert = check_accumulator(qs, N, act_signed, AccumulatorSpec(2))

    # zero entries contribute nothing to either dot, so they are exempt
    elementwise = all(
        qi == 0 or (mi - ni) == span * (1 if qi > 0 else -1)
        for mi, ni, qi in zip(mu, nu, qs)
    )
    span_ok = (f - e) == span * l1 and elementwise

    chain_ok = True
    implication_ok = True
    for P in p_range:
        zero_sum_budget = a2q_plus_limit(P, N)
        span_budget = Fraction((1 << P) - 1, (1 << N) - 1)
        min_side_budget = Fraction(1 << P, (1 << N) - 1)
        chain_ok &= zero_sum_budget <= span_budget <= min_side_budget
        if Fraction(l1) <= zero_sum_budget:
            hi = (1 << (P - 1)) - 1
            lo = -(1 << (P - 1))
            implication_ok &= f <= hi and e >= lo and (f - e) <= (1 << P) - 1

    return DerivationReport(
        alpha=alpha,
        span=span,
        f=f,
        e=e,
        max_identity_ok=f == alpha * span == cert.true_max,
        min_identity_ok=-e == alpha * span == -cert.true_min,
        span_identity_ok=span_ok,
        budget_chain_ok=chain_ok,
        implication_ok=implication_ok,
    )


def check_aligned_dot_inequality(x, w, q) -> bool:
    """x'q <= x'w for sign-aligned inputs and magnitude-dominated codes.

    Hypotheses (violations raise, they mean the caller generated bad inputs):
    every |q_i| <= |w_i|, and wherever x_i != 0 the nonzero entries of w and q
    share x_i's sign.
    """
    xs, qs = list(map(int, x)), list(map(int, q))
    ws = np.asarray(w, dtype=float).ravel().tolist()
    if not (len(xs) == len(qs) == len(ws)):
        raise HypothesisViolationError("x, w, q must share a length")
    for xi, wi, qi in zip(xs, ws, qs):
        if abs(qi) > abs(wi):
            raise HypothesisViolationError(f"|q_i| = {abs(qi)} exceeds |w_i| = {abs(wi)}")
        if xi != 0:
            if qi != 0 and (qi > 0) != (xi > 0):
                raise HypothesisViolationError("q_i sign disagrees with x_i")
            if wi != 0.0 and (wi > 0) != (xi > 0):
                raise HypothesisViolationError("w_i sign disagrees with x_i")
    return exact_dot(xs, qs) <= math.fsum(xi * wi for xi, wi in zip(xs, ws))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def iter_l1_vectors(K: int, l1: int):
    """All integer K-vectors with exactly the given l1 norm."""
    if l1 == 0:
        yield [0] * K
        return
    for comp in _compositions(l1, K):
        hot = [i for i, cnt in enumerate(comp) if cnt]
        for signs in itertools.product((1, -1), repeat=len(hot)):
            q = list(comp)
            for i, sgn in zip(hot, signs):
                q[i] *= sgn
            yield q


def iter_zero_sum_vectors(K: int, l1: int):
    """All zero-sum integer K-vectors with exactly the given l1 norm."""
    for q in iter_l1_vectors(K, l1):
        if sum(q) == 0:
            yield q


def find_overflow_witness(K: int, l1: int, N: int, act_signed: bool, P: int):
    """First q (lexicographic in enumeration order) of the given l1 that overflows."""
    spec = AccumulatorSpec(P)
    for q in iter_l1_vectors(K, l1):
        if check_accumulator(q, N, act_signed, spec).overflowed:
            return q
    return None


# ------------------------------------------------------------ zero-sum vectors


def test_zero_sum_vector_from_codes():
    zs = ZeroSumVector.from_codes([2, -1, -1])
    assert zs.alpha == 2 and zs.beta == -2
    assert zs.l1 == 4


def test_zero_sum_vector_rejects_bad_invariants():
    with pytest.raises(HypothesisViolationError):
        ZeroSumVector(q=(1,), alpha=1, beta=-1)
    with pytest.raises(HypothesisViolationError):
        ZeroSumVector(q=(1, -1), alpha=2, beta=-2)


def test_gen_zero_sum_is_seeded_and_in_budget():
    a = gen_zero_sum(5, 20, seed=42)
    b = gen_zero_sum(5, 20, seed=42)
    assert a.q == b.q
    seen = set()
    for seed in range(100):
        zs = gen_zero_sum(5, 20, seed=seed)
        assert sum(zs.q) == 0
        assert zs.l1 <= 20
        assert zs.l1 % 2 == 0
        seen.add(zs.q)
    assert len(seen) > 10


def test_gen_zero_sum_small_cases():
    assert gen_zero_sum(1, 0).q == (0,)
    with pytest.raises(InfeasibleError):
        gen_zero_sum(1, 5)
    with pytest.raises(ValueError):
        gen_zero_sum(0, 5)
    with pytest.raises(ValueError):
        gen_zero_sum(3, -1)
    # K=2, budget 2: cancellation and both orientations all occur
    outcomes = {gen_zero_sum(2, 2, seed=s).q for s in range(200)}
    assert outcomes == {(0, 0), (1, -1), (-1, 1)}


@given(head=st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=7))
def test_zero_sum_l1_is_always_even(head):
    q = head + [-sum(head)]
    zs = ZeroSumVector.from_codes(q)
    assert zs.l1 % 2 == 0


# ------------------------------------------------------------------ identities


def test_identities_frozen_unsigned():
    report = check_zero_sum_identities([2, -1, -1], N=2, act_signed=False)
    assert report.span == 3
    assert report.alpha == 2
    assert (report.f, report.e) == (6, -6)
    assert report.all_ok


def test_identities_frozen_signed():
    report = check_zero_sum_identities([1, -1], N=2, act_signed=True)
    # signed codes in [-2, 1] have the same width, so the same extremes
    assert report.span == 3
    assert (report.f, report.e) == (3, -3)
    assert report.all_ok


def test_identities_reject_nonzero_sum():
    with pytest.raises(HypothesisViolationError):
        check_zero_sum_identities([1, 1], N=2, act_signed=False)


def test_identities_random_sweep():
    rng = np.random.default_rng(19)
    for _ in range(200):
        K = int(rng.integers(2, 8))
        zs = gen_zero_sum(K, int(rng.integers(0, 80)), seed=int(rng.integers(0, 2**31)))
        N = int(rng.integers(1, 5))
        signed = bool(rng.integers(0, 2))
        report = check_zero_sum_identities(zs.q, N=N, act_signed=signed)
        assert report.all_ok
        # the identities in terms of the returned fields
        assert report.f == report.alpha * report.span
        assert report.e == -report.f
        assert report.f - report.e == report.span * zs.l1


def test_budget_chain_explicit_values():
    # P=4, N=2: zero-sum 14/3 <= span 15/3 <= one-sided 16/3
    assert a2q_plus_limit(4, 2) == Fraction(14, 3)
    assert Fraction(14, 3) <= Fraction(15, 3) <= Fraction(16, 3)
    report = check_zero_sum_identities([1, -1], N=2, act_signed=False)
    assert report.budget_chain_ok


# ------------------------------------------------------------- aligned lemma


def test_aligned_dot_inequality_basic():
    assert check_aligned_dot_inequality([1, 1], [1.5, 2.0], [1, 2])
    # equality is allowed
    assert check_aligned_dot_inequality([2], [1.0], [1])
    # zero inputs exempt their position from the sign hypotheses
    assert check_aligned_dot_inequality([0, 1], [-1.5, 2.0], [-1, 2])


def test_aligned_dot_inequality_hypothesis_violations():
    with pytest.raises(HypothesisViolationError):
        check_aligned_dot_inequality([1], [0.5], [1])  # |q| > |w|
    with pytest.raises(HypothesisViolationError):
        check_aligned_dot_inequality([1], [1.5], [-1])  # q against x
    with pytest.raises(HypothesisViolationError):
        check_aligned_dot_inequality([-1], [1.5], [0])  # w against x
    with pytest.raises(HypothesisViolationError):
        check_aligned_dot_inequality([1, 1], [1.5], [1])


def test_aligned_dot_inequality_random():
    rng = np.random.default_rng(23)
    for _ in range(300):
        K = int(rng.integers(1, 7))
        w = rng.normal(size=K) * 4.0
        q = np.trunc(w).astype(int)
        x = (rng.integers(0, 16, size=K) * np.sign(w)).astype(int)
        assert check_aligned_dot_inequality(x.tolist(), w, q.tolist())


# ------------------------------------------------------------------ enumerators


def test_iter_l1_vectors_exact_norm_and_count():
    vecs = list(iter_l1_vectors(2, 2))
    assert sorted(map(tuple, vecs)) == sorted(
        [(2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (1, -1), (-1, 1), (-1, -1)]
    )
    vecs3 = list(iter_l1_vectors(3, 4))
    assert len(vecs3) == 66  # sum_j C(3,j) C(3,j-1)... frozen by direct count
    assert all(sum(map(abs, v)) == 4 for v in vecs3)
    assert len(set(map(tuple, vecs3))) == 66
    assert list(iter_l1_vectors(3, 0)) == [[0, 0, 0]]


def test_iter_zero_sum_vectors():
    assert sorted(map(tuple, iter_zero_sum_vectors(2, 2))) == [(-1, 1), (1, -1)]
    assert len(list(iter_zero_sum_vectors(3, 2))) == 6
    # odd l1 cannot balance
    assert list(iter_zero_sum_vectors(3, 3)) == []


def test_find_overflow_witness_frozen():
    # P=4, N=2 unsigned: one-sided budget 7/4, so l1=1 always fits
    assert find_overflow_witness(2, 1, 2, False, 4) is None
    # l1=6 exceeds even the zero-sum budget 14/3; a witness must exist
    w = find_overflow_witness(2, 6, 2, False, 4)
    assert w is not None
    assert check_accumulator(w, 2, False, AccumulatorSpec(4)).overflowed


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("P", [2, 3, 4, 5, 6])
def test_zero_sum_budget_is_tight(N, P):
    """At the budget every zero-sum vector fits; two past it, none do."""
    limit = a2q_plus_limit(P, N)
    m = int(limit)
    m -= m % 2
    spec = AccumulatorSpec(P)
    for K in (2, 3):
        for q in iter_zero_sum_vectors(K, m):
            assert not check_accumulator(q, N, False, spec).overflowed
        for q in iter_zero_sum_vectors(K, m + 2):
            assert check_accumulator(q, N, False, spec).overflowed


@pytest.mark.parametrize("signed", [False, True])
def test_zero_sum_budget_beats_one_sided_budget_in_practice(signed):
    # a vector admitted by the wider budget but rejected by the narrower one
    # must still fit: the relaxation is real, not an accounting trick
    for P in range(3, 9):
        for N in range(1, 4):
            wide = a2q_plus_limit(P, N)
            narrow = a2q_limit(P, N, act_signed=signed)
            m = int(wide)
            m -= m % 2
            if Fraction(m) <= narrow:
                continue  # no gap to exercise at this width
            q = [m // 2, -(m // 2)]
            assert not check_accumulator(q, N, signed, AccumulatorSpec(P)).overflowed
