"""Constrained quantizers: forward values, certificates, gradients, the layer core."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accq.bounds import MAX_WEIGHT_BITS, BitWidths, a2q_limit, a2q_plus_limit, int_range
from accq.errors import NonFiniteInputError
from accq.intsim import AccumulatorSpec, check_accumulator, verify_domination
from accq.quantizers import (
    K_MIN_CENTER,
    ChannelWeights,
    Variant,
    channel_budget,
    forward_weights,
    quantize_layer,
    round_to_zero,
)

RNG = np.random.default_rng


# ---------------------------------------------------------------- round to zero


def test_round_to_zero_frozen():
    x = [1.9, -1.9, 0.5, -0.5, 2.0, -2.0, 0.0]
    assert round_to_zero(x).tolist() == [1, -1, 0, 0, 2, -2, 0]


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
def test_round_to_zero_never_grows_or_flips(xs):
    r = round_to_zero(xs)
    x = np.asarray(xs)
    assert np.all(np.abs(r) <= np.abs(x))
    assert np.all((r == 0) | (np.sign(r) == np.sign(x)))
    assert np.array_equal(round_to_zero(r), r)


# ---------------------------------------------------------------- channel form


def test_channel_weights_properties():
    ch = ChannelWeights(v=[1.0, -1.0], t=3.0, d=-2.0)
    assert ch.K == 2
    assert ch.g == 8.0 and ch.s == 0.25
    with pytest.raises(NonFiniteInputError):
        ChannelWeights(v=[float("nan")], t=0.0, d=0.0)
    with pytest.raises(NonFiniteInputError):
        ChannelWeights(v=[1.0], t=float("inf"), d=0.0)


# ---------------------------------------------------------------- a2q forward


def _bits(M=8, N=4, P=8, act_signed=False):
    return BitWidths(M=M, N=N, P=P, act_signed=act_signed)


def test_a2q_frozen_norm_gate():
    # g = 7 sits under T = 127/16, so the norm gate is active: w = +-3.5
    ch = ChannelWeights(v=[1.0, -1.0], t=math.log2(7.0), d=0.0)
    res = forward_weights(ch, _bits(), Variant.A2Q)[0]
    assert res.q.tolist() == [3, -3]
    assert res.qw.tolist() == [3.0, -3.0]
    assert res.bound == Fraction(127, 16)
    assert res.l1_codes == 6.0 and res.bound_ok
    assert type(res.l1_codes) is int
    assert res.variant is Variant.A2Q and not res.fell_back


def test_a2q_frozen_budget_gate():
    # g = 16 exceeds T = 127/16: weights saturate at the budget, w = +-127/32
    ch = ChannelWeights(v=[1.0, -1.0], t=4.0, d=0.0)
    res = forward_weights(ch, _bits(), Variant.A2Q)[0]
    assert res.q.tolist() == [3, -3]
    assert res.bound_ok


def test_a2q_plus_frozen():
    # mean removal sends [0,1,2] to [-1,0,1]; g = 16 under T = 254/15
    ch = ChannelWeights(v=[0.0, 1.0, 2.0], t=4.0, d=0.0)
    res = forward_weights(ch, _bits(), Variant.A2Q_PLUS)[0]
    assert res.q.tolist() == [-8, 0, 8]
    assert res.bound == Fraction(254, 15)
    assert res.l1_codes == 16.0 and res.bound_ok
    assert res.variant is Variant.A2Q_PLUS and not res.fell_back


def test_a2q_plus_single_weight_falls_back():
    assert K_MIN_CENTER == 2
    ch = ChannelWeights(v=[2.0], t=1.0, d=0.0)
    plus = forward_weights(ch, _bits(), Variant.A2Q_PLUS)[0]
    base = forward_weights(ch, _bits(), Variant.A2Q)[0]
    assert plus.fell_back
    assert plus.variant is Variant.A2Q
    assert plus.bound == base.bound
    assert np.array_equal(plus.q, base.q)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("signed", [False, True])
def test_channel_budget_is_the_quantizers_budget(variant, K, signed):
    bits = _bits(act_signed=signed)
    ch = ChannelWeights(v=np.arange(1.0, K + 1.0), t=1.0, d=0.0)
    res, tape = forward_weights(ch, bits, variant)
    active, limit = channel_budget(K, bits, variant)
    centered = variant is Variant.A2Q_PLUS and K >= K_MIN_CENTER
    assert limit == (a2q_plus_limit(bits.P, bits.N) if centered else a2q_limit(bits.P, bits.N, signed))
    assert limit == res.bound
    assert active is res.variant
    assert res.fell_back == (variant is Variant.A2Q_PLUS and K == 1)
    assert res.fell_back == (active is not variant)
    assert np.array_equal(forward_weights(ch, bits, variant)[1].w, tape.u * tape.G)


def test_degenerate_channels_quantize_to_zero():
    # constant channel: centering annihilates it
    ch = ChannelWeights(v=[3.0, 3.0], t=2.0, d=0.0)
    res = forward_weights(ch, _bits(), Variant.A2Q_PLUS)[0]
    assert res.q.tolist() == [0, 0] and res.bound_ok
    # zero channel under the uncentered variant
    res = forward_weights(ChannelWeights(v=[0.0, 0.0], t=2.0, d=0.0), _bits(), Variant.A2Q)[0]
    assert res.q.tolist() == [0, 0]
    _, tape = forward_weights(ChannelWeights([0.0], 0.0, 0.0), _bits(), Variant.A2Q)
    dv, dt, dd = tape.backward(np.ones(1))
    assert dv.tolist() == [0.0] and dt == 0.0 and dd == 0.0
    assert forward_weights(ch, _bits(), Variant.A2Q_PLUS)[1].w.tolist() == [0.0, 0.0]


def test_codes_saturate_at_weight_register():
    # budget is huge but M = 2 only offers codes in [-2, 1]
    ch = ChannelWeights(v=[1.0, 0.0], t=math.log2(1000.0), d=0.0)
    res = forward_weights(ch, _bits(M=2, N=1, P=16), Variant.A2Q)[0]
    assert res.q.tolist() == [1, 0]
    assert res.qw.tolist() == [1.0, 0.0]


def test_doubling_scale_halves_codes():
    ch0 = ChannelWeights(v=[1.0, -1.0], t=math.log2(7.0), d=0.0)
    ch1 = ChannelWeights(v=[1.0, -1.0], t=math.log2(7.0), d=1.0)
    r0, r1 = (forward_weights(ch, _bits(), Variant.A2Q)[0] for ch in (ch0, ch1))
    assert r0.q.tolist() == [3, -3]
    assert r1.q.tolist() == [1, -1]
    assert r1.qw.tolist() == [2.0, -2.0]


# ------------------------------------------------------- certificates en masse


def _random_channel(rng, K):
    v = rng.normal(size=K)
    t = rng.uniform(-2.0, 5.0)
    d = rng.uniform(-6.0, 1.0)
    return ChannelWeights(v=v, t=t, d=d)


@pytest.mark.parametrize("variant", [Variant.A2Q, Variant.A2Q_PLUS])
def test_certificate_holds_exactly_everywhere(variant):
    rng = RNG(7)
    for trial in range(300):
        K = int(rng.integers(1, 9))
        M = int(rng.integers(2, 9))
        N = int(rng.integers(1, 5))
        P = int(rng.integers(4, 13))
        signed = bool(rng.integers(0, 2))
        bits = BitWidths(M=M, N=N, P=P, act_signed=signed)
        ch = _random_channel(rng, K)
        res = forward_weights(ch, bits, variant)[0]
        assert res.bound_ok
        assert Fraction(int(res.l1_codes)) <= res.bound
        lo, hi = int_range(M, signed=True)
        assert np.all((lo <= res.q) & (res.q <= hi))


@pytest.mark.parametrize("variant", [Variant.A2Q, Variant.A2Q_PLUS])
def test_rounding_dominated_by_pre_round_weights(variant):
    rng = RNG(11)
    for trial in range(200):
        K = int(rng.integers(2, 9))
        ch = _random_channel(rng, K)
        bits = _bits(P=int(rng.integers(4, 13)))
        res, tape = forward_weights(ch, bits, variant)
        assert verify_domination(tape.w, res.s, res.q)


def test_centered_pre_round_weights_sum_to_zero():
    rng = RNG(13)
    for trial in range(200):
        K = int(rng.integers(2, 12))
        ch = _random_channel(rng, K)
        w = forward_weights(ch, _bits(), Variant.A2Q_PLUS)[1].w
        assert abs(w.sum()) <= K * 1e-12 * np.abs(w).sum() + 1e-300


def test_wider_budget_is_ordered():
    for P in range(2, 17):
        for N in range(1, 9):
            assert a2q_plus_limit(P, N) > a2q_limit(P, N, act_signed=False)


# ---------------------------------------------------------------- idempotence


def test_requantize_exact_on_dyadic_mass():
    # ||q||_1 a power of two makes u exactly representable, so requantizing the
    # dequantized weights reproduces the codes bit for bit
    for d in (-2.0, 0.0, 1.0):
        qw = (2.0**d) * np.array([3.0, -3.0, 1.0, 1.0])
        n1 = float(np.abs(qw).sum())
        ch = ChannelWeights(v=qw, t=math.log2(n1), d=d)
        res = forward_weights(ch, _bits(P=10), Variant.A2Q)[0]
        assert res.qw.tolist() == qw.tolist()
    # zero-sum dyadic case through the centered variant
    qw = np.array([-8.0, 0.0, 8.0])
    ch = ChannelWeights(v=qw, t=4.0, d=0.0)
    res = forward_weights(ch, _bits(), Variant.A2Q_PLUS)[0]
    assert res.qw.tolist() == qw.tolist()


@pytest.mark.parametrize("variant", [Variant.A2Q, Variant.A2Q_PLUS])
def test_requantize_never_grows_codes(variant):
    # float round-trip can shave a code by one ulp-induced step, never inflate
    # it or flip its sign, so the certificate survives requantization
    rng = RNG(17)
    bits = _bits(P=10)
    for trial in range(200):
        ch = _random_channel(rng, int(rng.integers(2, 9)))
        first = forward_weights(ch, bits, variant)[0]
        n1 = float(np.abs(first.qw).sum())
        if n1 == 0.0:
            continue
        again = forward_weights(
            ChannelWeights(v=first.qw, t=math.log2(n1), d=ch.d), bits, variant
        )[0]
        if variant is Variant.A2Q_PLUS and not np.isclose(first.qw.sum(), 0.0):
            continue  # re-centering legitimately moves non-zero-sum outcomes
        assert np.all(np.abs(again.q) <= np.abs(first.q))
        nz = again.q != 0
        assert np.all(np.sign(again.q[nz]) == np.sign(first.q[nz]))
        assert again.bound_ok


# ------------------------------------------------------------------- gradients


def _loss_and_grads(ch, bits, variant, r):
    tape = forward_weights(ch, bits, variant)[1]
    return float(np.dot(r, tape.w)), tape.backward_smooth(r)


def _fd(fun, x0, h=1e-5):
    # h trades truncation against roundoff; at 1e-5 both sit near 1e-9 for
    # losses of order 100, well under the 5e-8 floor used by the assertions
    return (fun(x0 + h) - fun(x0 - h)) / (2.0 * h)


def _well_conditioned(ch, bits, variant):
    # keep away from the |c| kinks and the min(g, T) switch
    c = ch.v - ch.v.mean() if variant is Variant.A2Q_PLUS else ch.v
    if np.abs(c).min() < 5e-2:
        return False
    T = ch.s * float(
        a2q_plus_limit(bits.P, bits.N)
        if variant is Variant.A2Q_PLUS
        else a2q_limit(bits.P, bits.N, bits.act_signed)
    )
    return abs(ch.g - T) / max(ch.g, T) > 5e-2


@pytest.mark.parametrize("variant", [Variant.A2Q, Variant.A2Q_PLUS])
@pytest.mark.parametrize("t_shift", [-2.0, 2.0])
def test_smooth_backward_matches_finite_differences(variant, t_shift):
    rng = RNG(23)
    bits = _bits(P=9)
    checked = 0
    while checked < 20:
        K = int(rng.integers(2, 7))
        v = rng.normal(size=K) + np.where(rng.normal(size=K) > 0, 0.2, -0.2)
        base_T_exp = math.log2(
            float(
                a2q_plus_limit(bits.P, bits.N)
                if variant is Variant.A2Q_PLUS
                else a2q_limit(bits.P, bits.N, False)
            )
        )
        ch = ChannelWeights(v=v, t=base_T_exp + t_shift, d=rng.uniform(-1, 1))
        if not _well_conditioned(ch, bits, variant):
            continue
        r = rng.normal(size=K)
        _, (dv, dt, dd) = _loss_and_grads(ch, bits, variant, r)

        def loss_t(t):
            return _loss_and_grads(ChannelWeights(ch.v, t, ch.d), bits, variant, r)[0]

        def loss_d(d):
            return _loss_and_grads(ChannelWeights(ch.v, ch.t, d), bits, variant, r)[0]

        assert dt == pytest.approx(_fd(loss_t, ch.t), rel=1e-5, abs=5e-8)
        assert dd == pytest.approx(_fd(loss_d, ch.d), rel=1e-5, abs=5e-8)
        for i in range(K):

            def loss_vi(vi, i=i):
                v2 = ch.v.copy()
                v2[i] = vi
                return _loss_and_grads(ChannelWeights(v2, ch.t, ch.d), bits, variant, r)[0]

            assert dv[i] == pytest.approx(_fd(loss_vi, ch.v[i]), rel=1e-5, abs=5e-8)
        checked += 1


def test_gate_gradient_routing():
    # under the gate the scale only sees the rounding term; over it, only d moves T
    bits = _bits()
    r = np.array([1.0, 1.0])
    under = ChannelWeights(v=[2.0, -1.0], t=0.0, d=0.0)
    _, tape = forward_weights(under, bits, Variant.A2Q)
    assert tape.gate_on_g
    dv, dt, dd = tape.backward_smooth(r)
    assert dt != 0.0 and dd == 0.0
    over = ChannelWeights(v=[2.0, -1.0], t=10.0, d=0.0)
    _, tape = forward_weights(over, bits, Variant.A2Q)
    assert not tape.gate_on_g
    dv, dt, dd = tape.backward_smooth(r)
    assert dt == 0.0 and dd != 0.0


def test_ste_backward_adds_scale_error_term():
    bits = _bits()
    ch = ChannelWeights(v=[2.0, -1.0], t=2.0, d=0.0)
    res, tape = forward_weights(ch, bits, Variant.A2Q)
    r = np.array([0.5, -0.25])
    dv_s, dt_s, dd_s = tape.backward_smooth(r)
    dv, dt, dd = tape.backward(r)
    assert np.array_equal(dv, dv_s) and dt == dt_s
    expected_extra = float(np.dot(r, res.q - tape.pre)) * tape.s * math.log(2.0)
    assert dd == pytest.approx(dd_s + expected_extra, rel=1e-12)


# ------------------------------------------------- independent autograd route


@pytest.mark.parametrize("variant", [Variant.A2Q, Variant.A2Q_PLUS])
@pytest.mark.parametrize("t_shift", [-1.5, 1.5, 6.5])
def test_ste_backward_matches_autograd(variant, t_shift):
    # t_shift 6.5 pushes the norm far above the budget so some codes saturate
    # and the clipped-STE branch is exercised, not just the smooth interior
    torch = pytest.importorskip("torch")
    rng = RNG(31)
    bits = _bits(P=9) if t_shift < 6.0 else BitWidths(M=3, N=2, P=16)
    limit = (
        a2q_plus_limit(bits.P, bits.N)
        if variant is Variant.A2Q_PLUS
        else a2q_limit(bits.P, bits.N, bits.act_signed)
    )
    lo, hi = int_range(bits.M, signed=True)
    checked = 0
    saw_clip = False
    while checked < 12:
        K = int(rng.integers(2, 7))
        v_np = rng.normal(size=K) + np.where(rng.normal(size=K) > 0, 0.3, -0.3)
        t0 = math.log2(float(limit)) + t_shift
        d0 = float(rng.uniform(-1.0, 0.5))
        ch = ChannelWeights(v=v_np.copy(), t=t0, d=d0)
        if not _well_conditioned(ch, bits, variant):
            continue
        res, tape = forward_weights(ch, bits, variant)
        r_np = rng.normal(size=K)
        dv, dt, dd = tape.backward(r_np)
        saw_clip = saw_clip or not bool(np.all(tape.in_range))

        v = torch.tensor(v_np, dtype=torch.float64, requires_grad=True)
        t = torch.tensor(t0, dtype=torch.float64, requires_grad=True)
        d = torch.tensor(d0, dtype=torch.float64, requires_grad=True)
        g = torch.exp2(t)
        s = torch.exp2(d)
        if variant is Variant.A2Q_PLUS:
            c = v - v.mean()
            c = c - c.mean()  # second pass, as in the library
        else:
            c = v
        n1 = c.abs().sum()
        u = c / n1
        T = s * float(limit)
        G = torch.where(g <= T, g, T)
        pre = u * G / s
        # unit-slope pass-through of truncation only; clamp keeps its own
        # gradient, so saturated codes feel the scale but not the weights
        q = torch.clamp(pre + (torch.trunc(pre) - pre).detach(), lo, hi)
        # the library pulls codes one step toward zero when the division
        # rounded pre up across an integer edge; the step is a constant,
        # so it drops out of every gradient
        over = ((s * q).abs() > (u * G).abs()).detach()
        q = q - over.to(q.dtype) * torch.sign(q).detach()
        qw = s * q
        qw.backward(torch.tensor(r_np, dtype=torch.float64))

        assert np.allclose(dv, v.grad.numpy(), rtol=1e-9, atol=1e-12)
        assert dt == pytest.approx(float(t.grad), rel=1e-9, abs=1e-12)
        assert dd == pytest.approx(float(d.grad), rel=1e-9, abs=1e-12)
        assert np.array_equal(res.q, q.detach().numpy().astype(np.int64))
        checked += 1
    if t_shift > 6.0:
        assert saw_clip


# ------------------------------------------------------------------- layer core


def _mixed_layer(K: int, bits: BitWidths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows that exercise every branch: all-zero, constant, both gate sides, saturation."""
    rng = RNG(41)
    log_T = math.log2(float(a2q_limit(bits.P, bits.N, bits.act_signed)))
    V = rng.normal(size=(8, K))
    V[0] = 0.0  # degenerate for every variant
    V[1] = 2.5  # constant: degenerate once centered (K > 1)
    t = np.array([1.0, 1.0, log_T - 2.0, log_T - 0.5, log_T + 0.5, log_T + 3.0, 30.0, 30.0])
    d = np.array([0.0, -1.0, -2.0, -1.5, 0.25, -3.0, -12.0, 1.0])  # row 6 saturates at M bits
    return V, t, d


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("K", [1, 2, 7])
def test_layer_rows_equal_single_channel_calls(variant, K):
    bits = BitWidths(M=3, N=4, P=10)
    V, t, d = _mixed_layer(K, bits)
    rng = RNG(43)
    up = rng.normal(size=V.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        layer = quantize_layer(V, t, d, bits, variant)
        grads = {"backward": layer.backward(up), "backward_smooth": layer.backward_smooth(up)}
        rows = [forward_weights(ChannelWeights(V[i], t[i], d[i]), bits, variant)[0] for i in range(len(V))]
        row_grads = {
            name: [getattr(row, name)(up[i]) for i, row in enumerate(rows)] for name in grads
        }
    assert layer.fell_back == (variant is Variant.A2Q_PLUS and K == 1)
    assert layer.degenerate[0]
    assert bool(layer.degenerate[1]) == (K >= K_MIN_CENTER and variant is Variant.A2Q_PLUS)
    assert not layer.gate_on_g[5] and layer.gate_on_g[2]
    assert not layer.in_range[6].all()
    for i, one in enumerate(rows):
        assert layer.q[i].tobytes() == one.q.tobytes()
        assert layer.qw[i].tobytes() == one.qw.tobytes()
        assert (float(layer.s[i]), layer.l1_codes[i], layer.bound_ok[i]) == (one.s, one.l1_codes, one.bound_ok)
        assert (layer.bound, layer.variant, layer.fell_back) == (one.bound, one.variant, one.fell_back)
        assert layer.w[i].tobytes() == one.w.tobytes()
        assert bool(layer.degenerate[i]) == bool(one.degenerate)
        for name, (dV, dt, dd) in grads.items():
            dv_i, dt_i, dd_i = row_grads[name][i]
            assert dV[i].tobytes() == dv_i.tobytes()
            assert (float(dt[i]), float(dd[i])) == (dt_i, dd_i)
    for i in np.flatnonzero(layer.degenerate):
        assert not layer.q[i].any() and not layer.w[i].any()
        for dV, dt, dd in grads.values():
            assert not dV[i].any() and dt[i] == 0.0 and dd[i] == 0.0


@given(
    M=st.integers(2, MAX_WEIGHT_BITS),
    N=st.integers(1, 64),
    P=st.integers(2, 64),
    signed=st.booleans(),
    variant=st.sampled_from([Variant.A2Q, Variant.A2Q_PLUS]),
    rows=st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
        min_size=1,
        max_size=4,
    ),
    t_shift=st.floats(-4.0, 4.0),
    d=st.floats(-30.0, 30.0),
)
@example(M=8, N=56, P=64, signed=False, variant=Variant.A2Q, rows=[[-1.0]], t_shift=4.0, d=0.0)
@settings(max_examples=300, deadline=None)
def test_certificate_holds_over_every_accepted_width(M, N, P, signed, variant, rows, t_shift, d):
    # at N=56, P=64 the budget 127.99... rounds up to 128.0 as a float, so the
    # code -128 fits the float budget but not the exact one
    K = len(rows[0])
    V = np.array([(r * K)[:K] for r in rows])
    bits = BitWidths(M=M, N=N, P=P, act_signed=signed)
    _, limit = channel_budget(K, bits, variant)
    t = np.full(len(V), d + math.log2(float(limit)) + t_shift)
    res = quantize_layer(V, t, np.full(len(V), d), bits, variant)
    lo, hi = int_range(M, signed=True)
    assert all(res.bound_ok)
    assert ((lo <= res.q) & (res.q <= hi)).all()
    for codes in res.q.tolist():
        assert not check_accumulator(codes, N, signed, AccumulatorSpec(P)).overflowed
