"""Constrained quantizers: forward values, certificates, gradients, the layer core."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accq.bounds import MAX_WEIGHT_BITS, BitWidths, a2q_limit, a2q_plus_limit, int_range
from accq.errors import NonFiniteInputError
from accq.intsim import AccumulatorSpec, check_accumulator
from accq import quantizers
from accq.epinit import ep_init, ep_init_layer, project_l1_ball
from accq.qat import QuantLinear, ToyNetwork
from accq.quantizers import (
    K_MIN_CENTER,
    ChannelWeights,
    Variant,
    finite_vector,
    forward_weights,
    quantize_layer,
)

from oracles import round_to_zero, verify_domination

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
    assert 2.0**ch.t == 8.0 and 2.0**ch.d == 0.25
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
    assert res.variant is Variant.A2Q


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
    assert res.variant is Variant.A2Q_PLUS


def test_a2q_plus_single_weight_falls_back():
    assert K_MIN_CENTER == 2
    ch = ChannelWeights(v=[2.0], t=1.0, d=0.0)
    plus = forward_weights(ch, _bits(), Variant.A2Q_PLUS)[0]
    base = forward_weights(ch, _bits(), Variant.A2Q)[0]
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
    plan_rows = quantizers._plan_rows(K, ((bits, 1),), variant)
    active, limit = plan_rows.active, plan_rows.bound[0]
    centered = variant is Variant.A2Q_PLUS and K >= K_MIN_CENTER
    assert limit == (a2q_plus_limit(bits.P, bits.N) if centered else a2q_limit(bits.P, bits.N, signed))
    assert limit == res.bound
    assert active is res.variant
    assert (res.variant is not variant) == (variant is Variant.A2Q_PLUS and K == 1)
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


def test_rounding_repairs_a_code_one_ulp_past_its_weight():
    # w/s truncates to -7 in the middle, but |s * -7| lands one ulp above |w|:
    # the repair steps that code to -6 so that s * q never outgrows w
    V = np.array([[0.6554609706359389, -0.20102991269403583, 1.4721624329112049]])
    t, d = np.array([1.9035545388731432]), np.array([-7.814302611575441])
    res = quantize_layer(V, t, d, BitWidths(5, 1, 4), Variant.A2Q_PLUS)
    assert np.trunc(res.pre).tolist() == [[0.0, -7.0, 6.0]]
    assert res.q.tolist() == [[0, -6, 6]]
    assert np.all(np.abs(res.qw) <= np.abs(res.w))


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
    return float(np.dot(r, tape.w)), tuple(x[0] for x in tape.layer.backward_smooth(r[None]))


def _fd(fun, x0, h=1e-5):
    # h trades truncation against roundoff; at 1e-5 both sit near 1e-9 for
    # losses of order 100, well under the 5e-8 floor used by the assertions
    return (fun(x0 + h) - fun(x0 - h)) / (2.0 * h)


def _well_conditioned(ch, bits, variant):
    # keep away from the |c| kinks and the min(g, T) switch
    c = ch.v - ch.v.mean() if variant is Variant.A2Q_PLUS else ch.v
    if np.abs(c).min() < 5e-2:
        return False
    T = 2.0**ch.d * float(
        a2q_plus_limit(bits.P, bits.N)
        if variant is Variant.A2Q_PLUS
        else a2q_limit(bits.P, bits.N, bits.act_signed)
    )
    g = 2.0**ch.t
    return abs(g - T) / max(g, T) > 5e-2


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
    dv, dt, dd = (x[0] for x in tape.layer.backward_smooth(r[None]))
    assert dt != 0.0 and dd == 0.0
    over = ChannelWeights(v=[2.0, -1.0], t=10.0, d=0.0)
    _, tape = forward_weights(over, bits, Variant.A2Q)
    assert not tape.gate_on_g
    dv, dt, dd = (x[0] for x in tape.layer.backward_smooth(r[None]))
    assert dt == 0.0 and dd != 0.0


def test_ste_backward_adds_scale_error_term():
    bits = _bits()
    ch = ChannelWeights(v=[2.0, -1.0], t=2.0, d=0.0)
    res, tape = forward_weights(ch, bits, Variant.A2Q)
    r = np.array([0.5, -0.25])
    dv_s, dt_s, dd_s = (x[0] for x in tape.layer.backward_smooth(r[None]))
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
    assert (layer.variant is not variant) == (variant is Variant.A2Q_PLUS and K == 1)
    assert layer.degenerate[0]
    assert bool(layer.degenerate[1]) == (K >= K_MIN_CENTER and variant is Variant.A2Q_PLUS)
    assert not layer.gate_on_g[5] and layer.gate_on_g[2]
    assert not layer.in_range[6].all()
    for i, one in enumerate(rows):
        assert layer.q[i].tobytes() == one.q.tobytes()
        assert layer.qw[i].tobytes() == one.qw.tobytes()
        assert (float(layer.s[i]), layer.l1_codes[i], layer.bound_ok[i]) == (one.s, one.l1_codes, one.bound_ok)
        assert (layer.bound[i], layer.variant) == (one.bound, one.variant)
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


@pytest.mark.parametrize("name", ["backward", "backward_smooth"])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("K", [1, 2, 7])
def test_layer_backward_writes_only_its_result(name, variant, K):
    # fresh gradients, the same bits on every call, sharing no memory with the
    # upstream gradient or the record, and both left as they were
    bits = BitWidths(M=3, N=4, P=10)
    layer = quantize_layer(*_mixed_layer(K, bits), bits, variant)
    arrays = [v for v in vars(layer).values() if isinstance(v, np.ndarray)]
    before = [v.tobytes() for v in arrays]
    up = RNG(47).normal(size=layer.u.shape)
    want = getattr(layer, name)(up.copy())
    got = getattr(layer, name)(up)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert not any(np.shares_memory(g, x) for g in got for x in (up, *arrays))
    assert [v.tobytes() for v in arrays] == before
    assert up.tobytes() == RNG(47).normal(size=layer.u.shape).tobytes()
    with pytest.raises(TypeError, match="out"):  # no output buffer to alias
        getattr(layer, name)(up, out=None)


@given(
    variant=st.sampled_from(list(Variant)),
    rows=st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6), min_size=1, max_size=4),
    first=st.sampled_from([None, 0.0, 2.5]),
    t_shift=st.floats(-4.0, 4.0),
    d=st.floats(-12.0, 2.0),
)
@example(variant=Variant.A2Q, rows=[[1.5]], first=None, t_shift=0.0, d=-3.0)
@example(variant=Variant.A2Q_PLUS, rows=[[1.5, -2.0], [0.5, 0.25]], first=2.5, t_shift=4.0, d=-3.0)
@settings(max_examples=100, deadline=None)
def test_a_record_owns_its_arrays(variant, rows, first, t_shift, d):
    # no array of a record shares memory with the V, t or d it was made
    # from, and mutating them afterwards leaves every field's bytes as they were;
    # first, when set, makes row 0 all zero or constant (degenerate once centered)
    K = len(rows[0])
    V = np.array([(r * K)[:K] for r in rows])
    if first is not None:
        V[0] = first
    bits = BitWidths(M=4, N=4, P=16)
    log_budget = math.log2(float(quantizers._plan_rows(K, ((bits, 1),), variant).bound[0]))
    t, dd = np.full(len(V), d + log_budget + t_shift), np.full(len(V), d)
    ch = ChannelWeights(v=V[0], t=float(t[0]), d=d)
    assert np.shares_memory(ch.v, V)  # a float row is kept as given
    for record, inputs in [(quantize_layer(V, t, dd, bits, variant), (V, t, dd)), (forward_weights(ch, bits, variant)[0].layer, (V,))]:
        arrays = {name: v for name, v in vars(record).items() if isinstance(v, np.ndarray)}
        assert not [name for name, v in arrays.items() if any(np.shares_memory(v, x) for x in inputs)]
        before = {name: v.tobytes() for name, v in arrays.items()}
        for x in inputs:
            x += 1.0
        assert {name: v.tobytes() for name, v in arrays.items()} == before


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
    limit = quantizers._plan_rows(K, ((bits, 1),), variant).bound[0]
    t = np.full(len(V), d + math.log2(float(limit)) + t_shift)
    res = quantize_layer(V, t, np.full(len(V), d), bits, variant)
    lo, hi = int_range(M, signed=True)
    assert all(res.bound_ok)
    assert ((lo <= res.q) & (res.q <= hi)).all()
    for codes in res.q.tolist():
        assert not check_accumulator(codes, N, signed, AccumulatorSpec(P)).overflowed


def _alternating(K: int) -> np.ndarray:
    return np.where(np.arange(K) % 2 == 0, 1.0, -1.0)


@pytest.mark.parametrize(
    "row",
    [_alternating(16384), RNG(0).choice([-1.0, 1.0], size=4200)],
    ids=["mass 2^64 over its cap", "mass past 2^63"],
)
def test_an_l1_mass_past_int64_is_exact(row):
    # 2^50-sized codes under the 2^64 - 2 budget at N = 1, P = 64: an int64
    # sum once read the first row's mass as 0 and the second's as negative
    layer = quantize_layer(row[None], [200.0], [0.0], BitWidths(52, 1, 64), Variant.A2Q_PLUS)
    mass = sum(abs(x) for x in layer.q[0].tolist())
    assert mass > 2**63
    assert layer.l1_codes == [mass] and layer.bound_ok == [True]
    assert mass <= layer.bound[0] == 2**64 - 2
    assert not check_accumulator(layer.q[0], 1, False, AccumulatorSpec(64)).overflowed


@pytest.mark.parametrize("K, M, dtype", [(4095, 52, np.int64), (4096, 52, object), (1024, 8, np.int64), (1 << 56, 8, object)])
def test_the_plan_sums_l1_masses_in_python_ints_only_where_int64_can_wrap(K, M, dtype):
    # K codes of magnitude at most 2^(M-1) can reach 2^63 from K * 2^(M-1) = 2^63 on
    plan = ((BitWidths(8, 4, 16), 3), (BitWidths(M, 4, 16), 1))
    assert quantizers._plan_rows(K, plan, Variant.A2Q).l1_dtype is dtype


# ------------------------------------------------------------------- bit plans


def _plan_run(rng, K: int, bits: BitWidths, variant: Variant, n: int):
    """n rows for one run of a bit plan: both gate sides, all-zero and constant rows."""
    log_budget = math.log2(float(quantizers._plan_rows(K, ((bits, 1),), variant).bound[0]))
    V = rng.normal(size=(n, K)) * 10.0 ** rng.uniform(-2.0, 2.0, size=(n, 1))
    kind = rng.integers(0, 4, size=n)
    V[kind == 0] = 0.0  # degenerate for every variant
    V[kind == 1] = 2.5  # constant: degenerate once centered (K > 1)
    d = rng.uniform(-12.0, 2.0, size=n)
    return V, d + log_budget + rng.uniform(-3.0, 3.0, size=n), d


def _assert_stack_equals_per_plan(runs, variant: Variant, up: np.ndarray):
    """quantize_network's path over the stacked runs against one quantize_layer call per run, bit for bit."""
    V, t, d = (np.concatenate([run[i] for run in runs]) for i in (1, 2, 3))
    plan = tuple((bits, len(v)) for bits, v, _, _ in runs)
    stack = quantizers._quantize_rows(V, t, d, quantizers._plan_rows(V.shape[1], plan, variant))
    grads = {name: getattr(stack, name)(up) for name in ("backward", "backward_smooth")}
    start = 0
    for bits, v, tt, dd in runs:
        one = quantize_layer(v, tt, dd, bits, variant)
        rows = slice(start, start + len(v))
        start = rows.stop
        for name in ("q", "qw", "w"):
            assert getattr(stack, name)[rows].tobytes() == getattr(one, name).tobytes()
        for name in ("l1_codes", "bound", "bound_ok"):
            assert getattr(stack, name)[rows] == getattr(one, name)
        assert stack.variant is one.variant
        for name, stacked in grads.items():
            for got, want in zip(stacked, getattr(one, name)(up[rows]), strict=True):
                assert got[rows].tobytes() == want.tobytes()
    return stack


@given(
    K=st.sampled_from([1, 2, 3, 7]),
    variant=st.sampled_from(list(Variant)),
    runs=st.lists(
        st.tuples(
            st.builds(
                BitWidths,
                M=st.sampled_from([8, 4, 2, MAX_WEIGHT_BITS]),
                N=st.sampled_from([8, 4, 1]),
                P=st.sampled_from([6, 12, 20, 40, 64]),
                act_signed=st.booleans(),
            ),
            st.integers(1, 4),
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_stacked_plan_equals_per_plan_calls(K, variant, runs, seed):
    rng = RNG(seed)
    stack = [(bits, *_plan_run(rng, K, bits, variant, n)) for bits, n in runs]
    rows = sum(n for _, n in runs)
    _assert_stack_equals_per_plan(stack, variant, rng.normal(size=(rows, K)))


@pytest.mark.parametrize("K, variant", [(1, Variant.A2Q_PLUS), (3, Variant.A2Q)])
def test_stacked_plan_covers_fallback_degenerate_saturated_and_repair(K, variant, monkeypatch):
    repaired = []
    shrink = quantizers._shrink_rows
    monkeypatch.setattr(
        quantizers, "_shrink_rows", lambda q, rows, cap: repaired.extend(rows) or shrink(q, rows, cap)
    )
    # rows whose float budget rounds past the exact one, so the exact repair runs:
    # at N=56, P=64 the budget 127.99... is 128.0 as a float, and the K=3 row
    # sits near MAX_WEIGHT_BITS on a 2^51-wide budget
    if K == 1:
        wide = BitWidths(M=8, N=56, P=64)
        v_wide, t_wide, d_wide = [-1.0], math.log2(float(a2q_limit(64, 56))) + 4.0, 0.0
    else:
        wide = BitWidths(M=51, N=11, P=62)
        v_wide = [0.05152225767379732, -0.06548663487401189, -0.04248630749019092]
        t_wide, d_wide = 68.20844335365167, 15.091276450899699
    saturating = BitWidths(M=2, N=4, P=20)  # a budget of 2^15 codes against a 2-bit register
    small = BitWidths(M=4, N=1, P=8)
    runs = [
        (wide, np.array([v_wide]), np.array([t_wide]), np.array([d_wide])),
        (saturating, RNG(7).normal(size=(2, K)), np.array([30.0, 25.0]), np.array([-12.0, -3.0])),
        (small, np.array([[0.0] * K, [1.5] * K]), np.array([0.0, 2.0]), np.array([0.0, -1.0])),
    ]
    stack = _assert_stack_equals_per_plan(runs, variant, RNG(8).normal(size=(5, K)))
    assert repaired == [0] * 2  # once stacked, once alone
    assert (stack.variant is not variant) == (variant is Variant.A2Q_PLUS)
    assert not stack.in_range[1:3].all()
    assert stack.degenerate[3]
    assert stack.bound == [a2q_limit(64, 56) if K == 1 else a2q_limit(62, 11)] + [a2q_limit(20, 4)] * 2 + [
        a2q_limit(8, 1)
    ] * 2


@pytest.mark.parametrize("shape", [(0, 4), (2, 0), (0, 0), (4,)])
def test_empty_or_flat_layer_is_a_value_error_naming_its_shape(shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        quantize_layer(np.zeros(shape), np.zeros(2), np.zeros(2), BitWidths(4, 4, 12), Variant.A2Q)


@pytest.mark.parametrize("entry", ["_plan_rows", "quantize_layer", "forward_weights", "ep_init_layer", "ep_init", "ToyNetwork"])
@pytest.mark.parametrize("variant", ["a2q+", "a2q", None, ["a2q"], {}, {"a2q"}])
def test_a_variant_that_is_not_a_member_is_a_value_error_naming_it(entry, variant):
    # "a2q+" quantized under A2Q's uncentered budget, since only the member
    # selects A2Q+'s; an unhashable one once failed hashing the plan cache's key
    bits, V = BitWidths(4, 4, 12), np.array([[0.5, -1.0, 2.0]])
    calls = {
        "_plan_rows": lambda: quantizers._plan_rows(3, ((bits, 1),), variant),
        "quantize_layer": lambda: quantize_layer(V, np.zeros(1), np.full(1, -3.0), bits, variant),
        "forward_weights": lambda: forward_weights(ChannelWeights(v=V[0], t=0.0, d=-3.0), bits, variant),
        "ep_init_layer": lambda: ep_init_layer(V, bits, variant),
        "ep_init": lambda: ep_init(V[0], bits, variant),
        "ToyNetwork": lambda: ToyNetwork([QuantLinear(V=V, t=np.zeros(1), d=np.full(1, -3.0), bits=bits)], variant),
    }
    with pytest.raises(ValueError, match=f"^{re.escape(f'variant must be a Variant member, got {variant!r}')}$"):
        calls[entry]()


@pytest.mark.parametrize("variant", [Variant.A2Q, Variant.A2Q_PLUS])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["V", "t", "d"])
def test_non_finite_layer_input_is_refused(name, bad, variant):
    # no codes and no certificate for a layer that holds a NaN or an infinity
    args = {"V": np.array([[0.5, -1.0, 2.0], [1.0, 0.25, -0.75]]), "t": np.zeros(2), "d": np.full(2, -3.0)}
    args[name].flat[-1] = bad
    with pytest.raises(NonFiniteInputError, match=f"^{name} must be finite$"):
        quantize_layer(args["V"], args["t"], args["d"], BitWidths(4, 4, 12), variant)


@pytest.mark.parametrize("name, exponent, match", [("t", 1100.0, None), ("d", -1100.0, r"^scale 2\^d underflows to 0$")])
def test_an_exponent_that_leaves_float_range_is_an_overflow_error(name, exponent, match):
    # Python's float pow raises on 2^1100; 2^-1100 is a silent 0, which would divide every weight
    args = {"V": np.array([[0.5, -1.0, 2.0], [1.0, 0.25, -0.75]]), "t": np.zeros(2), "d": np.full(2, -3.0)}
    args[name][1] = exponent
    with pytest.raises(OverflowError, match=match):
        quantize_layer(args["V"], args["t"], args["d"], BitWidths(4, 4, 12), Variant.A2Q)


def test_a_layer_given_as_lists_quantizes_as_arrays():
    V, t, d = [[0.5, -1.0, 2.0], [1.0, 0.25, -0.75]], [0.0, 1.0], [-3.0, -2.0]
    bits = BitWidths(4, 4, 12)
    got = quantize_layer(V, t, d, bits, Variant.A2Q_PLUS)
    want = quantize_layer(np.array(V), np.array(t), np.array(d), bits, Variant.A2Q_PLUS)
    assert got.q.tobytes() == want.q.tobytes()
    assert got.qw.tobytes() == want.qw.tobytes()


@pytest.mark.parametrize(
    "V, t, name",
    [([[1.0, 2.0], [3.0]], [0.0, 0.0], "V"), ([["a", "b"]], [0.0], "V"), ([[1.0, 2.0]], ["x"], "t")],
    ids=["ragged", "V text", "t text"],
)
def test_a_layer_that_is_not_float_arrays_is_a_value_error_naming_it(V, t, name):
    with pytest.raises(ValueError, match=f"^{name} must be an array of floats"):
        quantize_layer(V, t, [0.0] * len(t), BitWidths(4, 4, 12), Variant.A2Q)


_LAYER = {"V": [[1.0, -0.5], [0.25, 2.0]], "t": [0.0, 1.0], "d": [-3.0, -2.0], "bias": [0.0, 0.0]}
_ROW = [1.0, -0.5]


def _layer_site(call, name):
    # a call on the layer above with one field replaced
    return lambda x: call(**{**_LAYER, name: x}), name, _LAYER[name]


# every array field: (its call on one value, the name its errors use, a good value)
ARRAY_SITES = {
    **{f"quantize_layer {n}": _layer_site(lambda V, t, d, bias: quantize_layer(V, t, d, _bits(), Variant.A2Q), n) for n in "Vtd"},
    **{f"QuantLinear {n}": _layer_site(lambda **f: QuantLinear(bits=_bits(), **f), n) for n in ("V", "t", "d", "bias")},
    "ChannelWeights v": (lambda x: ChannelWeights(v=x, t=0.0, d=0.0), "v", _ROW),
    "finite_vector": (lambda x: finite_vector(x, "x"), "x", _ROW),
    "ep_init": (lambda x: ep_init(x, _bits()), "w", _ROW),
    "ep_init_layer": (lambda x: ep_init_layer(x, _bits()), "w", _LAYER["V"]),
    "project_l1_ball": (lambda x: project_l1_ball(x, 1.0), "w", _ROW),
}


def _first_entry(value, entry):
    # value with its first entry replaced, nested lists kept
    if isinstance(value[0], list):
        return [_first_entry(value[0], entry), *value[1:]]
    return [entry, *value[1:]]


# ways numpy reads a non-number as a float: entries beside floats, and whole ndarrays
_NOT_REALS = {
    "string entry": lambda good: _first_entry(good, "1.5"),
    "bool entry": lambda good: _first_entry(good, True),
    "numpy bool entry": lambda good: _first_entry(good, np.True_),
    "bool ndarray": lambda good: np.array(good, dtype=bool),
    "string ndarray": lambda good: np.array(good).astype(str),
}


@pytest.mark.parametrize("make", _NOT_REALS.values(), ids=_NOT_REALS.keys())
@pytest.mark.parametrize("site", ARRAY_SITES.values(), ids=ARRAY_SITES.keys())
def test_an_array_field_refuses_strings_and_bools_by_name(site, make):
    call, name, good = site
    call(good)
    call(np.array(good, dtype=np.float32))
    call((np.array(good) * 4).astype(np.int64))
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        call(make(good))


@pytest.mark.parametrize("bits", [None, (4, 4, 12), [4, 4, 12]], ids=["None", "tuple", "list"])
@pytest.mark.parametrize(
    "call",
    [
        lambda bits: quantize_layer(_LAYER["V"], _LAYER["t"], _LAYER["d"], bits, Variant.A2Q),
        lambda bits: forward_weights(ChannelWeights(v=_ROW, t=0.0, d=0.0), bits, Variant.A2Q),
        lambda bits: ep_init_layer(_LAYER["V"], bits),
        lambda bits: ep_init(_ROW, bits),
    ],
    ids=["quantize_layer", "forward_weights", "ep_init_layer", "ep_init"],
)
def test_bits_that_are_not_a_bitwidths_are_refused_by_name(call, bits):
    # None once failed inside _plan_rows on bits.P, a list on hashing its cache key
    with pytest.raises(ValueError, match=re.escape(f"bits must be a BitWidths, got {bits!r}")):
        call(bits)


@pytest.mark.parametrize("name", ["t", "d"])
@pytest.mark.parametrize("shape", [(1,), (3,), (2, 1), ()])
def test_norm_or_scale_not_one_per_row_is_a_value_error_naming_its_shape(name, shape):
    args = {"t": np.zeros(2), "d": np.zeros(2)}
    args[name] = np.zeros(shape)
    with pytest.raises(ValueError, match=re.escape(f"{name} must have shape (2,), one entry per row of V, got shape {shape}")):
        quantize_layer(np.ones((2, 3)), args["t"], args["d"], BitWidths(4, 4, 12), Variant.A2Q)
