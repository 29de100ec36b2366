"""Trainer: determinism, gradients, budgets, sparsity, checkpoints, CLI-free API."""

import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accq.bounds import BitWidths, a2q_limit, a2q_plus_limit, int_range
from accq import qat, quantizers
from accq.errors import AccumulatorOverflowError, DivergenceError, NonFiniteInputError
from accq.qat import (
    CSV_HEADER,
    _act_forward,
    _batches,
    QuantLinear,
    SweepRecord,
    TeacherStudentSpec,
    ToyNetwork,
    TrainConfig,
    backward,
    build_network,
    calibrate,
    certify_accumulators,
    channel_cdf,
    fit,
    forward,
    load_checkpoint,
    make_data,
    measure_sparsity,
    min_bound_slack,
    mse,
    quantize_network,
    sgd_step,
    train,
)
from accq.quantizers import LN2, ChannelWeights, Variant, quantize_layer

from oracles import float_baseline, save_checkpoint, save_float_checkpoint

TINY = TeacherStudentSpec(input_dim=6, hidden=(5, 4), output_dim=3, n_train=96, n_test=48)


def tiny_config(variant=Variant.A2Q, P=16, seed=0, **kw):
    kw.setdefault("bits", BitWidths(M=4, N=3, P=P))
    kw.setdefault("epochs", 3)
    kw.setdefault("batch_size", 32)
    kw.setdefault("dataset", TINY)
    return TrainConfig(variant=variant, seed=seed, **kw)


# ---------------------------------------------------------------- records

def test_csv_header_matches_record_fields():
    assert CSV_HEADER.split(",") == [
        "variant", "M", "N", "P", "seed", "final_loss", "sparsity", "min_slack",
    ]


def test_record_csv_round_trip():
    rec = SweepRecord(
        variant="a2q+", M=4, N=4, P=12, seed=7,
        final_loss=0.12345678901234567, sparsity=0.40625,
        min_slack=Fraction(2047, 256) - 7,
    )
    assert SweepRecord.from_csv_row(rec.csv_row()) == rec
    with pytest.raises(ValueError):
        SweepRecord.from_csv_row("a2q,4,4,12,0,0.5,0.5")


def test_config_rejects_a_negative_seed():
    # make_data would take it and fail later with numpy's bare "expected non-negative integer"
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        tiny_config(seed=-1)
    assert tiny_config(seed=0).seed == 0


@pytest.mark.parametrize(
    "name, value",
    [("seed", True), ("seed", 1.5), ("epochs", False), ("epochs", 1.5), ("batch_size", True), ("batch_size", 2.5)],
)
def test_config_rejects_a_non_integer_count(name, value):
    # seed=True wrote a CSV row SweepRecord cannot read back; a float failed inside numpy with a bare TypeError
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        tiny_config(**{name: value})


@pytest.mark.parametrize(
    "name, value",
    [("lr", "1"), ("lr", True), ("weight_decay", None), ("lambda_reg", "0.1"), ("lambda_reg", False)],
)
def test_config_rejects_a_rate_that_is_not_a_real_number(name, value):
    # a string or None raised a bare TypeError from the range test, and lr=True trained as lr=1
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {re.escape(repr(value))}$"):
        tiny_config(**{name: value})


def test_config_takes_numpy_integers_as_ints():
    cfg = tiny_config(seed=np.int64(3), epochs=np.int32(1), batch_size=np.uint16(32))
    assert [type(cfg.seed), type(cfg.epochs), type(cfg.batch_size)] == [int, int, int]
    assert train(cfg).csv_row() == train(tiny_config(seed=3, epochs=1, batch_size=32)).csv_row()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"input_dim": 0}, "input_dim must be at least 1, got 0"),
        ({"hidden": (5, -1)}, "hidden[1] must be at least 1, got -1"),
        ({"output_dim": 0}, "output_dim must be at least 1, got 0"),
        ({"n_test": 0}, "n_test must be at least 1, got 0"),
        ({"hidden": (2.5,)}, "hidden[0] must be an integer, got 2.5"),
        ({"input_dim": True}, "input_dim must be an integer, got True"),
        ({"n_train": -1}, "n_train must be at least 0, got -1"),
        ({"noise_sigma": math.nan}, "noise_sigma must be finite and at least 0, got nan"),
        ({"noise_sigma": math.inf}, "noise_sigma must be finite and at least 0, got inf"),
        ({"noise_sigma": -0.5}, "noise_sigma must be finite and at least 0, got -0.5"),
        ({"hidden": 5}, "hidden must be a sequence of integers, got 5"),
        ({"noise_sigma": "0.1"}, "noise_sigma must be a real number, got '0.1'"),
        ({"noise_sigma": True}, "noise_sigma must be a real number, got True"),
    ],
)
def test_dataset_rejects_an_empty_width_or_test_set(change, message):
    # input_dim=0 divided by zero in make_data; n_test=0 reported an empty mean as divergence;
    # a float width and a bool failed inside numpy with a bare TypeError, a negative n_train
    # with numpy's negative dimensions, and a non-finite noise as divergence at epoch 0;
    # an int hidden and a string noise raised a bare TypeError, and a bool noise read as 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(TINY, **change)


def test_dataset_takes_numpy_integers_as_ints():
    spec = TeacherStudentSpec(
        input_dim=np.int64(6), hidden=(np.int32(5), np.uint8(4)), output_dim=np.int16(3),
        n_train=np.int64(96), n_test=np.uint32(48),
    )
    assert [type(n) for n in (*spec.dims(), spec.n_train, spec.n_test)] == [int] * 6
    assert spec == TINY


def test_an_empty_training_set_trains_no_step():
    record = train(tiny_config(dataset=dataclasses.replace(TINY, n_train=0)))
    assert math.isfinite(record.final_loss)


def test_config_rejects_a_variant_that_is_not_a_member():
    # "a2q+" trained a whole A2Q run, then failed writing its CSV row with an AttributeError
    with pytest.raises(ValueError, match=r"^variant must be a Variant member, got 'a2q\+'$"):
        tiny_config(variant="a2q+")


@pytest.mark.parametrize(
    "name, value, kind",
    [("bits", None, "BitWidths"), ("bits", (4, 4, 12), "BitWidths"), ("dataset", None, "TeacherStudentSpec")],
    ids=["bits None", "bits tuple", "dataset None"],
)
def test_config_rejects_bits_or_a_dataset_of_another_type(name, value, kind):
    # bits=None raised AttributeError: 'NoneType' object has no attribute 'act_signed'; dataset=None failed inside fit
    with pytest.raises(ValueError, match=f"^{name} must be a {kind}, got {re.escape(repr(value))}$"):
        tiny_config(**{name: value})


@pytest.mark.parametrize("bits", [None, (4, 4, 16)], ids=["None", "tuple"])
def test_a_layer_rejects_bits_that_are_not_a_bitwidths(bits):
    # QuantLinear(bits=None) was accepted, and failed later wherever a layer's widths were read
    with pytest.raises(ValueError, match=f"^bits must be a BitWidths, got {re.escape(repr(bits))}$"):
        QuantLinear(V=[[1.0, 2.0]], t=[0.0], d=[0.0], bits=bits)


def test_config_rejects_unbudgeted_variant_and_signed_acts():
    # only the two budgeted variants exist, so no config can name another
    with pytest.raises(ValueError):
        Variant("standard")
    with pytest.raises(ValueError):
        tiny_config(bits=BitWidths(M=4, N=3, P=16, act_signed=True))


# ---------------------------------------------------------------- determinism

@pytest.mark.parametrize("variant", [Variant.A2Q, Variant.A2Q_PLUS])
def test_train_is_deterministic(variant):
    a = train(tiny_config(variant=variant, seed=3))
    b = train(tiny_config(variant=variant, seed=3))
    assert a.csv_row() == b.csv_row()
    assert a == b


def test_float_baseline_is_deterministic():
    cfg = tiny_config(seed=1)
    a = float_baseline(cfg)
    b = float_baseline(cfg)
    assert a.final_loss == b.final_loss
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert math.isfinite(a.final_loss) and a.final_loss > 0.0


def test_different_seeds_differ():
    a = train(tiny_config(seed=0))
    b = train(tiny_config(seed=1))
    assert a.final_loss != b.final_loss


# ---------------------------------------------------------------- regularizer

def _layer(chans, bits: BitWidths, **kw) -> QuantLinear:
    """A layer whose rows are the given channels."""
    V = np.stack([ch.v for ch in chans])
    return QuantLinear(V=V, t=np.array([ch.t for ch in chans]), d=np.array([ch.d for ch in chans]), bits=bits, **kw)


def _channel_with(g: float, s: float, K: int = 2) -> ChannelWeights:
    # v direction is irrelevant to the hinge; only g = 2^t and s = 2^d matter
    return ChannelWeights(v=np.ones(K), t=math.log2(g), d=math.log2(s))


def _hinge_step(ch: ChannelWeights, bits: BitWidths, variant: Variant, lam: float = 1e-3):
    """One sgd_step on a one-channel net whose upstream gradients are all zero.

    With lr = 1 and no weight decay only the hinge lam * max(g - T, 0) moves t
    and d.  Returns the forward's g and T and the steps dt, dd taken against
    them (new t = t - dt, new d = d - dd).
    """
    layer = _layer([ch], bits)
    net = ToyNetwork(layers=[layer], variant=variant)
    config = tiny_config(variant=variant, bits=bits, lr=1.0, weight_decay=0.0, lambda_reg=lam)
    pred, stores = forward(net, np.zeros((1, ch.K)))
    grads = backward(net, stores, np.zeros_like(pred))
    sgd_step(net, grads, config)
    quant = grads[0].quant
    return float(quant.g[0]), float(quant.T[0]), ch.t - float(layer.t[0]), ch.d - float(layer.d[0])


def test_reg_penalty_frozen_examples():
    # P=4, N=1 unsigned gives limit 7/2; s=2 puts the budget T at 7
    bits = BitWidths(M=4, N=1, P=4)
    assert float(a2q_limit(bits.P, bits.N, bits.act_signed)) == 3.5
    g, T, dt, dd = _hinge_step(_channel_with(g=5.0, s=2.0), bits, Variant.A2Q)
    assert T == 7.0 and g == pytest.approx(5.0, rel=1e-12)
    assert dt == 0.0 and dd == 0.0
    lam = 1e-3
    g, T, dt, dd = _hinge_step(_channel_with(g=10.0, s=2.0), bits, Variant.A2Q, lam)
    # 2**log2(10) lands an ulp off 10, so the hinge is exact only up to that
    assert g - T == pytest.approx(3.0, rel=1e-12)
    assert dt == pytest.approx(lam * g * LN2, rel=1e-12)
    assert dd == pytest.approx(-lam * T * LN2, rel=1e-12)


def test_reg_penalty_gradient_in_t_is_g_ln2():
    bits = BitWidths(M=4, N=1, P=4)
    lam = 1e-3
    _, _, dt, dd = _hinge_step(_channel_with(g=10.0, s=2.0), bits, Variant.A2Q, lam)
    assert dt / lam == pytest.approx(10.0 * LN2, rel=1e-6)
    assert dd / lam == pytest.approx(-7.0 * LN2, rel=1e-6)


def test_reg_penalty_uses_the_centered_budget_for_a2q_plus():
    # same g and s, but the zero-sum budget is roughly twice as large
    bits = BitWidths(M=4, N=1, P=4)
    plus_T = 2.0 * float(a2q_plus_limit(bits.P, bits.N))
    g, T, dt, dd = _hinge_step(_channel_with(g=10.0, s=2.0), bits, Variant.A2Q_PLUS)
    assert T == plus_T
    assert max(g - T, 0.0) == 0.0
    assert dt == 0.0 and dd == 0.0
    # above the centered budget the hinge pulls d by that budget, not A2Q's
    lam = 1e-3
    g, T, dt, dd = _hinge_step(_channel_with(g=40.0, s=2.0), bits, Variant.A2Q_PLUS, lam)
    assert T == plus_T
    assert dt == pytest.approx(lam * g * LN2, rel=1e-12)
    assert dd == pytest.approx(-lam * plus_T * LN2, rel=1e-12)


# ---------------------------------------------------------------- gradients

def fd_relative_errors(seed: int, h: float = 1e-4):
    """Guarded finite-difference audit of the identity-quantizer backprop.

    Builds a small toy net, jitters the norm exponents off the min-gate tie
    (down for even channels, up for odd, so both gate branches get coverage),
    and rejects draws where a kink sits within reach of the probe step:
    ReLU pre-activations, centered coordinates near zero, or a thin gate
    margin.  Returns the worst relative error over every v, t, d, and bias
    entry for both variants, or None when the draw fails a guard.
    """
    worst = 0.0
    for variant in (Variant.A2Q, Variant.A2Q_PLUS):
        cfg = tiny_config(variant=variant, seed=seed)
        data = make_data(cfg)
        net = build_network(cfg, data.init_weights)
        for layer in net.layers:
            layer.t[0::2] += -0.3
            layer.t[1::2] += 0.3
        X, y = data.X_test[:32], data.y_test[:32]

        pred, stores = forward(net, X, quantize=False)

        for li, st in enumerate(stores):
            if li < len(stores) - 1 and np.min(np.abs(st.y)) < 10 * h:
                return None
            quant, rows = st.quant, net.homes[li][1]
            if quant.degenerate[rows].any():
                return None
            if np.min(np.abs(quant.c[rows])) < 20 * h:
                return None
            g, T = quant.g[rows], quant.T[rows]
            if (np.abs(g - T) < 1e-3 * np.maximum(g, T)).any():
                return None

        d_pred = 2.0 * (pred - y) / pred.size
        grads = backward(net, stores, d_pred)

        def loss() -> float:
            return mse(forward(net, X, quantize=False)[0], y)

        def central(setter) -> float:
            setter(+h)
            up = loss()
            setter(-2 * h)
            dn = loss()
            setter(+h)
            return (up - dn) / (2 * h)

        def rel(a: float, f: float) -> float:
            return abs(a - f) / max(abs(a), abs(f), 1e-8)

        for gg in grads:
            for li in gg.group.layers:
                layer, rows = net.layers[li], net.homes[li][1]
                dV, dt, dd, db = gg.dV[rows], gg.dt[rows], gg.dd[rows], gg.db[rows]
                C, K = layer.V.shape
                for j in range(C):
                    for k in range(K):
                        def bump_v(d, layer=layer, j=j, k=k):
                            layer.V[j, k] += d
                        worst = max(worst, rel(float(dV[j, k]), central(bump_v)))

                    def bump_t(d, layer=layer, j=j):
                        layer.t[j] += d
                    worst = max(worst, rel(float(dt[j]), central(bump_t)))

                    def bump_d(d, layer=layer, j=j):
                        layer.d[j] += d
                    worst = max(worst, rel(float(dd[j]), central(bump_d)))

                for k in range(len(layer.bias)):
                    def bump_b(d, layer=layer, k=k):
                        layer.bias[k] += d
                    worst = max(worst, rel(float(db[k]), central(bump_b)))
    return worst


def test_gradients_match_finite_differences():
    checked = 0
    for seed in range(50):
        err = fd_relative_errors(seed)
        if err is None:
            continue
        assert err < 1e-5, f"seed {seed}: rel err {err:.3e}"
        checked += 1
        if checked == 3:
            return
    pytest.fail("no conditioned seed found in 50 draws")


# ---------------------------------------------------------------- training loop

def test_every_step_stays_inside_budget():
    cfg = tiny_config(variant=Variant.A2Q_PLUS, P=10, epochs=2, seed=2)
    data = make_data(cfg)
    net = build_network(cfg, data.init_weights)
    calibrate(net, data.X_train[:32])
    for _, xb, yb in _batches(cfg, data):
        pred, stores = forward(net, xb)
        for st, (_, rows) in zip(stores, net.homes, strict=True):
            quant = st.quant
            for bound_ok, l1_codes, bound in zip(
                quant.bound_ok[rows], quant.l1_codes[rows], quant.bound[rows], strict=True
            ):
                assert bound_ok
                assert Fraction(int(l1_codes)) <= bound
        d_pred = 2.0 * (pred - yb) / pred.size
        sgd_step(net, backward(net, stores, d_pred), cfg)


@pytest.mark.parametrize("variant", [Variant.A2Q, Variant.A2Q_PLUS])
def test_fit_record_is_audited(variant):
    net, rec = fit(tiny_config(variant=variant, seed=4))
    assert rec.variant == variant.value
    assert 0.0 <= rec.sparsity <= 1.0
    assert rec.min_slack >= 0
    assert rec.min_slack == min_bound_slack(quantize_network(net))
    assert certify_accumulators(net, quantize_network(net)) is None


def test_budgets_tighten_as_P_drops():
    cfg_lo = tiny_config(P=9, seed=5)
    cfg_hi = tiny_config(P=10, seed=5)
    net_lo, rec_lo = fit(cfg_lo)
    net_hi, rec_hi = fit(cfg_hi)
    assert rec_lo.min_slack >= 0 and rec_hi.min_slack >= 0
    for lay_lo, lay_hi in zip(net_lo.layers, net_hi.layers):
        for bits_pair in [(lay_lo.bits, lay_hi.bits)]:
            blo, bhi = bits_pair
            assert a2q_limit(blo.P, blo.N, blo.act_signed) < a2q_limit(bhi.P, bhi.N, bhi.act_signed)


def test_divergence_is_reported_not_swallowed():
    cfg = tiny_config(lr=1e18, epochs=4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            train(cfg)


@pytest.mark.parametrize(
    "name, fake, epochs, message",
    [
        ("sgd_step", lambda *args: False, 3, "non-finite loss at epoch 0: an SGD step made a parameter non-finite"),
        ("mse", lambda *args: math.nan, 3, "non-finite loss at epoch 0"),
        # with no epochs the final evaluation's loss is the first one fit reads
        ("mse", lambda *args: math.nan, 0, "non-finite final loss"),
        # 2^-1100 is 0: the first activation scale underflows, which _act_forward refuses
        ("calibrate", lambda net, X: [setattr(layer, "act_exp", -1100.0) for layer in net.layers], 3,
         "parameter overflow at epoch 0"),
    ],
)
def test_fit_names_each_divergence(monkeypatch, name, fake, epochs, message):
    monkeypatch.setattr(qat, name, fake)
    with pytest.raises(DivergenceError, match=f"^{re.escape(message)}$"):
        fit(tiny_config(epochs=epochs))


def test_degenerate_channel_survives_training():
    cfg = tiny_config(seed=6, epochs=2)
    data = make_data(cfg)
    weights = [w.copy() for w in data.init_weights]
    weights[1][0, :] = 0.0  # one dead unit in the middle layer
    net = build_network(cfg, weights)
    calibrate(net, data.X_train[:32])
    pred, stores = forward(net, data.X_train[:32])
    d_pred = 2.0 * (pred - data.y_train[:32]) / pred.size
    sgd_step(net, backward(net, stores, d_pred), cfg)
    gi, rows = net.homes[1]
    assert np.all(quantize_network(net)[gi].q[rows][0] == 0)


def _act_layer(N: int, signed: bool, act_exp: float) -> QuantLinear:
    bits = BitWidths(M=4, N=N, P=16, act_signed=signed)
    return _layer([ChannelWeights(v=[1.0], t=0.0, d=0.0)], bits, act_exp=act_exp)


def test_act_forward_frozen():
    layer = _act_layer(4, True, 0.0)
    xq, tape = _act_forward(np.array([5.7, 100.0]), layer)
    assert xq.tolist() == [6.0, 7.0]
    # the saturated code is outside the straight-through window
    assert tape.mask.tolist() == [True, False]
    # ties round half to even
    xq, _ = _act_forward(np.array([2.5, 3.5, -2.5]), layer)
    assert xq.tolist() == [2.0, 4.0, -2.0]


@given(
    x=st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    N=st.integers(min_value=2, max_value=8),
    signed=st.booleans(),
    act_exp=st.sampled_from([-3.3, -2.0, 0.0, 1.9]),
)
@settings(max_examples=150, deadline=None)
def test_act_forward_codes_in_range_and_idempotent(x, N, signed, act_exp):
    layer = _act_layer(N, signed, act_exp)
    xq, tape = _act_forward(np.array(x), layer)
    lo, hi = int_range(N, signed)
    assert np.array_equal(tape.codes, np.round(tape.codes))
    assert np.all((lo <= tape.codes) & (tape.codes <= hi))
    xq2, tape2 = _act_forward(xq, layer)
    assert np.array_equal(tape2.codes, tape.codes)
    assert np.array_equal(xq2, xq)


def test_activation_codes_are_unsigned_and_in_range():
    cfg = tiny_config(seed=7)
    data = make_data(cfg)
    net = build_network(cfg, data.init_weights)
    calibrate(net, data.X_train[:32])
    _, stores = forward(net, data.X_train[:64])
    for layer, st in zip(net.layers, stores):
        scale = 2.0 ** layer.act_exp
        codes = st.xq / scale
        assert np.allclose(codes, np.round(codes))
        assert codes.min() >= 0
        assert codes.max() <= 2 ** layer.bits.N - 1


def test_layer_plan_and_topology():
    cfg = tiny_config()
    net = build_network(cfg, make_data(cfg).init_weights)
    assert (net.layers[0].V.shape[1], *(len(layer.V) for layer in net.layers)) == (6, 5, 4, 3)
    bits = [layer.bits for layer in net.layers]
    assert (bits[0].M, bits[0].N) == (8, 8)
    assert (bits[-1].M, bits[-1].N) == (8, 8)
    assert (bits[1].M, bits[1].N) == (4, 3)
    assert all(b.P == 16 for b in bits)
    assert not any(b.act_signed for b in bits)



# fit rows captured before the trainer quantized each fan-in group in one call:
# TINY's fan-ins 6, 5 and 4 make three one-layer groups, and SPLIT's 4, 6 and 4
# put its first and last layers in one group on either side of the middle one
SPLIT = TeacherStudentSpec(input_dim=4, hidden=(6, 4), output_dim=3, n_train=96, n_test=48)
GROUPED_FIT_ROWS = {
    "tiny": (TINY, [(0,), (1,), (2,)], [
        "a2q,4,3,10,0,0.9561406337098861,0.6774193548387096,255/256",
        "a2q,4,3,10,1,0.9070593944390816,0.6935483870967742,255/256",
        "a2q,4,3,16,0,0.44458323496506974,0.03225806451612903,511/256",
        "a2q,4,3,16,1,0.8970279775271679,0.08064516129032258,511/256",
        "a2q+,4,3,10,0,0.9897266719225998,0.5483870967741935,512/255",
        "a2q+,4,3,10,1,0.8968034558430422,0.5161290322580645,512/255",
        "a2q+,4,3,16,0,0.7693155874408407,0.04838709677419355,509/255",
        "a2q+,4,3,16,1,0.9899725940483116,0.03225806451612903,509/255",
    ]),
    "split": (SPLIT, [(0, 2), (1,)], [
        "a2q,4,3,10,0,0.5644707960437866,0.5833333333333334,255/256",
        "a2q,4,3,10,1,0.21725205741899686,0.6666666666666666,255/256",
        "a2q,4,3,16,0,0.3704735179298784,0.016666666666666666,511/256",
        "a2q,4,3,16,1,0.20135575607700482,0.06666666666666667,255/256",
        "a2q+,4,3,10,0,0.5264156316396308,0.43333333333333335,257/255",
        "a2q+,4,3,10,1,0.2164615648476066,0.36666666666666664,257/255",
        "a2q+,4,3,16,0,0.45845651214267275,0.05,509/255",
        "a2q+,4,3,16,1,0.20790900111391444,0.06666666666666667,509/255",
    ]),
}


@pytest.mark.parametrize("name", GROUPED_FIT_ROWS)
def test_fit_rows_across_fan_in_groups_are_pinned(name):
    dataset, groups, want = GROUPED_FIT_ROWS[name]
    cfg = tiny_config(dataset=dataset)
    assert [group.layers for group in build_network(cfg, make_data(cfg).init_weights).groups] == groups
    rows = [
        fit(tiny_config(variant=variant, P=P, seed=seed, epochs=6, dataset=dataset))[1].csv_row()
        for variant in (Variant.A2Q, Variant.A2Q_PLUS)
        for P in (10, 16)
        for seed in (0, 1)
    ]
    assert rows == want


@pytest.mark.parametrize("dataset", [TINY, SPLIT])
def test_fit_quantizes_once_per_pass(monkeypatch, dataset):
    # one quantizer call per fan-in group for calibration, each SGD step and
    # the final evaluation; the certificate, sparsity and slack read the last
    records, certified = [], []
    core, certify = quantizers._quantize_rows, qat.certify_accumulators

    def counting(*args):
        records.append(core(*args))
        return records[-1]

    def certifying(net, quants):
        certified.append(quants)
        return certify(net, quants)

    monkeypatch.setattr(qat, "_quantize_rows", counting)
    monkeypatch.setattr(qat, "certify_accumulators", certifying)
    cfg = tiny_config(dataset=dataset)
    net, rec = fit(cfg)
    steps = cfg.epochs * math.ceil(dataset.n_train / cfg.batch_size)
    assert len(records) == (steps + 2) * len(net.groups)
    [quants] = certified
    assert len(quants) == len(net.groups)
    assert all(quant is final for quant, final in zip(quants, records[-len(net.groups) :]))
    assert [quant.q.shape[0] for quant in quants] == [
        sum(len(net.layers[i].V) for i in group.layers) for group in net.groups
    ]
    assert rec.sparsity == measure_sparsity(quants)
    assert rec.min_slack == min_bound_slack(quants)


@pytest.mark.parametrize("dataset", [TINY, SPLIT])
def test_fit_steps_never_hash_the_bit_plan(monkeypatch, dataset):
    # each group's plan rows are derived when the network is built, so the
    # BitWidths hashes and comparisons of a fit do not grow with its steps
    calls = []
    for name in ("__hash__", "__eq__"):
        original = getattr(BitWidths, name)
        monkeypatch.setattr(BitWidths, name, lambda self, *args, _f=original: calls.append(1) or _f(self, *args))
    fit(tiny_config(dataset=dataset, epochs=1))  # warm the caches, so both runs below hit them
    counts = []
    for epochs in (1, 4):
        calls.clear()
        fit(tiny_config(dataset=dataset, epochs=epochs))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _assert_groups_own_their_layers(net: ToyNetwork, buffers=None) -> None:
    """Every layer's V, t, d and bias are its rows of its group's views of one flat buffer.

    buffers, when given, are the group arrays the net started with, which must
    still be the ones it holds.
    """
    for gi, group in enumerate(net.groups):
        wholes = (group.V, group.t, group.d, group.b)
        if buffers is not None:
            assert all(now is then for now, then in zip((group.flat, *wholes), buffers[gi]))
        C, K = group.V.shape
        assert group.flat.shape == (C * (K + 3),) and group.flat.flags.c_contiguous
        for whole, start in zip(wholes, (0, C * K, C * K + C, C * K + 2 * C)):
            assert whole.base is group.flat
            assert np.array_equal(whole.reshape(-1), group.flat[start : start + whole.size])
        # the group's rows tile [0, C) layer by layer, in the order of its layers
        stops = np.cumsum([len(net.layers[i].V) for i in group.layers]).tolist()
        assert stops[-1] == C
        for i, start, stop in zip(group.layers, [0, *stops], stops):
            layer, rows = net.layers[i], slice(start, stop)
            assert net.homes[i] == (gi, rows)
            for mine, whole in zip((layer.V, layer.t, layer.d, layer.bias), wholes):
                want = whole[rows]
                assert np.shares_memory(mine, whole)
                assert np.array_equal(mine, want)
                # exactly the view of its rows: the same first byte, shape and strides
                assert (mine.__array_interface__["data"], mine.shape, mine.strides) == (
                    want.__array_interface__["data"], want.shape, want.strides
                )


@given(
    input_dim=st.integers(1, 3),
    hidden=st.lists(st.integers(1, 3), max_size=4).map(tuple),
    output_dim=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_homes_is_the_one_layer_to_group_map(input_dim, hidden, output_dim):
    # widths of 1 to 3 make some fan-ins shared by several layers and some split over groups
    dataset = TeacherStudentSpec(input_dim=input_dim, hidden=hidden, output_dim=output_dim, n_train=8, n_test=4)
    cfg = tiny_config(dataset=dataset)
    net = build_network(cfg, make_data(cfg).init_weights)
    # homes names each layer once, in the group that lists it; the helper checks
    # that each group's rows tile [0, C) in layer order and that they are its views
    assert len(net.homes) == len(net.layers)
    for gi, group in enumerate(net.groups):
        assert list(group.layers) == [i for i, (home, _) in enumerate(net.homes) if home == gi]
    _assert_groups_own_their_layers(net)


@pytest.mark.parametrize("dataset", [TINY, SPLIT])
def test_fan_in_groups_own_every_layers_channels(dataset, tmp_path):
    # each layer's V, t, d and bias are views of its group's rows from
    # construction on, and SGD steps update the group's arrays in place
    cfg = tiny_config(dataset=dataset)
    data = make_data(cfg)
    net = build_network(cfg, data.init_weights)
    buffers = [(group.flat, group.V, group.t, group.d, group.b) for group in net.groups]

    _assert_groups_own_their_layers(net, buffers)
    calibrate(net, data.X_train[:32])
    before = [group.flat.copy() for group in net.groups]
    for step, (_, xb, yb) in enumerate(_batches(cfg, data)):
        if step == 3:
            break
        pred, stores = forward(net, xb)
        assert sgd_step(net, backward(net, stores, 2.0 * (pred - yb) / pred.size), cfg)
        _assert_groups_own_their_layers(net, buffers)
    for group, old in zip(net.groups, before):
        assert not np.array_equal(group.V, old[: group.V.size].reshape(group.V.shape))
        assert not np.array_equal(group.b, old[-len(group.b) :])

    path = tmp_path / "net.json"
    save_checkpoint(path, net)
    _, loaded = load_checkpoint(path)
    _assert_groups_own_their_layers(loaded)
    assert [group.flat.tobytes() for group in loaded.groups] == [group.flat.tobytes() for group in net.groups]


def _grads_after_one_batch(cfg):
    data = make_data(cfg)
    net = build_network(cfg, data.init_weights)
    calibrate(net, data.X_train[:32])
    xb, yb = data.X_train[:32], data.y_train[:32]
    pred, stores = forward(net, xb)
    return net, backward(net, stores, 2.0 * (pred - yb) / pred.size)


@pytest.mark.parametrize("part", ["bias", "act_exp"])
def test_sgd_step_reports_a_non_finite_bias_or_act_exp(part):
    # one poisoned gradient entry leaves every V, t and d finite, so the
    # step's one buffer check and its act_exp checks must catch it alone
    cfg = tiny_config(dataset=SPLIT)
    net, grads = _grads_after_one_batch(cfg)
    assert sgd_step(net, grads, cfg)
    net, grads = _grads_after_one_batch(cfg)
    gg = grads[-1]
    if part == "bias":
        # db is a view of the buffer sgd_step steps by
        gg.db[-1] = np.inf
    else:
        grads[-1] = gg._replace(da=[*gg.da[:-1], np.inf])
    assert not sgd_step(net, grads, cfg)
    for group in net.groups:
        assert all(np.isfinite(x).all() for x in (group.V, group.t, group.d))
    last = net.layers[grads[-1].group.layers[-1]]
    assert np.isfinite(last.bias).all() == (part != "bias")
    assert math.isfinite(last.act_exp) == (part != "act_exp")


def _arrays_of(stores, quants) -> list[np.ndarray]:
    """Every array the stores and their records hold, tapes included."""
    arrays = []
    for obj in [*stores, *(st.act_tape for st in stores if st.act_tape is not None), *quants]:
        arrays += [value for value in vars(obj).values() if isinstance(value, np.ndarray)]
    return arrays


@pytest.mark.parametrize("quantize", [True, False])
@pytest.mark.parametrize("variant", list(Variant))
def test_backward_has_no_side_effects(variant, quantize):
    # backward builds every gradient in buffers it makes: a second call on the
    # same stores gives the same bits, and the stores, their tapes, the
    # group records, d_pred and the network are left as they were
    cfg = tiny_config(variant=variant, dataset=SPLIT)
    data = make_data(cfg)
    net = build_network(cfg, data.init_weights)
    calibrate(net, data.X_train[:32])
    pred, stores = forward(net, data.X_train[:32], quantize=quantize)
    d_pred = 2.0 * (pred - data.y_train[:32]) / pred.size
    quants = list({id(st.quant): st.quant for st in stores}.values())
    watched = [d_pred, *_arrays_of(stores, quants), *(group.flat for group in net.groups)]
    before = [(a.shape, a.tobytes()) for a in watched]
    first, second = (backward(net, stores, d_pred) for _ in range(2))
    # the mode comes from the stores: only the quantized pass has activation scales to move
    assert any(any(grads.da) for grads in first) == quantize
    assert [(a.shape, a.tobytes()) for a in watched] == before
    assert len(first) == len(second) == len(net.groups)
    for a, b, group in zip(first, second, net.groups):
        assert a.group is b.group is group
        assert not np.shares_memory(a.flat, b.flat)
        assert a.flat.shape == group.flat.shape and a.flat.tobytes() == b.flat.tobytes()
        for name in ("dV", "dt", "dd", "db"):
            assert getattr(a, name).base is a.flat
        assert (a.quant.g.tobytes(), a.quant.T.tobytes(), a.da) == (b.quant.g.tobytes(), b.quant.T.tobytes(), b.da)


@pytest.mark.parametrize("batch_size", [40, 32, 96, 200])
def test_batches_yield_the_permuted_rows(batch_size):
    # each batch is bit for bit X_train[perm[a:b]], the last one partial when
    # batch_size does not divide n_train
    cfg = tiny_config(batch_size=batch_size, epochs=2)
    data = make_data(cfg)
    order = np.random.default_rng([cfg.seed, 1])
    want = []
    for epoch in range(cfg.epochs):
        perm = order.permutation(len(data.X_train))
        for a in range(0, len(perm), batch_size):
            idx = perm[a : a + batch_size]
            want.append((epoch, data.X_train[idx], data.y_train[idx]))
    got = list(_batches(cfg, data))
    assert len(got) == len(want) == cfg.epochs * math.ceil(TINY.n_train / batch_size)
    for (epoch, x, y), (epoch_w, x_w, y_w) in zip(got, want):
        assert epoch == epoch_w
        assert x.shape == x_w.shape and x.tobytes() == x_w.tobytes()
        assert y.shape == y_w.shape and y.tobytes() == y_w.tobytes()
    if TINY.n_train % batch_size:
        assert len(got[-1][1]) == TINY.n_train % batch_size


@pytest.mark.parametrize("variant, P", [(Variant.A2Q_PLUS, 5), (Variant.A2Q, 4)])
def test_build_network_starts_every_channel_at_its_float_row(variant, P):
    # the scale floor puts every row inside its budget, so none is projected
    cfg = TrainConfig(variant=variant, bits=BitWidths(M=4, N=4, P=P), seed=0)
    init = make_data(cfg).init_weights
    net = build_network(cfg, init)
    for W, layer in zip(init, net.layers):
        assert not np.shares_memory(layer.V, W)
        for row, ch in zip(W, layer.channels):
            assert ch.v.tobytes() == row.tobytes()
            assert ch.t == math.log2(float(np.abs(row).sum()))
            assert not np.shares_memory(ch.v, W)


# ---------------------------------------------------------------- reporting

def _net_from_rows(rows, bits=BitWidths(M=4, N=4, P=20), variant=Variant.A2Q):
    chans = []
    for row in rows:
        v = np.asarray(row, dtype=float)
        n1 = float(np.abs(v).sum())
        t = math.log2(n1) if n1 else -20.0
        chans.append(ChannelWeights(v=v, t=t, d=0.0))
    return ToyNetwork(layers=[_layer(chans, bits)], variant=variant)


def test_measure_sparsity_frozen_examples():
    assert measure_sparsity(quantize_network(_net_from_rows([[0.0, 0.0], [0.0, 0.0]]))) == 1.0
    assert measure_sparsity(quantize_network(_net_from_rows([[1.0, 1.0], [2.0, 2.0]]))) == 0.0
    # gate at 2 shrinks [3, 1] to [1.5, 0.5]; round toward zero gives [1, 0]
    half = ToyNetwork(
        layers=[
            _layer([ChannelWeights(v=np.array([3.0, 1.0]), t=1.0, d=0.0)], BitWidths(M=4, N=4, P=20))
        ],
        variant=Variant.A2Q,
    )
    assert measure_sparsity(quantize_network(half)) == 0.5


def test_min_bound_slack_is_exact():
    net = _net_from_rows([[1.0, 1.0]], bits=BitWidths(M=4, N=4, P=8))
    # codes [1, 1]: mass 2 against budget 127/16
    assert min_bound_slack(quantize_network(net)) == Fraction(127, 16) - 2


def test_channel_cdf_frozen_at_mass_100():
    # max|w| = 7 units so the init scale is exactly the unit, total mass 100
    w = np.array([7.0] * 14 + [2.0])
    cdf = dict(channel_cdf([w[None]], BitWidths(M=4, N=4, P=12)))
    assert cdf[11] == 0.0
    assert cdf[12] == 1.0
    assert float(a2q_limit(12, 4, False)) >= 100.0 > float(a2q_limit(11, 4, False))


def test_channel_cdf_monotone_and_zero_channel():
    rng = np.random.default_rng(8)
    rows = [rng.normal(size=10) * 3 for _ in range(20)]
    curve = channel_cdf([np.stack(rows)], BitWidths(M=8, N=4, P=16))
    fracs = [f for _, f in curve]
    assert all(a <= b for a, b in zip(fracs, fracs[1:]))
    flat = channel_cdf([np.zeros((1, 4))], BitWidths(M=8, N=4, P=16))
    assert all(f == 1.0 for _, f in flat)


@pytest.mark.parametrize(
    "layers, match",
    [
        ([[["1", 2.0]]], "w must be a real number, got '1'"),
        ([[[True, 2.0]]], "w must be a real number, got True"),
        ([np.array([[1.0, np.nan]])], "w must be finite"),
        ([[1.0, 2.0]], "w must be a (C, K) array with C, K >= 1, got shape (2,)"),
        ([np.zeros((2, 3)), np.zeros((0, 3))], "w must be a (C, K) array with C, K >= 1, got shape (0, 3)"),
    ],
    ids=["string", "bool", "nan", "1-d", "empty layer"],
)
def test_channel_cdf_reads_each_layer_as_the_quantizer_does(layers, match):
    with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
        channel_cdf(layers, BitWidths(M=4, N=4, P=12), p_range=range(10, 11))


# ---------------------------------------------------------------- certificates

def test_certify_exhaustive_path_on_tiny_channels():
    # (2^N)^K = 4^3 = 64 inputs: the exhaustive sweep actually runs here
    bits = BitWidths(M=4, N=2, P=8)
    net = _net_from_rows([[2.0, -1.0, 1.0]], bits=bits)
    certify_accumulators(net, quantize_network(net))


def test_certify_raises_on_overflowing_network():
    # real A2Q codes, but quantized for a P=16 register while the layer
    # certifies at P=4: codes [7, 7] against 3-bit unsigned inputs reach 98 > 7
    bits = BitWidths(M=4, N=3, P=4)
    ch = ChannelWeights(v=np.array([1.0, 1.0]), t=math.log2(14.0), d=0.0)
    net = ToyNetwork(layers=[_layer([ch], bits)], variant=Variant.A2Q)
    certify_accumulators(net, quantize_network(net))  # quantized for its own register, the layer is safe
    wide = BitWidths(M=4, N=3, P=16)
    results = [quantize_layer(layer.V, layer.t, layer.d, wide, net.variant) for layer in net.layers]
    assert results[0].q.tolist() == [[7, 7]] and all(results[0].bound_ok)
    with pytest.raises(AccumulatorOverflowError, match="layer 0 channel 0 overflows P=4"):
        certify_accumulators(net, results)


# ---------------------------------------------------------------- checkpoints

def test_quantized_checkpoint_round_trip(tmp_path):
    net, _ = fit(tiny_config(variant=Variant.A2Q_PLUS, seed=9, epochs=2))
    path = tmp_path / "run.json"
    save_checkpoint(path, net)
    kind, loaded = load_checkpoint(path)
    assert kind == "quantized"
    assert loaded.variant is net.variant
    X = make_data(tiny_config(seed=9)).X_test[:16]
    calibrated = forward(net, X)[0]
    restored = forward(loaded, X)[0]
    assert np.array_equal(calibrated, restored)
    for a, b in zip(net.layers, loaded.layers):
        assert a.bits == b.bits
        assert a.act_exp == b.act_exp
        assert np.array_equal(a.bias, b.bias)
        for ca, cb in zip(a.channels, b.channels):
            assert np.array_equal(ca.v, cb.v)
            assert ca.t == cb.t and ca.d == cb.d


def test_float_checkpoint_round_trip(tmp_path):
    run = float_baseline(tiny_config(seed=10, epochs=2))
    path = tmp_path / "float.json"
    save_float_checkpoint(path, run.weights)
    kind, layers = load_checkpoint(path)
    assert kind == "float"
    assert [got.tobytes() for got in layers] == [W.tobytes() for W in run.weights]
    payload = json.loads(path.read_text())
    assert payload["kind"] == "float"


@pytest.mark.parametrize("name", ["t", "d", "bias"])
@pytest.mark.parametrize("value", [np.zeros(1), np.zeros(3), np.zeros((2, 1))])
def test_a_layer_rejects_a_row_vector_that_is_not_one_per_channel(name, value):
    # the fan-in group's buffer would broadcast it over the layer's rows
    fields = {"V": np.ones((2, 2)), "t": np.zeros(2), "d": np.zeros(2), "bias": np.zeros(2), name: value}
    with pytest.raises(ValueError, match=name):
        QuantLinear(bits=BitWidths(M=4, N=4, P=16), **fields)


@pytest.mark.parametrize("name", ["V", "t", "d", "bias", "act_exp"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_layer_rejects_a_non_finite_field_by_name(name, bad):
    # a NaN code row once wrapped its int64 |q| sum to 0 and passed its l1 bound
    fields = {"V": [[1.0, 2.0]], "t": [0.0], "d": [0.0], "bias": [0.0], "act_exp": 0.0}
    fields[name] = bad if name == "act_exp" else np.full(np.shape(fields[name]), bad)
    # act_exp, a scalar, names its value; the arrays do not
    message = f"act_exp must be finite, got {bad}" if name == "act_exp" else f"{name} must be finite"
    with pytest.raises(NonFiniteInputError, match=f"^{message}$"):
        QuantLinear(bits=BitWidths(M=4, N=4, P=16), **fields)


@pytest.mark.parametrize(
    "V", [[1.0, 2.0], [[]], [[1.0, 2.0], [3.0]], 1.0], ids=["1-d", "no column", "ragged", "scalar"]
)
def test_a_layer_rejects_a_direction_that_is_not_c_by_k(V):
    with pytest.raises(ValueError, match="^V must be"):
        QuantLinear(V=V, t=np.zeros(2), d=np.zeros(2), bits=BitWidths(M=4, N=4, P=16))


def test_a_layer_takes_lists_as_float_arrays():
    layer = QuantLinear(V=[[1, 2]], t=[0], d=[-1], bits=BitWidths(M=4, N=4, P=16), act_exp=1)
    assert [x.dtype for x in (layer.V, layer.t, layer.d, layer.bias)] == [np.float64] * 4
    assert (layer.bias.tolist(), layer.act_exp) == ([0.0], 1.0)


def test_load_checkpoint_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "mystery", "layers": []}))
    with pytest.raises(ValueError):
        load_checkpoint(path)
