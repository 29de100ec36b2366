"""Trainer: determinism, gradients, budgets, sparsity, checkpoints, CLI-free API."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accq.bounds import BitWidths, a2q_limit, a2q_plus_limit, int_range
from accq import qat, quantizers
from accq.errors import AccumulatorOverflowError, DivergenceError
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
    float_baseline,
    forward,
    load_checkpoint,
    make_data,
    measure_sparsity,
    min_bound_slack,
    mse,
    quantize_network,
    save_checkpoint,
    save_float_checkpoint,
    sgd_step,
    train,
)
from accq.quantizers import LN2, ChannelWeights, Variant, quantize_layer

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
        variant="a2q_plus", M=4, N=4, P=12, seed=7,
        final_loss=0.12345678901234567, sparsity=0.40625,
        min_slack=Fraction(2047, 256) - 7,
    )
    assert SweepRecord.from_csv_row(rec.csv_row()) == rec
    with pytest.raises(ValueError):
        SweepRecord.from_csv_row("a2q,4,4,12,0,0.5,0.5")


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
    return float(grads[0].g[0]), float(grads[0].T[0]), ch.t - float(layer.t[0]), ch.d - float(layer.d[0])


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
            quant, rows = st.quant, st.rows
            if quant.degenerate[rows].any():
                return None
            if np.min(np.abs(quant.c[rows])) < 20 * h:
                return None
            g, T = quant.g[rows], quant.T[rows]
            if (np.abs(g - T) < 1e-3 * np.maximum(g, T)).any():
                return None

        d_pred = 2.0 * (pred - y) / pred.size
        grads = backward(net, stores, d_pred, quantize=False)

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
            for li, rows in zip(gg.group.layers, gg.group.rows):
                layer = net.layers[li]
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
        for st in stores:
            quant, rows = st.quant, st.rows
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
    certify_accumulators(net)


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
    gi, group = next((gi, group) for gi, group in enumerate(net.groups) if 1 in group.layers)
    rows = group.rows[group.layers.index(1)]
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
    assert net.topology == (6, 5, 4, 3)
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
    # one quantizer call per fan-in group for calibration, each SGD step, the
    # final evaluation and the certificate; sparsity and slack reuse the last
    calls = []
    core = quantizers._quantize_rows

    def counting(*args):
        calls.append(args)
        return core(*args)

    monkeypatch.setattr(qat, "_quantize_rows", counting)
    cfg = tiny_config(dataset=dataset)
    net, rec = fit(cfg)
    steps = cfg.epochs * math.ceil(dataset.n_train / cfg.batch_size)
    assert len(calls) == (steps + 3) * len(net.groups)
    quants = certify_accumulators(net)
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
        for i, rows in zip(group.layers, group.rows):
            layer = net.layers[i]
            assert net.homes[i] == (gi, rows)
            for mine, whole in zip((layer.V, layer.t, layer.d, layer.bias), wholes):
                assert np.shares_memory(mine, whole)
                assert np.array_equal(mine, whole[rows])


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
        db = gg.db.copy()
        db[-1] = np.inf
        grads[-1] = gg._replace(db=db)
    else:
        grads[-1] = gg._replace(da=[*gg.da[:-1], np.inf])
    assert not sgd_step(net, grads, cfg)
    for group in net.groups:
        assert all(np.isfinite(x).all() for x in (group.V, group.t, group.d))
    last = net.layers[grads[-1].group.layers[-1]]
    assert np.isfinite(last.bias).all() == (part != "bias")
    assert math.isfinite(last.act_exp) == (part != "act_exp")


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
    cdf = dict(channel_cdf([w], BitWidths(M=4, N=4, P=12)))
    assert cdf[11] == 0.0
    assert cdf[12] == 1.0
    assert float(a2q_limit(12, 4, False)) >= 100.0 > float(a2q_limit(11, 4, False))


def test_channel_cdf_monotone_and_zero_channel():
    rng = np.random.default_rng(8)
    rows = [rng.normal(size=10) * 3 for _ in range(20)]
    curve = channel_cdf(rows, BitWidths(M=8, N=4, P=16))
    fracs = [f for _, f in curve]
    assert all(a <= b for a, b in zip(fracs, fracs[1:]))
    flat = channel_cdf([np.zeros(4)], BitWidths(M=8, N=4, P=16))
    assert all(f == 1.0 for _, f in flat)


# ---------------------------------------------------------------- certificates

def test_certify_exhaustive_path_on_tiny_channels():
    # (2^N)^K = 4^3 = 64 inputs: the exhaustive sweep actually runs here
    bits = BitWidths(M=4, N=2, P=8)
    net = _net_from_rows([[2.0, -1.0, 1.0]], bits=bits)
    certify_accumulators(net)


def test_certify_raises_on_overflowing_network(monkeypatch):
    # real A2Q codes, but quantized for a P=16 register while the layer
    # certifies at P=4: codes [7, 7] against 3-bit unsigned inputs reach 98 > 7
    bits = BitWidths(M=4, N=3, P=4)
    ch = ChannelWeights(v=np.array([1.0, 1.0]), t=math.log2(14.0), d=0.0)
    net = ToyNetwork(layers=[_layer([ch], bits)], variant=Variant.A2Q)
    certify_accumulators(net)  # quantized for its own register, the layer is safe
    wide = BitWidths(M=4, N=3, P=16)
    results = [quantize_layer(layer.V, layer.t, layer.d, wide, net.variant) for layer in net.layers]
    assert results[0].q.tolist() == [[7, 7]] and all(results[0].bound_ok)
    monkeypatch.setattr(qat, "quantize_network", lambda _: results)
    with pytest.raises(AccumulatorOverflowError, match="layer 0 channel 0 overflows P=4"):
        certify_accumulators(net)


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
    kind, rows = load_checkpoint(path)
    assert kind == "float"
    for W, got in zip(run.weights, rows):
        assert np.array_equal(np.stack(got), W)
    payload = json.loads(path.read_text())
    assert payload["kind"] == "float"


@pytest.mark.parametrize("name", ["t", "d", "bias"])
@pytest.mark.parametrize("value", [np.zeros(1), np.zeros(3), np.zeros((2, 1))])
def test_a_layer_rejects_a_row_vector_that_is_not_one_per_channel(name, value):
    # the fan-in group's buffer would broadcast it over the layer's rows
    fields = {"V": np.ones((2, 2)), "t": np.zeros(2), "d": np.zeros(2), "bias": np.zeros(2), name: value}
    with pytest.raises(ValueError, match=name):
        QuantLinear(bits=BitWidths(M=4, N=4, P=16), **fields)


def test_load_checkpoint_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "mystery", "layers": []}))
    with pytest.raises(ValueError):
        load_checkpoint(path)
