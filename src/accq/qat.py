"""Desk-scale quantization-aware training on a synthetic teacher-student task.

The network is deliberately small: linear layers with ReLU between them, one
l1-budgeted weight quantizer per output unit, and per-tensor activation
quantizers whose scales are learned in the log domain.  Everything runs on
numpy with manual backprop, single threaded, so a run is a pure function of
its config: data, init, and batch order all derive from the seed.

Layer policy: the first and last layers quantize weights and incoming
activations at 8 bits; interior layers use the configured (M, N).  Every
layer shares the accumulator width P.  Inputs are folded Gaussian (absolute
values, so non-negative like post-ReLU tensors) and hidden activations are
ReLU outputs, so every activation tensor is quantized unsigned; no signed
activation path exists in the toy net.  Biases stay in float: they are added
after the integer dot product, outside the P-bit accumulation loop, so they
never touch the overflow analysis.

Layers that share a fan-in K form one group, which owns their V, t, d and bias
in one flat float buffer that each layer views by rows; each step quantizes and
backprops through the quantizer in one call per group.  backward builds each
group's gradients in one fresh buffer laid out like that one, assigning the
quantizer's fresh dV, dt and dd into it; the forward's stores, tapes and
quantizer records are only read.  sgd_step adds weight decay and the hinge into
that buffer, steps the group's buffer by it in one expression and checks it.
A layer's activation exponent stays its own float.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .bounds import BitWidths, _int_field, _real_field, a2q_limit, int_range
from .epinit import ZERO_EXPONENT, ep_init_layer, l1_masses, max_abs_scales
from .errors import AccumulatorOverflowError, DivergenceError, NonFiniteInputError
from .intsim import AccumulatorSpec, certify
from .quantizers import (
    LN2,
    ChannelWeights,
    PlanRows,
    QuantizedLayer,
    Variant,
    _layer_arrays,
    _plan_rows,
    _quantize_rows,
    finite_vector,
)

# weight and activation bits of the first and last layers
EDGE_BITS = 8


@dataclass(frozen=True)
class TeacherStudentSpec:
    """Synthetic regression task: a random ReLU teacher plus label noise."""

    input_dim: int = 16
    hidden: tuple[int, ...] = (16, 16)
    output_dim: int = 4
    noise_sigma: float = 0.4
    n_train: int = 2048
    n_test: int = 512

    def __post_init__(self) -> None:
        # a zero width divides make_data's init scale, and an empty test set mse's mean;
        # n_train may be 0, which trains no step
        try:
            hidden = tuple(self.hidden)
        except TypeError:
            raise ValueError(f"hidden must be a sequence of integers, got {self.hidden!r}") from None
        object.__setattr__(
            self, "hidden", tuple(_int_field(h, f"hidden[{i}]", 1, math.inf, ValueError) for i, h in enumerate(hidden))
        )
        for name, low in (("input_dim", 1), ("output_dim", 1), ("n_train", 0), ("n_test", 1)):
            object.__setattr__(self, name, _int_field(getattr(self, name), name, low, math.inf, ValueError))
        object.__setattr__(self, "noise_sigma", _real_field(self.noise_sigma, "noise_sigma", 0.0))

    def dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.output_dim)


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs; two equal configs give byte-identical results."""

    variant: Variant
    bits: BitWidths
    lr: float = 0.1
    weight_decay: float = 1e-4
    lambda_reg: float = 1e-3
    epochs: int = 40
    batch_size: int = 256
    seed: int = 0
    dataset: TeacherStudentSpec = field(default_factory=TeacherStudentSpec)

    def __post_init__(self) -> None:
        # the CSV row writes variant.value; a string such as "a2q+" is refused, as quantize_layer refuses it
        if not isinstance(self.variant, Variant):
            raise ValueError(f"variant must be a Variant member, got {self.variant!r}")
        for name, kind in (("bits", BitWidths), ("dataset", TeacherStudentSpec)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if self.bits.act_signed:
            raise ValueError("hidden activations are unsigned after ReLU; bits.act_signed must be False")
        # the CSV row writes seed as it is, and a bool there is one SweepRecord cannot read back;
        # a numpy integer is kept as an int, so batch offsets cannot wrap at its width
        for name, low in (("seed", 0), ("epochs", 0), ("batch_size", 1)):
            object.__setattr__(self, name, _int_field(getattr(self, name), name, low, math.inf, ValueError))
        # a negative lr ascends and a negative decay anti-decays; NaN and inf looked like divergence,
        # and sgd_step's hinge runs only for lam > 0, so NaN and negatives would silently mean 0
        for name, strict in (("lr", True), ("weight_decay", False), ("lambda_reg", False)):
            object.__setattr__(self, name, _real_field(getattr(self, name), name, 0.0, strict=strict))


@dataclass(frozen=True)
class SweepRecord:
    """One sweep point.  The CSV form is stable and byte-reproducible.

    The fields are the CSV columns in order, and each field's type parses its
    column back.  A row fit never writes is a ValueError naming the field: a
    variant not in Variant, widths BitWidths refuses, a negative seed, loss or
    min_slack, a loss not finite, a sparsity outside [0, 1] or a slack of n/0.
    """

    variant: str
    M: int
    N: int
    P: int
    seed: int
    final_loss: float
    sparsity: float
    min_slack: Fraction

    def sort_key(self) -> tuple:
        return (self.variant, self.M, self.N, self.P, self.seed)

    def csv_row(self) -> str:
        # str() of a float is its repr, which round-trips exactly; a Fraction
        # prints as n/d (or n)
        return ",".join(str(getattr(self, name)) for name in _COLUMNS)

    def to_json(self) -> str:
        """One JSON object, keys in CSV column order; min_slack as its n/d string."""
        return json.dumps({name: getattr(self, name) for name in _COLUMNS}, default=str)

    @classmethod
    def from_csv_row(cls, line: str) -> "SweepRecord":
        parts = line.strip().split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"expected {len(_COLUMNS)} CSV fields, got {len(parts)}: {line!r}")
        try:
            record = cls(*(parse(part) for parse, part in zip(_COLUMNS.values(), parts)))
        except ZeroDivisionError as exc:
            raise ValueError(f"{exc} in {line!r}") from exc
        if record.variant not in {v.value for v in Variant}:
            raise ValueError(f"variant must be a Variant value, got {line!r}")
        try:
            TrainConfig(Variant(record.variant), BitWidths(M=record.M, N=record.N, P=record.P), seed=record.seed)
        except ValueError as exc:
            raise ValueError(f"{exc} in {line!r}") from exc
        if not 0.0 <= record.final_loss < math.inf:
            raise ValueError(f"final_loss must be finite and non-negative, got {line!r}")
        if not 0.0 <= record.sparsity <= 1.0:
            raise ValueError(f"sparsity must be in [0, 1], got {line!r}")
        if record.min_slack < 0:
            raise ValueError(f"min_slack must be non-negative, got {line!r}")
        return record


# column name -> its parser, in field order
_COLUMNS = get_type_hints(SweepRecord)
CSV_HEADER = ",".join(_COLUMNS)


@dataclass
class QuantLinear:
    """One linear layer: C output channels as arrays, plus its input quantizer.

    Row i of V (C, K) is channel i's direction, t[i] its norm exponent and
    d[i] its scale exponent (g = 2^t, s = 2^d).  The float bias (C,) rides
    along unquantized; it lands after the accumulator, so channel overflow
    audits ignore it.  Once the layer is part of a ToyNetwork, V, t, d and
    bias are row views of its fan-in group's buffer, so an in-place edit of
    them is what the next step reads.  act_exp, the input quantizer's scale
    exponent, is a plain float the layer keeps.  A misshapen or non-finite
    field, act_exp included, is a ValueError or NonFiniteInputError naming it,
    as is an act_exp that is not a real number or bits that are not a BitWidths.
    """

    V: np.ndarray
    t: np.ndarray
    d: np.ndarray
    bits: BitWidths
    bias: np.ndarray = None  # type: ignore[assignment]
    act_exp: float = 0.0

    def __post_init__(self) -> None:
        # the group buffer would broadcast a short t, d or bias over the layer's rows
        bias = np.zeros(np.shape(self.t)) if self.bias is None else self.bias
        self.V, self.t, self.d, self.bias = _layer_arrays(V=self.V, t=self.t, d=self.d, bias=bias)
        if not isinstance(self.bits, BitWidths):
            raise ValueError(f"bits must be a BitWidths, got {self.bits!r}")
        self.act_exp = _real_field(self.act_exp, "act_exp", error=NonFiniteInputError)

    @property
    def channels(self) -> list[ChannelWeights]:
        """A copy of each row as a ChannelWeights; editing one leaves the layer alone."""
        return [ChannelWeights(v=v, t=t, d=d) for v, t, d in zip(self.V.copy(), self.t.tolist(), self.d.tolist())]

    @functools.cached_property
    def act_range(self) -> tuple[int, int]:
        """Inclusive [lo, hi] of the input activation codes, derived once (bits stay fixed)."""
        return int_range(self.bits.N, self.bits.act_signed)


class FanInGroup(NamedTuple):
    """Layers that share a fan-in K, and the one buffer of their channels in layer order.

    flat is one contiguous float buffer laid out [V | t | d | b]: V (C, K),
    t, d and the biases b (C,) are views of it that hold every row of the
    group, layer by layer in the order of layers (ToyNetwork.homes names
    each layer's rows).  plan_rows holds the group's PlanRows:
    each row's budget and clip limits, derived once from its layers' bit
    widths and the network's variant.  sgd_step updates the views in place
    and checks flat once, so every array keeps its identity for the life of
    the network.
    """

    layers: tuple[int, ...]
    plan_rows: PlanRows
    flat: np.ndarray
    V: np.ndarray
    t: np.ndarray
    d: np.ndarray
    b: np.ndarray


def _flat_views(flat: np.ndarray, C: int, K: int) -> tuple[np.ndarray, ...]:
    """V (C, K) and t, d, b (C,) as views of a buffer laid out [V | t | d | b]."""
    return (flat[: C * K].reshape(C, K), *flat[C * K :].reshape(3, C))


def _fan_in_groups(layers: list[QuantLinear], variant: Variant) -> tuple[list[FanInGroup], list[tuple[int, slice]]]:
    by_k: dict[int, list[int]] = {}
    for i, layer in enumerate(layers):
        by_k.setdefault(layer.V.shape[1], []).append(i)
    groups = []
    homes: list[tuple[int, slice]] = [None] * len(layers)  # type: ignore[list-item]
    for gi, (K, idx) in enumerate(by_k.items()):
        members = [layers[i] for i in idx]
        C = sum(len(layer.V) for layer in members)
        flat = np.empty(C * (K + 3))
        V, t, d, b = _flat_views(flat, C, K)
        start = 0
        for i, layer in zip(idx, members):
            rows = slice(start, start + len(layer.V))
            homes[i] = (gi, rows)
            start = rows.stop
            for name, whole in zip(("V", "t", "d", "bias"), (V, t, d, b)):
                whole[rows] = getattr(layer, name)
                setattr(layer, name, whole[rows])
        plan = tuple((layer.bits, len(layer.V)) for layer in members)
        groups.append(
            FanInGroup(
                layers=tuple(idx), plan_rows=_plan_rows(K, plan, variant),
                flat=flat, V=V, t=t, d=d, b=b,
            )
        )
    return groups, homes


@dataclass
class ToyNetwork:
    """The layers in order, and their fan-in groups in order of each group's first layer.

    groups is derived once, at construction: a layer's shape and bit widths
    and the network's variant never change, and from then on the groups own
    every layer's channels and bias.  homes[i] is layer i's (group index,
    rows) there.
    """

    layers: list[QuantLinear]
    variant: Variant
    groups: list[FanInGroup] = field(init=False, repr=False, compare=False)
    homes: list[tuple[int, slice]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.groups, self.homes = _fan_in_groups(self.layers, self.variant)


def quantize_network(net: ToyNetwork) -> list[QuantizedLayer]:
    """One quantize_layer record per fan-in group, in net.groups order, from the group's derived plan rows."""
    return [_quantize_rows(group.V, group.t, group.d, group.plan_rows) for group in net.groups]


@dataclass(frozen=True)
class DataBundle:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    init_weights: tuple[np.ndarray, ...]


def _layer_bits(config: TrainConfig) -> list[BitWidths]:
    n_layers = len(config.dataset.dims()) - 1
    edge = BitWidths(M=EDGE_BITS, N=EDGE_BITS, P=config.bits.P)
    inner = BitWidths(M=config.bits.M, N=config.bits.N, P=config.bits.P)
    return [edge if i in (0, n_layers - 1) else inner for i in range(n_layers)]


def make_data(config: TrainConfig) -> DataBundle:
    """Draw the task and the student's float init, fully determined by the seed.

    Inputs are folded to their absolute value so the whole network runs on
    unsigned activation quantizers end to end.
    """
    ds = config.dataset
    dims = ds.dims()
    rng = np.random.default_rng(config.seed)

    def he_layer(i: int) -> np.ndarray:
        # layer i's (out, in) weights, He-scaled; the teacher draws first, the student's init last
        return rng.normal(size=(dims[i + 1], dims[i])) * math.sqrt(2.0 / dims[i])

    teacher = [he_layer(i) for i in range(len(dims) - 1)]

    def run_teacher(x: np.ndarray) -> np.ndarray:
        h = x
        for i, W in enumerate(teacher):
            h = h @ W.T
            if i < len(teacher) - 1:
                h = np.maximum(h, 0.0)
        return h

    X_train = np.abs(rng.normal(size=(ds.n_train, ds.input_dim)))
    X_test = np.abs(rng.normal(size=(ds.n_test, ds.input_dim)))
    y_train = run_teacher(X_train) + ds.noise_sigma * rng.normal(size=(ds.n_train, ds.output_dim))
    y_test = run_teacher(X_test) + ds.noise_sigma * rng.normal(size=(ds.n_test, ds.output_dim))
    init = tuple(he_layer(i) for i in range(len(dims) - 1))
    return DataBundle(X_train, y_train, X_test, y_test, init)


def build_network(config: TrainConfig, init_weights) -> ToyNetwork:
    """Start each layer at its float init (epinit.ep_init_layer) and wrap them up."""
    layers = [
        QuantLinear(*ep_init_layer(W, bw, config.variant), bits=bw)
        for W, bw in zip(init_weights, _layer_bits(config))
    ]
    return ToyNetwork(layers=layers, variant=config.variant)


def calibrate(net: ToyNetwork, X: np.ndarray) -> None:
    """Set each activation scale so the observed peak lands on the top code.

    Reads each layer's input off the smooth pass of forward (pre-round
    weights, no activation quantization), which act_exp does not enter;
    training then moves the exponents by gradient from this starting point.
    """
    for layer, st in zip(net.layers, forward(net, X, quantize=False)[1]):
        _, hi = layer.act_range
        top = float(np.max(np.abs(st.xq))) if st.xq.size else 0.0
        layer.act_exp = math.log2(top / hi) if top > 0.0 else ZERO_EXPONENT


@dataclass
class _ActTape:
    mask: np.ndarray
    codes: np.ndarray
    pre: np.ndarray
    s: float


def _act_forward(x: np.ndarray, layer: QuantLinear) -> tuple[np.ndarray, _ActTape]:
    s = 2.0 ** layer.act_exp
    if s == 0.0:
        raise OverflowError("activation scale 2^act_exp underflows to 0")
    lo, hi = layer.act_range
    pre = x / s
    raw = np.rint(pre)
    # ndarray.clip's Python wrapper costs more than the two ufuncs; NaN stays
    # NaN in the codes and out of the mask either way
    codes = np.maximum(raw, lo)
    np.minimum(codes, hi, out=codes)
    mask = codes == raw
    return s * codes, _ActTape(mask=mask, codes=codes, pre=pre, s=s)


def _act_backward(d_xq: np.ndarray, tape: _ActTape) -> float:
    """The gradient of act_exp: the scale sees the rounding residual in range and the saturated code outside."""
    resid = tape.codes - tape.pre
    np.copyto(resid, tape.codes, where=~tape.mask)
    resid *= d_xq
    return float(np.add.reduce(resid, axis=None)) * tape.s * LN2


@dataclass
class _LayerStore:
    """One layer's forward state; quant is its fan-in group's record, net.homes[i][1] its rows there.

    act_tape is None on the smooth pass, which quantizes no activation.
    """

    xq: np.ndarray
    act_tape: _ActTape | None
    W: np.ndarray
    quant: QuantizedLayer
    y: np.ndarray


class GroupGrads(NamedTuple):
    """One fan-in group's parameter gradients, in one buffer laid out like its flat.

    flat is [dV | dt | dd | db], of which dV, dt, dd and the bias gradient db
    are views; quant is the forward's record they differentiate, whose g = 2^t
    and budget norm T sgd_step's hinge reads; da holds one activation-exponent
    gradient per layer of the group.  sgd_step adds its regularizers into flat.
    """

    group: FanInGroup
    flat: np.ndarray
    dV: np.ndarray
    dt: np.ndarray
    dd: np.ndarray
    quant: QuantizedLayer
    db: np.ndarray
    da: list[float]


def forward(net: ToyNetwork, X, quantize: bool = True) -> tuple[np.ndarray, list[_LayerStore]]:
    """Run the network, returning predictions and per-layer tapes.

    quantize=False is the smooth surrogate (pre-round weights, raw
    activations): the reference path for finite-difference checks.
    """
    h = np.asarray(X, dtype=float)
    stores: list[_LayerStore] = []
    last = len(net.layers) - 1
    quants = quantize_network(net)
    for i, (layer, (gi, rows)) in enumerate(zip(net.layers, net.homes)):
        quant = quants[gi]
        if quantize:
            xq, act_tape = _act_forward(h, layer)
        else:
            xq, act_tape = h, None
        W = (quant.qw if quantize else quant.w)[rows]
        y = xq @ W.T
        y += layer.bias
        stores.append(_LayerStore(xq=xq, act_tape=act_tape, W=W, quant=quant, y=y))
        h = y if i == last else np.maximum(y, 0.0)
    return h, stores


def backward(net: ToyNetwork, stores: list[_LayerStore], d_pred) -> list[GroupGrads]:
    """Manual backprop matching forward(); returns the parameter grads per fan-in group.

    It differentiates the pass the stores come from: the smooth one when they
    hold no activation tape, the quantized one otherwise.

    Each group's gradients fill one fresh buffer laid out like its flat: each
    layer writes its weight and bias gradients into its rows there, and the
    fresh dV, dt and dd the quantizer's backward returns are assigned into
    it.  The stores, their tapes and records, and d_pred are only read.
    Nothing reads the first layer's input gradient, so it is not formed.
    """
    n = len(net.layers)
    quantize = stores[0].act_tape is not None
    flats = [np.empty(group.flat.shape) for group in net.groups]
    views = [_flat_views(flat, *group.V.shape) for group, flat in zip(net.groups, flats)]
    da = [0.0] * n
    d_y = np.asarray(d_pred, dtype=float)
    for i in reversed(range(n)):
        st = stores[i]
        gi, rows = net.homes[i]
        dV, _, _, db = views[gi]
        np.matmul(d_y.T, st.xq, out=dV[rows])
        np.add.reduce(d_y, axis=0, out=db[rows])
        d_xq = d_y @ st.W
        if quantize:
            da[i] = _act_backward(d_xq, st.act_tape)
        if i:
            # the layer below's output gradient, over d_xq: through the input clip
            # window and that layer's ReLU in one product, bit for bit the two in turn
            live = stores[i - 1].y > 0.0
            if quantize:
                live &= st.act_tape.mask
            d_y = np.multiply(d_xq, live, out=d_xq)
    grads = []
    for group, flat, (dV, dt, dd, db) in zip(net.groups, flats, views):
        quant = stores[group.layers[0]].quant
        dV[...], dt[...], dd[...] = (quant.backward if quantize else quant.backward_smooth)(dV)
        grads.append(GroupGrads(group, flat, dV, dt, dd, quant, db, [da[i] for i in group.layers]))
    return grads


def sgd_step(net: ToyNetwork, grads: list[GroupGrads], config: TrainConfig) -> bool:
    """Plain SGD update; weight decay touches v only, the hinge steers t and d.

    Adds both into each group's gradient buffer in place, then steps the
    group's flat buffer by it in one expression, so every layer's row views
    see the step.  Returns whether every parameter it updated is still
    finite: one check of each group's buffer, one per act_exp.
    """
    lr, wd, lam = config.lr, config.weight_decay, config.lambda_reg
    finite = True
    # a diverging step may overflow or meet inf * 0; the return value reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for group, flat, dV, dt, dd, quant, _, das in grads:
            # gradient of the hinge lam * max(g - T, 0) on every channel: zero on a
            # feasible gate (g <= T), so it steers only channels parked above budget
            over = ~quant.gate_on_g
            if lam > 0.0 and np.logical_or.reduce(over):
                np.add(dt, lam * quant.g * LN2, out=dt, where=over)
                np.subtract(dd, lam * quant.T * LN2, out=dd, where=over)
            dV += wd * group.V
            np.subtract(group.flat, lr * flat, out=group.flat)
            for i, da in zip(group.layers, das):
                layer = net.layers[i]
                layer.act_exp -= lr * da
                finite = finite and math.isfinite(layer.act_exp)
            finite = finite and bool(np.logical_and.reduce(np.isfinite(group.flat)))
    return finite


def mse(pred, target) -> float:
    diff = np.asarray(pred, dtype=float) - np.asarray(target, dtype=float)
    sq = diff * diff
    # sum / size is np.mean bit for bit, minus its per-call overhead
    return float(np.add.reduce(sq, axis=None) / sq.size)


def fit(config: TrainConfig) -> tuple[ToyNetwork, SweepRecord]:
    """Train from scratch and return the network with its audited summary row.

    After the last step certify_accumulators checks every channel's exact worst
    case against its register, by the closed form alone on the default net at
    N >= 2; a violation raises instead of returning a bad row.
    """
    data = make_data(config)
    net = build_network(config, data.init_weights)
    calibrate(net, data.X_train[: min(256, len(data.X_train))])
    for epoch, xb, yb in _batches(config, data):
        pred, stores = _quantized_forward(net, xb, f"epoch {epoch}")
        if not math.isfinite(mse(pred, yb)):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        d_pred = 2.0 * (pred - yb) / pred.size
        grads = backward(net, stores, d_pred)
        if not sgd_step(net, grads, config):
            # the next loss cannot be finite; stop before numpy casts NaNs
            raise DivergenceError(f"non-finite loss at epoch {epoch}: an SGD step made a parameter non-finite")
    pred, stores = _quantized_forward(net, data.X_test, "the final evaluation")
    final_loss = mse(pred, data.y_test)
    if not math.isfinite(final_loss):
        raise DivergenceError("non-finite final loss")
    quants = [stores[group.layers[0]].quant for group in net.groups]
    certify_accumulators(net, quants)
    bits = config.bits
    return net, SweepRecord(
        config.variant.value, bits.M, bits.N, bits.P, config.seed,
        final_loss, measure_sparsity(quants), min_bound_slack(quants),
    )


def _batches(config: TrainConfig, data: DataBundle):
    """Yield (epoch, x, y) per minibatch, in fit's batch order.

    Each epoch draws a permutation of the training set from the
    default_rng([seed, 1]) stream, gathers the set in that order once (take:
    fancy indexing's bytes, faster) and yields batch_size runs of it as views:
    batch j is X_train[perm[j*B:(j+1)*B]].
    """
    order = np.random.default_rng([config.seed, 1])
    for epoch in range(config.epochs):
        perm = order.permutation(len(data.X_train))
        X, y = data.X_train.take(perm, axis=0), data.y_train.take(perm, axis=0)
        for start in range(0, len(perm), config.batch_size):
            stop = start + config.batch_size
            yield epoch, X[start:stop], y[start:stop]


def _quantized_forward(net: ToyNetwork, X, when: str) -> tuple[np.ndarray, list[_LayerStore]]:
    try:
        return forward(net, X, quantize=True)
    except OverflowError as exc:
        # a runaway exponent breaks 2**t, or sends a scale to 0, before the
        # loss can go NaN
        raise DivergenceError(f"parameter overflow at {when}") from exc


def train(config: TrainConfig) -> SweepRecord:
    """Run fit() and keep only the summary row."""
    return fit(config)[1]


def measure_sparsity(quants: list[QuantizedLayer]) -> float:
    """Fraction of integer weight codes equal to zero across the quantized records."""
    zeros = sum(int(np.count_nonzero(quant.q == 0)) for quant in quants)
    return zeros / sum(quant.q.size for quant in quants)


def min_bound_slack(quants: list[QuantizedLayer]) -> Fraction:
    """Tightest channel's budget minus its integer l1 mass, as an exact rational."""
    return min(b - l1 for quant in quants for b, l1 in zip(quant.bound, quant.l1_codes))


def certify_accumulators(net: ToyNetwork, quants: list[QuantizedLayer]) -> None:
    """Exact post-training overflow audit; raises AccumulatorOverflowError on any hazard.

    quants holds one record per fan-in group, in net.groups order (as from
    quantize_network).  One intsim.certify call per layer, on its rows there,
    gives every channel its closed-form worst case; certify adds the exhaustive
    oracle only where (2^N)^K <= 2^24 and the reachable sums span at most 2^22,
    which on the default net is the K = 16 interior layer at N = 1, no 8-bit edge.
    """
    for li, (layer, (gi, rows)) in enumerate(zip(net.layers, net.homes)):
        bits = layer.bits
        certs = certify(quants[gi].q[rows], bits.N, bits.act_signed, AccumulatorSpec(P=bits.P))
        for ci, cert in enumerate(certs):
            if cert.overflowed:
                raise AccumulatorOverflowError(
                    f"layer {li} channel {ci} overflows P={bits.P}: worst-case dot range "
                    f"[{cert.true_min}, {cert.true_max}]"
                )


def channel_cdf(layers, bits: BitWidths, p_range=range(2, 33)) -> list[tuple[int, float]]:
    """Feasibility curve for float layers, each a (C, K) array, under the max-abs init scale.

    For each P, the fraction of rows whose l1 mass (epinit.l1_masses) over
    their max-abs scale (epinit.max_abs_scales) fits the uncentered budget at
    (P, N).  Nondecreasing in P.  Each layer is read as quantize_layer reads
    V, its errors naming w; NonFiniteInputError also when a row's mass is not
    finite or its scale underflows.
    """
    mags = [np.abs(_layer_arrays(w=W)[0]) for W in layers]
    scaled = np.concatenate([np.empty(0)] + [l1_masses(m, "w") / max_abs_scales(m, bits.M) for m in mags])
    if not scaled.size:
        raise ValueError("need at least one channel")
    return [
        (int(P), np.count_nonzero(scaled <= float(a2q_limit(P, bits.N, bits.act_signed))) / scaled.size)
        for P in p_range
    ]


def load_checkpoint(path):
    """Read a checkpoint; returns ("quantized", ToyNetwork) or ("float", one (C, K) array per layer).

    Each layer's channels stack into arrays, so a layer with none or with ragged ones is a ValueError.
    Scalars are read as stored: M, N and P must be JSON integers, act_signed a JSON bool and act_exp a JSON number.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError("checkpoint must be a JSON object")
    kind = payload.get("kind")
    if kind == "quantized":
        layers = []
        for entry in payload["layers"]:
            b = entry["bits"]
            bw = BitWidths(M=b["M"], N=b["N"], P=b["P"], act_signed=b["act_signed"])
            V, t, d = ([c[name] for c in entry["channels"]] for name in "vtd")
            layers.append(QuantLinear(V=V, t=t, d=d, bits=bw, bias=entry["bias"], act_exp=entry["act_exp"]))
            l1_masses(np.abs(layers[-1].V), "v")  # the quantizer divides each row by its mass
        return "quantized", ToyNetwork(layers=layers, variant=Variant(payload["variant"]))
    if kind == "float":
        return "float", [np.stack([finite_vector(c["w"], "w") for c in e["channels"]]) for e in payload["layers"]]
    raise ValueError(f"unrecognized checkpoint kind: {kind!r}")
