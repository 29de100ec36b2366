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
backprops through the quantizer in one call per group, writes the group's
gradients into one stack, and updates and checks the buffer in place in one
pass.  A layer's activation exponent stays its own float.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .bounds import BitWidths, a2q_limit, int_range
from .epinit import ZERO_EXPONENT, ep_init_layer, init_scale
from .errors import AccumulatorOverflowError, DivergenceError, NonFiniteInputError
from .intsim import AccumulatorSpec, certify
from .quantizers import (
    LN2,
    ChannelWeights,
    PlanRows,
    QuantizedLayer,
    Variant,
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
        if self.bits.act_signed:
            raise ValueError("hidden activations are unsigned after ReLU; bits.act_signed must be False")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")


@dataclass(frozen=True)
class SweepRecord:
    """One sweep point.  The CSV form is stable and byte-reproducible.

    The fields are the CSV columns in order, and each field's type parses its
    column back.
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
        return cls(*(parse(part) for parse, part in zip(_COLUMNS.values(), parts)))


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
    exponent, is a plain float the layer keeps.
    """

    V: np.ndarray
    t: np.ndarray
    d: np.ndarray
    bits: BitWidths
    bias: np.ndarray = None  # type: ignore[assignment]
    act_exp: float = 0.0

    def __post_init__(self) -> None:
        if self.bias is None:
            self.bias = np.zeros(len(self.V))
        for name in ("t", "d", "bias"):
            # the group buffer would broadcast a short one over the layer's rows
            if np.shape(getattr(self, name)) != (len(self.V),):
                raise ValueError(f"{name} has shape {np.shape(getattr(self, name))}, its layer {len(self.V)} channels")

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
    group.  rows[j] is the slice of them that holds layer layers[j], whose own
    V, t, d and bias are views of it.  plan_rows holds the group's PlanRows:
    each row's budget and clip limits, derived once from its layers' bit
    widths and the network's variant.  sgd_step updates the views in place
    and checks flat once, so every array keeps its identity for the life of
    the network.
    """

    layers: tuple[int, ...]
    rows: tuple[slice, ...]
    plan_rows: PlanRows
    flat: np.ndarray
    V: np.ndarray
    t: np.ndarray
    d: np.ndarray
    b: np.ndarray


def _fan_in_groups(layers: list[QuantLinear], variant: Variant) -> list[FanInGroup]:
    by_k: dict[int, list[int]] = {}
    for i, layer in enumerate(layers):
        by_k.setdefault(layer.V.shape[1], []).append(i)
    groups = []
    for K, idx in by_k.items():
        members = [layers[i] for i in idx]
        C = sum(len(layer.V) for layer in members)
        flat = np.empty(C * (K + 3))
        V = flat[: C * K].reshape(C, K)
        t, d, b = flat[C * K :].reshape(3, C)
        rows, start = [], 0
        for layer in members:
            rows.append(slice(start, start + len(layer.V)))
            start = rows[-1].stop
            for name, whole in zip(("V", "t", "d", "bias"), (V, t, d, b)):
                whole[rows[-1]] = getattr(layer, name)
                setattr(layer, name, whole[rows[-1]])
        plan = tuple((layer.bits, len(layer.V)) for layer in members)
        groups.append(
            FanInGroup(
                layers=tuple(idx), rows=tuple(rows), plan_rows=_plan_rows(K, plan, variant),
                flat=flat, V=V, t=t, d=d, b=b,
            )
        )
    return groups


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
        self.groups = _fan_in_groups(self.layers, self.variant)
        self.homes = [None] * len(self.layers)  # type: ignore[list-item]
        for gi, group in enumerate(self.groups):
            for i, rows in zip(group.layers, group.rows):
                self.homes[i] = (gi, rows)

    @property
    def topology(self) -> tuple[int, ...]:
        return (self.layers[0].V.shape[1], *(len(layer.V) for layer in self.layers))


def quantize_network(net: ToyNetwork) -> list[QuantizedLayer]:
    """One quantize_layer record per fan-in group, in net.groups order, from the group's derived plan rows."""
    return [_quantize_rows(group.V, group.t, group.d, group.plan_rows) for group in net.groups]


def _layer_rows(net: ToyNetwork, quants: list[QuantizedLayer]) -> list[tuple[QuantizedLayer, slice]]:
    """Per layer, its group's record and its rows in it."""
    return [(quants[gi], rows) for gi, rows in net.homes]


@dataclass(frozen=True)
class DataBundle:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    init_weights: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class FloatRun:
    final_loss: float
    weights: tuple[np.ndarray, ...]


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
    teacher = [
        rng.normal(size=(dims[i + 1], dims[i])) * math.sqrt(2.0 / dims[i])
        for i in range(len(dims) - 1)
    ]

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
    init = tuple(
        rng.normal(size=(dims[i + 1], dims[i])) * math.sqrt(2.0 / dims[i])
        for i in range(len(dims) - 1)
    )
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
    codes = np.minimum(np.maximum(raw, lo), hi)
    mask = codes == raw
    return s * codes, _ActTape(mask=mask, codes=codes, pre=pre, s=s)


def _act_backward(d_xq: np.ndarray, tape: _ActTape, input_grad: bool) -> tuple[np.ndarray | None, float]:
    """(gradient into the layer's input, or None without input_grad; gradient of act_exp)."""
    # straight-through inside the clip window; the scale sees the rounding
    # residual in range and the saturated code outside
    dx = d_xq * tape.mask if input_grad else None
    resid = np.subtract(tape.codes, tape.pre, where=tape.mask, out=tape.codes.copy())
    resid *= d_xq
    return dx, float(resid.sum()) * tape.s * LN2


@dataclass
class _LayerStore:
    """One layer's forward state; quant is its fan-in group's record and rows its rows there."""

    xq: np.ndarray
    act_tape: _ActTape | None
    W: np.ndarray
    quant: QuantizedLayer
    rows: slice
    y: np.ndarray


class GroupGrads(NamedTuple):
    """One fan-in group's parameter gradients.

    dV, dt, dd and the bias gradient db are stacked like the group's rows,
    with the forward's per-row g = 2^t and budget norm T that sgd_step's hinge
    reads; da holds one activation-exponent gradient per layer of the group.
    """

    group: FanInGroup
    dV: np.ndarray
    dt: np.ndarray
    dd: np.ndarray
    g: np.ndarray
    T: np.ndarray
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
    quants = _layer_rows(net, quantize_network(net))
    for i, (layer, (quant, rows)) in enumerate(zip(net.layers, quants)):
        if quantize:
            xq, act_tape = _act_forward(h, layer)
        else:
            xq, act_tape = h, None
        W = (quant.qw if quantize else quant.w)[rows]
        y = xq @ W.T
        y += layer.bias
        stores.append(_LayerStore(xq=xq, act_tape=act_tape, W=W, quant=quant, rows=rows, y=y))
        h = y if i == last else np.maximum(y, 0.0)
    return h, stores


def backward(
    net: ToyNetwork, stores: list[_LayerStore], d_pred, quantize: bool = True
) -> list[GroupGrads]:
    """Manual backprop matching forward(); returns the parameter grads per fan-in group.

    Each layer writes its weight and bias gradients straight into its rows of
    its group's stacks.  Nothing reads the first layer's input gradient, so it
    is not formed.
    """
    n = len(net.layers)
    d_qw = [np.empty(group.V.shape) for group in net.groups]
    db = [np.empty(len(group.b)) for group in net.groups]
    da = [0.0] * n
    d_h = np.asarray(d_pred, dtype=float)
    for i in reversed(range(n)):
        st = stores[i]
        gi, rows = net.homes[i]
        d_y = d_h if i == n - 1 else d_h * (st.y > 0.0)
        np.matmul(d_y.T, st.xq, out=d_qw[gi][rows])
        d_xq = d_y @ st.W
        d_y.sum(axis=0, out=db[gi][rows])
        if quantize:
            d_h, da[i] = _act_backward(d_xq, st.act_tape, input_grad=i > 0)
        else:
            d_h = d_xq
    grads = []
    for group, dW, dbias in zip(net.groups, d_qw, db):
        quant = stores[group.layers[0]].quant
        dV, dt, dd = quant.backward(dW) if quantize else quant.backward_smooth(dW)
        grads.append(
            GroupGrads(
                group=group, dV=dV, dt=dt, dd=dd, g=quant.g, T=quant.T,
                db=dbias, da=[da[i] for i in group.layers],
            )
        )
    return grads


def sgd_step(net: ToyNetwork, grads: list[GroupGrads], config: TrainConfig) -> bool:
    """Plain SGD update; weight decay touches v only, the hinge steers t and d.

    Updates each group's V, t, d and bias in place, so every layer's row
    views see the step, and returns whether every parameter it updated is
    still finite: one check of each group's buffer, one per act_exp.
    """
    lr = config.lr
    wd = config.weight_decay
    lam = config.lambda_reg
    finite = True
    # a diverging step may overflow or meet inf * 0; the return value reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for gg in grads:
            group = gg.group
            V, t, d, b = group.V, group.t, group.d, group.b
            dt, dd = gg.dt, gg.dd
            if lam > 0.0:
                # gradient of the hinge lam * max(g - T, 0) on every channel: zero on a
                # feasible gate (g <= T), so it steers only channels parked above budget
                over = gg.g > gg.T
                if over.any():
                    dt = np.where(over, dt + lam * gg.g * LN2, dt)
                    dd = np.where(over, dd - lam * gg.T * LN2, dd)
            V -= lr * (gg.dV + wd * V)
            t -= lr * dt
            d -= lr * dd
            b -= lr * gg.db
            for i, da in zip(group.layers, gg.da):
                layer = net.layers[i]
                layer.act_exp -= lr * da
                finite = finite and math.isfinite(layer.act_exp)
            finite = finite and bool(np.isfinite(group.flat).all())
    return finite


def mse(pred, target) -> float:
    diff = np.asarray(pred, dtype=float) - np.asarray(target, dtype=float)
    sq = diff * diff
    # sum / size is np.mean bit for bit, minus its per-call overhead
    return float(sq.sum() / sq.size)


def fit(config: TrainConfig) -> tuple[ToyNetwork, SweepRecord]:
    """Train from scratch and return the network with its audited summary row.

    After the last step the integer network is checked against its accumulator
    budget (exact worst case per channel, exhaustive where the input space is
    small enough); a violation raises instead of returning a bad row.
    """
    data = make_data(config)
    net = build_network(config, data.init_weights)
    calibrate(net, data.X_train[: min(256, len(data.X_train))])
    for epoch, xb, yb in _batches(config, data):
        pred, stores = _quantized_forward(net, xb, f"epoch {epoch}")
        # mse and its gradient from one difference, in mse's operations
        diff = pred - yb
        loss = float((diff * diff).sum() / diff.size)
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        d_pred = 2.0 * diff / diff.size
        grads = backward(net, stores, d_pred, quantize=True)
        if not sgd_step(net, grads, config):
            # the next loss cannot be finite; stop before numpy casts NaNs
            raise DivergenceError(f"non-finite loss at epoch {epoch}: an SGD step made a parameter non-finite")
    final_loss = mse(_quantized_forward(net, data.X_test, "the final evaluation")[0], data.y_test)
    if not math.isfinite(final_loss):
        raise DivergenceError("non-finite final loss")
    quants = certify_accumulators(net)
    record = SweepRecord(
        variant=config.variant.value,
        M=config.bits.M,
        N=config.bits.N,
        P=config.bits.P,
        seed=config.seed,
        final_loss=final_loss,
        sparsity=measure_sparsity(quants),
        min_slack=min_bound_slack(quants),
    )
    return net, record


def _batches(config: TrainConfig, data: DataBundle):
    """Yield (epoch, x, y) per minibatch: the one batch order fit and float_baseline share.

    Each epoch draws a permutation of the training set from the
    default_rng([seed, 1]) stream, gathers the set in that order once and
    yields batch_size runs of it as views: batch j is X_train[perm[j*B:(j+1)*B]].
    """
    order = np.random.default_rng([config.seed, 1])
    for epoch in range(config.epochs):
        perm = order.permutation(len(data.X_train))
        X, y = data.X_train[perm], data.y_train[perm]
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


def float_baseline(config: TrainConfig) -> FloatRun:
    """The unconstrained float reference: same data, init, batch order, and SGD."""
    data = make_data(config)
    W = [w.copy() for w in data.init_weights]
    b = [np.zeros(w.shape[0]) for w in W]
    n_layers = len(W)

    def run(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        xs, ys = [], []
        h = x
        for i in range(n_layers):
            xs.append(h)
            y = h @ W[i].T + b[i]
            ys.append(y)
            h = y if i == n_layers - 1 else np.maximum(y, 0.0)
        return h, xs, ys

    for epoch, xb, yb in _batches(config, data):
        pred, xs, ys = run(xb)
        loss = mse(pred, yb)
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite float baseline loss at epoch {epoch}")
        d_h = 2.0 * (pred - yb) / pred.size
        for i in reversed(range(n_layers)):
            d_y = d_h if i == n_layers - 1 else d_h * (ys[i] > 0.0)
            dWi = d_y.T @ xs[i]
            dbi = d_y.sum(axis=0)
            d_h = d_y @ W[i]
            W[i] = W[i] - config.lr * (dWi + config.weight_decay * W[i])
            b[i] = b[i] - config.lr * dbi
    final_loss = mse(run(data.X_test)[0], data.y_test)
    return FloatRun(final_loss=final_loss, weights=tuple(W))


def measure_sparsity(quants: list[QuantizedLayer]) -> float:
    """Fraction of integer weight codes equal to zero across the quantized records."""
    zeros = sum(int(np.count_nonzero(quant.q == 0)) for quant in quants)
    return zeros / sum(quant.q.size for quant in quants)


def min_bound_slack(quants: list[QuantizedLayer]) -> Fraction:
    """Tightest channel's budget minus its integer l1 mass, as an exact rational."""
    return min(b - l1 for quant in quants for b, l1 in zip(quant.bound, quant.l1_codes))


def certify_accumulators(net: ToyNetwork) -> list[QuantizedLayer]:
    """Exact post-training overflow audit; raises AccumulatorOverflowError on any hazard.

    Quantizes the network once and makes one intsim.certify call per layer, on
    that layer's rows: every channel gets the closed-form worst case, and
    channels small enough for the enumeration budget also get the exhaustive
    sweep.  Returns the group records it certified.
    """
    quants = quantize_network(net)
    for li, (layer, (quant, rows)) in enumerate(zip(net.layers, _layer_rows(net, quants))):
        bits = layer.bits
        certs = certify(quant.q[rows], bits.N, bits.act_signed, AccumulatorSpec(P=bits.P))
        for ci, cert in enumerate(certs):
            if cert.overflowed:
                raise AccumulatorOverflowError(
                    f"layer {li} channel {ci} overflows P={bits.P}: worst-case dot range "
                    f"[{cert.true_min}, {cert.true_max}]"
                )
    return quants


def channel_cdf(channels, bits: BitWidths, p_range=range(2, 33)) -> list[tuple[int, float]]:
    """Feasibility curve for float channels under the max-abs init scale.

    For each P, the fraction of channels whose scaled l1 mass fits the
    uncentered budget at (P, N).  Nondecreasing in P.
    """
    rows = [np.atleast_1d(np.asarray(w, dtype=float)) for w in channels]
    if not rows:
        raise ValueError("need at least one channel")
    masses = [float(np.abs(w).sum()) / init_scale(w, bits.M) for w in rows]
    out = []
    for P in p_range:
        limit = float(a2q_limit(P, bits.N, bits.act_signed))
        out.append((int(P), sum(1 for m in masses if m <= limit) / len(masses)))
    return out


def save_checkpoint(path, net: ToyNetwork) -> None:
    """Quantized-run checkpoint: per layer its bit plan, activation exponent, channels."""
    payload = {
        "kind": "quantized",
        "variant": net.variant.value,
        "layers": [
            {
                "bits": asdict(layer.bits),
                "act_exp": layer.act_exp,
                "bias": layer.bias.tolist(),
                "channels": [
                    {"v": v, "t": t, "d": d}
                    for v, t, d in zip(layer.V.tolist(), layer.t.tolist(), layer.d.tolist())
                ],
            }
            for layer in net.layers
        ],
    }
    Path(path).write_text(json.dumps(payload))


def save_float_checkpoint(path, weights) -> None:
    """Float-run checkpoint: per layer a list of channels holding raw weight rows."""
    payload = {
        "kind": "float",
        "layers": [
            {"channels": [{"w": np.asarray(row, dtype=float).tolist()} for row in W]}
            for W in weights
        ],
    }
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path):
    """Read a checkpoint; returns ("quantized", ToyNetwork) or ("float", weight rows)."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError("checkpoint must be a JSON object")
    kind = payload.get("kind")
    if kind == "quantized":
        layers = []
        for entry in payload["layers"]:
            b = entry["bits"]
            bw = BitWidths(M=int(b["M"]), N=int(b["N"]), P=int(b["P"]), act_signed=bool(b["act_signed"]))
            # np.stack rejects a layer with no channels or with ragged ones
            V = np.stack([finite_vector(c["v"], "v") for c in entry["channels"]])
            t, d = (finite_vector([c[name] for c in entry["channels"]], name) for name in "td")
            bias = finite_vector(entry["bias"], "bias")
            act_exp = float(entry["act_exp"])
            if not math.isfinite(act_exp):
                raise NonFiniteInputError("act_exp must be finite")
            layers.append(QuantLinear(V=V, t=t, d=d, bits=bw, bias=bias, act_exp=act_exp))
        return "quantized", ToyNetwork(layers=layers, variant=Variant(payload["variant"]))
    if kind == "float":
        return "float", [[finite_vector(c["w"], "w") for c in entry["channels"]] for entry in payload["layers"]]
    raise ValueError(f"unrecognized checkpoint kind: {kind!r}")
