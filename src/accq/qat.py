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

Layers that share a fan-in K form one group, and each step quantizes, backprops
through the quantizer and updates each group's stacked channels in one call,
every layer reading its own rows.
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

from .bounds import BitWidths, a2q_limit, int_range
from .epinit import ZERO_EXPONENT, ep_init, init_scale
from .errors import AccumulatorOverflowError, DivergenceError
from .intsim import AccumulatorSpec, certify
from .quantizers import LN2, BitPlan, ChannelWeights, QuantizedLayer, Variant, finite_vector, quantize_layer

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
    d[i] its scale exponent (g = 2^t, s = 2^d).  The float bias vector rides
    along unquantized; it lands after the accumulator, so channel overflow
    audits ignore it.
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

    @classmethod
    def from_channels(cls, channels, bits: BitWidths, **kw) -> "QuantLinear":
        """Stack ChannelWeights of one length into a layer."""
        return cls(
            V=np.stack([ch.v for ch in channels]),
            t=np.array([ch.t for ch in channels]),
            d=np.array([ch.d for ch in channels]),
            bits=bits,
            **kw,
        )

    @property
    def channels(self) -> list[ChannelWeights]:
        """A copy of each row as a ChannelWeights; editing one leaves the layer alone."""
        return [ChannelWeights(v=v, t=t, d=d) for v, t, d in zip(self.V.copy(), self.t.tolist(), self.d.tolist())]

    @functools.cached_property
    def act_range(self) -> tuple[int, int]:
        """Inclusive [lo, hi] of the input activation codes, derived once (bits stay fixed)."""
        return int_range(self.bits.N, self.bits.act_signed)


class FanInGroup(NamedTuple):
    """Layers that share a fan-in K, quantized as one stack of their rows in layer order.

    rows[j] is the slice of the stack that holds layer layers[j]; plan gives
    each run of rows its layer's bit widths.
    """

    layers: tuple[int, ...]
    rows: tuple[slice, ...]
    plan: BitPlan


def _fan_in_groups(layers: list[QuantLinear]) -> list[FanInGroup]:
    by_k: dict[int, list[int]] = {}
    for i, layer in enumerate(layers):
        by_k.setdefault(layer.V.shape[1], []).append(i)
    groups = []
    for idx in by_k.values():
        rows, start = [], 0
        for i in idx:
            rows.append(slice(start, start + len(layers[i].V)))
            start = rows[-1].stop
        plan = tuple((layers[i].bits, len(layers[i].V)) for i in idx)
        groups.append(FanInGroup(layers=tuple(idx), rows=tuple(rows), plan=plan))
    return groups


@dataclass
class ToyNetwork:
    """The layers in order, and their fan-in groups in order of each group's first layer.

    groups is derived once, at construction: a layer's shape and bit widths
    never change.
    """

    layers: list[QuantLinear]
    variant: Variant
    groups: list[FanInGroup] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.groups = _fan_in_groups(self.layers)

    @property
    def topology(self) -> tuple[int, ...]:
        return (self.layers[0].V.shape[1], *(len(layer.V) for layer in self.layers))


def _stack(layers: list[QuantLinear]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.concatenate([layer.V for layer in layers]),
        np.concatenate([layer.t for layer in layers]),
        np.concatenate([layer.d for layer in layers]),
    )


def quantize_network(net: ToyNetwork) -> list[QuantizedLayer]:
    """One quantize_layer record per fan-in group, in net.groups order."""
    return [
        quantize_layer(*_stack([net.layers[i] for i in group.layers]), group.plan, net.variant)
        for group in net.groups
    ]


def _layer_rows(net: ToyNetwork, quants: list[QuantizedLayer]) -> list[tuple[QuantizedLayer, slice]]:
    """Per layer, its group's record and its rows in it."""
    out: list = [None] * len(net.layers)
    for group, quant in zip(net.groups, quants):
        for i, rows in zip(group.layers, group.rows):
            out[i] = (quant, rows)
    return out


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
    dims = config.dataset.dims()
    n_layers = len(dims) - 1
    plans = []
    for i in range(n_layers):
        edge = i == 0 or i == n_layers - 1
        M = EDGE_BITS if edge else config.bits.M
        N = EDGE_BITS if edge else config.bits.N
        plans.append(BitWidths(M=M, N=N, P=config.bits.P, act_signed=False))
    return plans


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
    """Start each channel at its float init row (epinit.ep_init) and wrap it up."""
    layers = []
    for W, bw in zip(init_weights, _layer_bits(config)):
        W = np.asarray(W, dtype=float)
        layers.append(QuantLinear.from_channels([ep_init(row, bw, config.variant) for row in W], bw))
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
    mask = (raw >= lo) & (raw <= hi)
    codes = raw.clip(lo, hi)
    return s * codes, _ActTape(mask=mask, codes=codes, pre=pre, s=s)


def _act_backward(d_xq: np.ndarray, tape: _ActTape) -> tuple[np.ndarray, float]:
    # straight-through inside the clip window; the scale sees the rounding
    # residual in range and the saturated code outside
    dx = d_xq * tape.mask
    d_s = float((d_xq * np.where(tape.mask, tape.codes - tape.pre, tape.codes)).sum())
    return dx, d_s * tape.s * LN2


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

    dV, dt and dd are stacked like the group's rows, with the forward's per-row
    g = 2^t and budget norm T that sgd_step's hinge reads; db and da hold one
    bias and one activation-exponent gradient per layer of the group.
    """

    group: FanInGroup
    dV: np.ndarray
    dt: np.ndarray
    dd: np.ndarray
    g: np.ndarray
    T: np.ndarray
    db: list[np.ndarray]
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
        y = xq @ W.T + layer.bias
        stores.append(_LayerStore(xq=xq, act_tape=act_tape, W=W, quant=quant, rows=rows, y=y))
        h = y if i == last else np.maximum(y, 0.0)
    return h, stores


def backward(
    net: ToyNetwork, stores: list[_LayerStore], d_pred, quantize: bool = True
) -> list[GroupGrads]:
    """Manual backprop matching forward(); returns the parameter grads per fan-in group."""
    n = len(net.layers)
    dW: list = [None] * n
    db: list = [None] * n
    da = [0.0] * n
    d_h = np.asarray(d_pred, dtype=float)
    for i in reversed(range(n)):
        st = stores[i]
        d_y = d_h if i == n - 1 else d_h * (st.y > 0.0)
        dW[i] = d_y.T @ st.xq
        d_xq = d_y @ st.W
        db[i] = d_y.sum(axis=0)
        if quantize:
            d_h, da[i] = _act_backward(d_xq, st.act_tape)
        else:
            d_h = d_xq
    grads = []
    for group in net.groups:
        quant = stores[group.layers[0]].quant
        d_qw = np.concatenate([dW[i] for i in group.layers])
        dV, dt, dd = quant.backward(d_qw) if quantize else quant.backward_smooth(d_qw)
        grads.append(
            GroupGrads(
                group=group, dV=dV, dt=dt, dd=dd, g=quant.g, T=quant.T,
                db=[db[i] for i in group.layers], da=[da[i] for i in group.layers],
            )
        )
    return grads


def sgd_step(net: ToyNetwork, grads: list[GroupGrads], config: TrainConfig) -> bool:
    """Plain SGD update; weight decay touches v only, the hinge steers t and d.

    Returns whether every parameter it updated is still finite.
    """
    lr = config.lr
    wd = config.weight_decay
    lam = config.lambda_reg
    finite = True
    for gg in grads:
        layers = [net.layers[i] for i in gg.group.layers]
        V, t, d = _stack(layers)
        dt, dd = gg.dt, gg.dd
        if lam > 0.0:
            # gradient of the hinge lam * max(g - T, 0) on every channel: zero on a
            # feasible gate (g <= T), so it steers only channels parked above budget
            over = gg.g > gg.T
            dt = np.where(over, dt + lam * gg.g * LN2, dt)
            dd = np.where(over, dd - lam * gg.T * LN2, dd)
        # a diverging step may overflow or meet inf * 0; the return value reports it
        with np.errstate(over="ignore", invalid="ignore"):
            V = V - lr * (gg.dV + wd * V)
            t = t - lr * dt
            d = d - lr * dd
            for layer, rows, db, da in zip(layers, gg.group.rows, gg.db, gg.da):
                layer.V, layer.t, layer.d = V[rows], t[rows], d[rows]
                layer.bias = layer.bias - lr * db
                layer.act_exp -= lr * da
                finite = finite and math.isfinite(layer.act_exp) and bool(np.isfinite(layer.bias).all())
        finite = finite and all(bool(np.isfinite(x).all()) for x in (V, t, d))
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
        loss = mse(pred, yb)
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        d_pred = 2.0 * (pred - yb) / pred.size
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
    default_rng([seed, 1]) stream and slices it into batch_size runs.
    """
    order = np.random.default_rng([config.seed, 1])
    for epoch in range(config.epochs):
        perm = order.permutation(len(data.X_train))
        for start in range(0, len(perm), config.batch_size):
            idx = perm[start : start + config.batch_size]
            yield epoch, data.X_train[idx], data.y_train[idx]


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
                "bits": {
                    "M": layer.bits.M,
                    "N": layer.bits.N,
                    "P": layer.bits.P,
                    "act_signed": layer.bits.act_signed,
                },
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
            chans = [
                ChannelWeights(v=np.asarray(c["v"], dtype=float), t=float(c["t"]), d=float(c["d"]))
                for c in entry["channels"]
            ]
            layers.append(
                QuantLinear.from_channels(
                    chans, bw, bias=np.asarray(entry["bias"], dtype=float), act_exp=float(entry["act_exp"])
                )
            )
        return "quantized", ToyNetwork(layers=layers, variant=Variant(payload["variant"]))
    if kind == "float":
        return "float", [[finite_vector(c["w"], "w") for c in entry["channels"]] for entry in payload["layers"]]
    raise ValueError(f"unrecognized checkpoint kind: {kind!r}")
