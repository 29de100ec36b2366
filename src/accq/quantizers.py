"""Layer-batched weight quantizers with per-channel l1 accumulator guarantees.

The constrained quantizers reparameterize each output channel as a direction v
with a separate norm g = 2^t and scale s = 2^d.  The real-valued weights are

    w = (v~ / ||v~||_1) * min(g, T)

where v~ is v itself (A2Q) or v minus its mean (A2Q+, zero-centered) and T is
the scale times the applicable l1 code budget.  Integer codes are produced by
rounding w/s toward zero, which can only shrink magnitudes, so the pre-round l1
certificate survives rounding.  The zero-sum structure of the centered variant
is what buys its wider budget.

All channels of a layer share K and bit widths, so the work is done per layer:
quantize_layer takes the directions as a (C, K) array and t, d as (C,) arrays,
and returns (C, K) codes plus a LayerTape whose backward passes return
(dV, dt, dd) arrays.  forward_weights and WeightTape are its C = 1 view for
callers that hold a single ChannelWeights.  Row reductions use sum(axis=1) and
np.vecdot, which equal the per-row sum() and np.dot bit for bit, and 2^t, 2^d
use Python's float pow per row (np.exp2 differs in the last bit), so a layer's
row i is exactly what channel i gives alone.

Certificates on integer codes are checked exactly (Fraction vs. int), never in
floats.

Gradients: rounding uses a straight-through estimate (unit slope), weights pass
through the clip unclipped, and each elementwise code contributes the usual
scale-error term (q - w/s) to the scale exponent.  At the min(g, T) boundary the
gradient goes to the g side (min treated as left-continuous).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import BitWidths, a2q_limit, a2q_plus_limit, int_range
from .errors import NonFiniteInputError

LN2 = math.log(2.0)

# zero-centering a single weight would zero it out; such channels fall back
K_MIN_CENTER = 2


class Variant(enum.Enum):
    STANDARD = "standard"
    A2Q = "a2q"
    A2Q_PLUS = "a2q+"


@dataclass
class ChannelWeights:
    """One output channel in direction/norm/scale form (g = 2^t, s = 2^d)."""

    v: np.ndarray
    t: float
    d: float

    def __post_init__(self) -> None:
        self.v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if self.v.ndim != 1 or self.v.size < 1:
            raise ValueError("v must be a nonempty 1-d vector")
        if not np.isfinite(self.v).all():
            raise NonFiniteInputError("v must be finite")
        self.t = float(self.t)
        self.d = float(self.d)
        if not (math.isfinite(self.t) and math.isfinite(self.d)):
            raise NonFiniteInputError("t and d must be finite")

    @property
    def K(self) -> int:
        return self.v.size

    @property
    def g(self) -> float:
        return 2.0 ** self.t

    @property
    def s(self) -> float:
        return 2.0 ** self.d

    @classmethod
    def from_norm_scale(cls, v, g: float, s: float) -> "ChannelWeights":
        if not (g > 0.0 and s > 0.0):
            raise ValueError("g and s must be positive; use exponents directly for sentinels")
        return cls(v=v, t=math.log2(g), d=math.log2(s))


@dataclass
class QuantResult:
    """Outcome of quantizing one channel.

    bound is the integer-domain l1 budget (the active T divided by s) and
    bound_ok the exact rational certificate ||q||_1 <= bound.  For the STANDARD
    variant the budget is informational only; nothing enforces it.
    """

    q: np.ndarray
    qw: np.ndarray
    s: float
    l1_codes: int
    bound: Fraction
    bound_ok: bool
    variant: Variant
    fell_back: bool = False


@dataclass
class LayerResult:
    """Outcome of quantizing a layer; row i of every array is channel i.

    q, qw are (C, K) and s is (C,).  l1_codes and bound_ok hold one Python int
    and one bool per row: the certificate l1 <= bound against the shared budget
    is checked in exact integers.
    """

    q: np.ndarray
    qw: np.ndarray
    s: np.ndarray
    l1_codes: list[int]
    bound: Fraction
    bound_ok: list[bool]
    variant: Variant
    fell_back: bool = False


@dataclass
class LayerTape:
    """Saved forward state for manual backprop through a layer of channels.

    backward() differentiates the quantized output under the clipped
    straight-through convention: rounding has unit slope inside the code
    range, while saturated weights block the path into v and t and feel only
    the scale through their pinned code.  backward_smooth() differentiates the
    pre-round weights w, the reference for finite-difference checks.  Both take
    a (C, K) upstream gradient and return (dV (C, K), dt (C,), dd (C,)).

    w = u * G is the pre-round weights for every variant: STANDARD carries
    u = V and G = 1, and a degenerate row (all zero after centering) carries
    u = 0 and G = 0, which zero every gradient of it.
    """

    variant: Variant
    centered: bool
    degenerate: np.ndarray
    c: np.ndarray | None
    n1: np.ndarray
    u: np.ndarray
    g: np.ndarray
    s: np.ndarray
    T: np.ndarray
    G: np.ndarray
    gate_on_g: np.ndarray
    w: np.ndarray
    pre: np.ndarray
    q: np.ndarray
    in_range: np.ndarray

    @property
    def K(self) -> int:
        return self.u.shape[1]

    def _through_reparam(self, dw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradient of w = (c/||c||_1) * min(g, T) w.r.t. V, t, d."""
        dG = np.vecdot(dw, self.u)
        du = dw * self.G[:, None]
        dc = (du - np.sign(self.c) * np.vecdot(du, self.u)[:, None]) / self.n1[:, None]
        dv = dc - (dc.sum(axis=1) / self.K)[:, None] if self.centered else dc
        # G is g on the gate and T = s * budget off it, and dT/dd = T ln 2
        d_exp = dG * self.G * LN2
        return dv, np.where(self.gate_on_g, d_exp, 0.0), np.where(self.gate_on_g, 0.0, d_exp)

    def backward_smooth(self, d_w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        d_w = np.asarray(d_w, dtype=float)
        if self.variant is Variant.STANDARD:
            zeros = np.zeros(len(d_w))
            return d_w.copy(), zeros, zeros.copy()
        return self._through_reparam(d_w)

    def backward(self, d_qw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        d_qw = np.asarray(d_qw, dtype=float)
        gated = d_qw * self.in_range
        if self.variant is Variant.STANDARD:
            dv, dt, dd = gated, np.zeros(len(d_qw)), np.zeros(len(d_qw))
        else:
            dv, dt, dd = self._through_reparam(gated)
        # d(s*q)/ds: rounding residual q - w/s in range, the saturated code
        # outside, then chain s = 2^d
        resid = np.where(self.in_range, self.q - self.pre, self.q)
        return dv, dt, dd + np.vecdot(d_qw, resid) * self.s * LN2


class WeightTape:
    """One channel's tape: the C = 1 view of a LayerTape.

    Every per-row field of the layer tape reads as its only row (tape.u is a
    (K,) vector, tape.g a scalar), and the backward passes take and return
    one channel's gradients.
    """

    def __init__(self, layer: LayerTape) -> None:
        self.layer = layer

    def __getattr__(self, name: str):
        value = getattr(self.layer, name)
        return value[0] if isinstance(value, np.ndarray) else value

    def backward_smooth(self, d_w) -> tuple[np.ndarray, float, float]:
        dv, dt, dd = self.layer.backward_smooth(np.asarray(d_w, dtype=float)[None])
        return dv[0], float(dt[0]), float(dd[0])

    def backward(self, d_qw) -> tuple[np.ndarray, float, float]:
        dv, dt, dd = self.layer.backward(np.asarray(d_qw, dtype=float)[None])
        return dv[0], float(dt[0]), float(dd[0])


def round_to_zero(x) -> np.ndarray:
    """Round toward zero (truncate): magnitudes never grow, signs never flip."""
    return np.trunc(np.asarray(x, dtype=float))


@functools.lru_cache(maxsize=1024)
def channel_budget(K: int, bits: BitWidths, variant: Variant) -> tuple[Variant, Fraction]:
    """The variant that actually runs on a length-K channel and its exact l1 code budget.

    A2Q+ channels shorter than K_MIN_CENTER fall back to A2Q, since centering
    would zero them out.  STANDARD gets the A2Q budget, for information only.
    Cached: one-row calls pay the Fraction construction otherwise, and the
    result (an enum member and an immutable Fraction) is safe to share.
    """
    if variant is Variant.A2Q_PLUS and K >= K_MIN_CENTER:
        return variant, a2q_plus_limit(bits.P, bits.N)
    active = Variant.A2Q if variant is Variant.A2Q_PLUS else variant
    return active, a2q_limit(bits.P, bits.N, bits.act_signed)


def _shrink_rows(q: np.ndarray, rows: list[int], cap: int) -> np.ndarray:
    """Scale the listed rows' code magnitudes by cap / l1, in exact integers, flooring.

    Only reachable when the budget is wider than float's exact integers, where
    round-off in T (the budget itself rounds up to a float) and in the l1
    normalization can leave a row a few codes over its exact budget.
    """
    q = q.copy()
    for i in rows:
        row = q[i].tolist()
        total = sum(abs(x) for x in row)
        q[i] = [abs(x) * cap // total * (1 if x > 0 else -1) for x in row]
    return q


def quantize_layer(
    V: np.ndarray, t: np.ndarray, d: np.ndarray, bits: BitWidths, variant: Variant
) -> tuple[LayerResult, LayerTape]:
    """Quantize a (C, K) layer of channels and return the backprop tape alongside.

    Row i uses direction V[i], norm 2^t[i] and scale 2^d[i]; every row shares
    K, the bit widths and so one budget Fraction.  Raises OverflowError when a
    norm or scale exponent leaves float range, a scale that underflows to 0
    (which weights are divided by) included.
    """
    C, K = V.shape
    lo, hi = int_range(bits.M, signed=True)
    active, limit = channel_budget(K, bits, variant)
    center = active is Variant.A2Q_PLUS
    # 2^t, 2^d and T = s * budget per row in Python floats: np.exp2 differs
    # from Python's pow in the last bit, Python's pow raises OverflowError
    # where numpy returns inf, and an overflowing T stays a silent inf
    s = [2.0 ** e for e in d.tolist()]
    if 0.0 in s:
        raise OverflowError("scale 2^d underflows to 0")
    budget = float(limit)
    g, s, T = np.array([[2.0 ** e for e in t.tolist()], s, [x * budget for x in s]])
    s_col = s[:, None]

    if variant is Variant.STANDARD:
        c = None
        n1 = np.zeros(C)
        degenerate = np.zeros(C, dtype=bool)
        u, G, T, gate_on_g = V, np.ones(C), np.full(C, math.inf), np.ones(C, dtype=bool)
    else:
        if center:
            # sum / K is mean() bit for bit, minus np.mean's per-call overhead
            c = V - V.sum(axis=1, keepdims=True) / float(K)
            # the leftover sum scales with ||v||, not ||c||, and near-equal entries
            # cancel badly; one refinement pass makes sum(c) eps-small relative to c
            c = c - c.sum(axis=1, keepdims=True) / float(K)
        else:
            c = V
        n1 = np.abs(c).sum(axis=1)
        gate_on_g = g <= T
        G = np.minimum(g, T)
        degenerate = np.zeros(C, dtype=bool)
        if np.count_nonzero(n1) < C:
            # an all-zero row (after centering) quantizes to zero codes
            degenerate = n1 == 0.0
            n1 = np.where(degenerate, 1.0, n1)
            G = np.where(degenerate, 0.0, G)
        u = c / n1[:, None]
    w = u * G[:, None]
    pre = w / s_col
    # STANDARD rounds to nearest; the budgeted variants round toward zero
    raw = np.rint(pre) if variant is Variant.STANDARD else np.trunc(pre)
    clipped = raw.clip(lo, hi)
    in_range = clipped == raw
    q = clipped.astype(np.int64)
    qf = q.astype(float)
    qw = s_col * qf
    if variant is not Variant.STANDARD:
        # w/s can round up across an integer edge, leaving |s*q| an ulp above |w|;
        # pull such codes one step toward zero so domination holds in float too
        over = np.abs(qw) > np.abs(w)
        if np.count_nonzero(over):
            q = np.where(over, q - np.sign(q), q)
            qf = q.astype(float)
            qw = s_col * qf
    l1 = np.abs(q).sum(axis=1).tolist()
    # the exact certificate: l1 <= limit in integers, i.e. l1 <= floor(limit)
    cap = limit.numerator // limit.denominator
    if max(l1) > cap and variant is not Variant.STANDARD:
        q = _shrink_rows(q, [i for i, x in enumerate(l1) if x > cap], cap)
        qf = q.astype(float)
        qw = s_col * qf
        l1 = np.abs(q).sum(axis=1).tolist()

    result = LayerResult(
        q=q, qw=qw, s=s, l1_codes=l1, bound=limit,
        bound_ok=[x <= cap for x in l1], variant=active, fell_back=active is not variant,
    )
    tape = LayerTape(
        variant=active, centered=center, degenerate=degenerate, c=c, n1=n1, u=u,
        g=g, s=s, T=T, G=G, gate_on_g=gate_on_g, w=w, pre=pre, q=qf,
        in_range=in_range,
    )
    return result, tape


def forward_weights(
    ch: ChannelWeights, bits: BitWidths, variant: Variant
) -> tuple[QuantResult, WeightTape]:
    """Quantize one channel: quantize_layer on a one-row layer."""
    res, tape = quantize_layer(ch.v[None], np.array([ch.t]), np.array([ch.d]), bits, variant)
    result = QuantResult(
        q=res.q[0], qw=res.qw[0], s=float(res.s[0]), l1_codes=res.l1_codes[0], bound=res.bound,
        bound_ok=res.bound_ok[0], variant=res.variant, fell_back=res.fell_back,
    )
    return result, WeightTape(tape)


def quantize_a2q(ch: ChannelWeights, bits: BitWidths) -> QuantResult:
    """l1-constrained quantizer: w = (v/||v||_1) min(g, T), codes = rtz(w/s)."""
    return forward_weights(ch, bits, Variant.A2Q)[0]


def quantize_a2q_plus(ch: ChannelWeights, bits: BitWidths) -> QuantResult:
    """Zero-centered variant with the wider zero-sum budget.

    Channels shorter than K_MIN_CENTER fall back to the uncentered quantizer
    (flagged on the result), since centering would annihilate them.
    """
    return forward_weights(ch, bits, Variant.A2Q_PLUS)[0]


def pre_round_weights(ch: ChannelWeights, bits: BitWidths, variant: Variant) -> np.ndarray:
    """The constrained real weights w before rounding (for audits and checks)."""
    return forward_weights(ch, bits, variant)[1].w
