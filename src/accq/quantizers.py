"""Per-channel weight quantizers with l1 accumulator guarantees.

The constrained quantizers reparameterize each output channel as a direction v
with a separate norm g = 2^t and scale s = 2^d.  The real-valued weights are

    w = (v~ / ||v~||_1) * min(g, T)

where v~ is v itself (A2Q) or v minus its mean (A2Q+, zero-centered) and T is
the scale times the applicable l1 code budget.  Integer codes are produced by
rounding w/s toward zero, which can only shrink magnitudes, so the pre-round l1
certificate survives rounding.  The zero-sum structure of the centered variant
is what buys its wider budget.

Certificates on integer codes are checked exactly (Fraction vs. int), never in
floats.

Gradients: rounding uses a straight-through estimate (unit slope), weights pass
through the clip unclipped, and each elementwise code contributes the usual
scale-error term (q - w/s) to the scale exponent.  At the min(g, T) boundary the
gradient goes to the g side (min treated as left-continuous).
"""

from __future__ import annotations

import enum
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


@dataclass(frozen=True)
class ActQuantSpec:
    """Scale/zero-point spec for a uniform affine quantizer."""

    bits: int
    signed: bool
    scale: float
    zero_point: int = 0

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise NonFiniteInputError(f"scale must be positive and finite, got {self.scale!r}")


@dataclass(frozen=True)
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
class WeightTape:
    """Saved forward state for manual backprop through one channel.

    backward() differentiates the quantized output under the clipped
    straight-through convention: rounding has unit slope inside the code
    range, while saturated weights block the path into v and t and feel only
    the scale through their pinned code.  backward_smooth() differentiates the
    pre-round weights w, the reference for finite-difference checks.

    u * G is w for every variant: STANDARD carries u = v and G = 1, and a
    degenerate channel carries u = 0.
    """

    variant: Variant
    centered: bool
    degenerate: bool
    c: np.ndarray | None
    n1: float
    u: np.ndarray | None
    g: float
    s: float
    T: float
    G: float
    gate_on_g: bool
    pre: np.ndarray | None
    q: np.ndarray | None
    K: int
    in_range: np.ndarray | None = None

    def _zeros(self) -> tuple[np.ndarray, float, float]:
        return np.zeros(self.K), 0.0, 0.0

    def _through_reparam(self, dw: np.ndarray) -> tuple[np.ndarray, float, float]:
        """Gradient of w = (c/||c||_1) * min(g, T) w.r.t. v, t, d."""
        dG = float(np.dot(dw, self.u))
        du = dw * self.G
        dc = (du - np.sign(self.c) * float(np.dot(du, self.u))) / self.n1
        dv = dc - dc.sum() / self.K if self.centered else dc
        if self.gate_on_g:
            dt = dG * self.g * LN2
            dd = 0.0
        else:
            dt = 0.0
            dd = dG * self.T * LN2  # T = s * budget, so dT/dd = T ln 2
        return dv, dt, dd

    def backward_smooth(self, d_w: np.ndarray) -> tuple[np.ndarray, float, float]:
        if self.degenerate:
            return self._zeros()
        d_w = np.asarray(d_w, dtype=float)
        if self.variant is Variant.STANDARD:
            return d_w.copy(), 0.0, 0.0
        return self._through_reparam(d_w)

    def backward(self, d_qw: np.ndarray) -> tuple[np.ndarray, float, float]:
        if self.degenerate:
            return self._zeros()
        d_qw = np.asarray(d_qw, dtype=float)
        gated = d_qw * self.in_range
        if self.variant is Variant.STANDARD:
            dv, dt, dd = gated.copy(), 0.0, 0.0
        else:
            dv, dt, dd = self._through_reparam(gated)
        # d(s*q)/ds: rounding residual q - w/s in range, the saturated code
        # outside, then chain s = 2^d
        resid = np.where(self.in_range, self.q - self.pre, self.q)
        dd += float(np.dot(d_qw, resid)) * self.s * LN2
        return dv, dt, dd


def round_to_zero(x) -> np.ndarray:
    """Round toward zero (truncate): magnitudes never grow, signs never flip."""
    return np.trunc(np.asarray(x, dtype=float))


def quantize_standard(w, spec: ActQuantSpec) -> tuple[np.ndarray, np.ndarray]:
    """Uniform affine quantizer: s * (clip(round(w/s) + z) - z).

    Rounds half to even.  Returns (integer codes, dequantized values); the codes
    are the clipped register values including the zero point.
    """
    w_arr = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w_arr)):
        raise NonFiniteInputError("w must be finite")
    lo, hi = int_range(spec.bits, spec.signed)
    q = np.clip(np.rint(w_arr / spec.scale) + spec.zero_point, lo, hi).astype(np.int64)
    qw = spec.scale * (q - spec.zero_point).astype(float)
    return q, qw


def channel_budget(K: int, bits: BitWidths, variant: Variant) -> tuple[Variant, Fraction]:
    """The variant that actually runs on a length-K channel and its exact l1 code budget.

    A2Q+ channels shorter than K_MIN_CENTER fall back to A2Q, since centering
    would zero them out.  STANDARD gets the A2Q budget, for information only.
    """
    if variant is Variant.A2Q_PLUS and K >= K_MIN_CENTER:
        return variant, a2q_plus_limit(bits.P, bits.N)
    active = Variant.A2Q if variant is Variant.A2Q_PLUS else variant
    return active, a2q_limit(bits.P, bits.N, bits.act_signed)


def _degenerate(limit: Fraction, s: float, variant: Variant, fell_back: bool, K: int):
    result = QuantResult(
        q=np.zeros(K, dtype=np.int64),
        qw=np.zeros(K),
        s=s,
        l1_codes=0,
        bound=limit,
        bound_ok=True,
        variant=variant,
        fell_back=fell_back,
    )
    tape = WeightTape(
        variant=variant, centered=False, degenerate=True, c=None, n1=0.0, u=np.zeros(K),
        g=0.0, s=s, T=0.0, G=0.0, gate_on_g=True, pre=None, q=None, K=K,
    )
    return result, tape


def forward_weights(
    ch: ChannelWeights, bits: BitWidths, variant: Variant
) -> tuple[QuantResult, WeightTape]:
    """Quantize one channel and return the backprop tape alongside the result."""
    s = ch.s
    lo, hi = int_range(bits.M, signed=True)
    active, limit = channel_budget(ch.K, bits, variant)

    if variant is Variant.STANDARD:
        pre = ch.v / s
        raw = np.rint(pre)
        in_range = (raw >= lo) & (raw <= hi)
        q = np.clip(raw, lo, hi).astype(np.int64)
        qw = s * q.astype(float)
        l1 = int(np.abs(q).sum())
        result = QuantResult(q, qw, s, l1, limit, l1 <= limit, variant)
        tape = WeightTape(
            variant=variant, centered=False, degenerate=False, c=None, n1=0.0, u=ch.v,
            g=ch.g, s=s, T=math.inf, G=1.0, gate_on_g=True, pre=pre, q=q.astype(float),
            K=ch.K, in_range=in_range,
        )
        return result, tape

    center = active is Variant.A2Q_PLUS
    fell_back = active is not variant

    if center:
        # sum / K is mean() bit for bit, minus np.mean's per-call overhead
        c = ch.v - ch.v.sum() / ch.K
        # the leftover sum scales with ||v||, not ||c||, and near-equal entries
        # cancel badly; one refinement pass makes sum(c) eps-small relative to c
        c = c - c.sum() / ch.K
    else:
        c = ch.v
    n1 = float(np.abs(c).sum())
    if n1 == 0.0:
        return _degenerate(limit, s, active, fell_back, ch.K)

    g = ch.g
    T = s * float(limit)
    gate_on_g = g <= T
    G = g if gate_on_g else T
    u = c / n1
    w = u * G
    pre = w / s
    raw = round_to_zero(pre)
    in_range = (raw >= lo) & (raw <= hi)
    q = np.clip(raw, lo, hi).astype(np.int64)
    qw = s * q.astype(float)
    # w/s can round up across an integer edge, leaving |s*q| an ulp above |w|;
    # pull such codes one step toward zero so domination holds in float too
    over = np.abs(qw) > np.abs(w)
    if over.any():
        q = np.where(over, q - np.sign(q), q)
        qw = s * q.astype(float)
    l1 = int(np.abs(q).sum())

    result = QuantResult(
        q=q, qw=qw, s=s, l1_codes=l1, bound=limit,
        bound_ok=l1 <= limit, variant=active, fell_back=fell_back,
    )
    tape = WeightTape(
        variant=active, centered=center, degenerate=False, c=c, n1=n1, u=u,
        g=g, s=s, T=T, G=G, gate_on_g=gate_on_g, pre=pre, q=q.astype(float), K=ch.K,
        in_range=in_range,
    )
    return result, tape


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
    _, tape = forward_weights(ch, bits, variant)
    return tape.u * tape.G
