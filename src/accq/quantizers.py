"""Layer-batched weight quantizers with per-channel l1 accumulator guarantees.

The constrained quantizers reparameterize each output channel as a direction v
with a separate norm g = 2^t and scale s = 2^d.  The real-valued weights are

    w = (v~ / ||v~||_1) * min(g, T)

where v~ is v itself (A2Q) or v minus its mean (A2Q+, zero-centered) and T is
the scale times the applicable l1 code budget.  Integer codes are produced by
rounding w/s toward zero, which can only shrink magnitudes, so the pre-round l1
certificate survives rounding.  The zero-sum structure of the centered variant
is what buys its wider budget.

Rows that share K are quantized together: quantize_layer takes the directions
as a (C, K) array, t and d as (C,) arrays, and one BitWidths for every row.  It
returns one QuantizedLayer: the (C, K) codes, their per-row certificates and
the forward state whose backward passes return (dV, dt, dd) arrays.  Its core,
_quantize_rows, takes the PlanRows of a bit plan of (BitWidths, rows) runs
instead, so the trainer quantizes every layer of a fan-in in one call.
forward_weights returns WeightTape, the single C = 1 row view of that record,
for one ChannelWeights; both are kept for the benchmark's quantize_audit
workload, and nothing in the package calls them.  Row
reductions use np.add.reduce and np.vecdot, which equal the per-row sum() and
np.dot bit for bit, and 2^t, 2^d use Python's float pow per row (np.exp2
differs in the last bit), so a layer's row i is exactly what channel i gives
alone.

Certificates on integer codes are checked exactly (Fraction vs. int), never in
floats, against each row's budget from _plan_rows, the one budget rule.

Gradients: rounding uses a straight-through estimate (unit slope), weights pass
through the clip unclipped, and each elementwise code contributes the usual
scale-error term (q - w/s) to the scale exponent.  At the min(g, T) boundary the
gradient goes to the g side (min treated as left-continuous).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .bounds import BitWidths, _real_field, a2q_limit, a2q_plus_limit, int_range
from .errors import NonFiniteInputError

LN2 = math.log(2.0)

# zero-centering a single weight would zero it out; such channels fall back
K_MIN_CENTER = 2


class Variant(enum.Enum):
    A2Q = "a2q"
    A2Q_PLUS = "a2q+"


def _float_array(x, name: str) -> np.ndarray:
    """x as a float array, or a ValueError naming name: ragged or not numbers, or an entry that is not a real.

    An integer or float ndarray converts at once.  Anything else has its
    entries read through the real rule too, since numpy reads a string "1.5"
    as 1.5 and a True, even in [True, 0.5], as 1.0; such an entry is a
    NonFiniteInputError.  Finiteness is the caller's check.
    """
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged rows, not numbers, or an int past float range
        raise ValueError(f"{name} must be an array of floats: {exc}") from None
    # a float64 ndarray comes back as itself
    if arr is not x and not (isinstance(x, np.ndarray) and x.dtype.kind in "iuf"):
        for item in np.asarray(x, dtype=object).ravel().tolist():
            if type(item) is not float:
                _real_field(item, name, error=NonFiniteInputError)
    return arr


def finite_vector(x, name: str) -> np.ndarray:
    """x as a nonempty 1-d float vector (a scalar is one entry); ValueError or NonFiniteInputError otherwise."""
    v = np.atleast_1d(_float_array(x, name))
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if not np.isfinite(v).all():
        raise NonFiniteInputError(f"{name} must be finite")
    return v


@dataclasses.dataclass
class ChannelWeights:
    """One output channel in direction/norm/scale form (g = 2^t, s = 2^d)."""

    v: np.ndarray
    t: float
    d: float

    def __post_init__(self) -> None:
        self.v = finite_vector(self.v, "v")
        self.t = _real_field(self.t, "t", error=NonFiniteInputError)
        self.d = _real_field(self.d, "d", error=NonFiniteInputError)

    @property
    def K(self) -> int:
        return self.v.size


@dataclasses.dataclass
class QuantizedLayer:
    """One quantized layer of channels; row i of every per-row array is channel i.

    Codes and certificate: q (C, K) int64 codes, qw = s * q and s (C,).
    variant is the one that ran, which every row shares; a fallback shows as
    a variant other than the one asked for.  bound, l1_codes and bound_ok hold one
    Fraction, Python int and bool per row: the integer-domain l1 budget (the
    active T divided by s), the codes' l1 mass and the certificate
    l1 <= bound, checked in exact integers.

    Backprop state: w = u * G is the pre-round weights, with u = c / n1 the
    l1-normalized (centered, for A2Q+) direction, G = min(g, T) per row and
    pre = w / s.  A degenerate row (all zero after centering) carries u = 0
    and G = 0, which zero every gradient of it.  The record owns its arrays:
    none shares memory with the V, t or d it was made from.

    backward() differentiates the quantized output under the clipped
    straight-through convention: rounding has unit slope inside the code
    range, while saturated weights block the path into v and t and feel only
    the scale through their pinned code.  backward_smooth() differentiates the
    pre-round weights w, the reference for finite-difference checks.  Both take
    a (C, K) upstream gradient and return fresh arrays (dV (C, K), dt (C,),
    dd (C,)); neither writes into the record or the upstream gradient.
    """

    q: np.ndarray
    qw: np.ndarray
    s: np.ndarray
    l1_codes: list[int]
    bound: list[Fraction]
    bound_ok: list[bool]
    variant: Variant
    degenerate: np.ndarray
    c: np.ndarray
    n1: np.ndarray
    u: np.ndarray
    g: np.ndarray
    T: np.ndarray
    G: np.ndarray
    gate_on_g: np.ndarray
    w: np.ndarray
    pre: np.ndarray
    in_range: np.ndarray

    @property
    def K(self) -> int:
        return self.u.shape[1]

    def backward_smooth(self, dw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradient of w = (c/||c||_1) * min(g, T) w.r.t. V, t, d."""
        dw = np.asarray(dw, dtype=float)
        dG = np.vecdot(dw, self.u)
        # dv holds du = dw * G and then dc = (du - sign(c) * <du, u>) / n1
        dv = dw * self.G[:, None]
        dv -= np.sign(self.c) * np.vecdot(dv, self.u)[:, None]
        dv /= self.n1[:, None]
        if self.variant is Variant.A2Q_PLUS:
            dv -= (np.add.reduce(dv, axis=1) / self.K)[:, None]
        # G is g on the gate and T = s * budget off it, and dT/dd = T ln 2
        d_exp = dG * self.G * LN2
        return dv, np.where(self.gate_on_g, d_exp, 0.0), np.where(self.gate_on_g, 0.0, d_exp)

    def backward(self, d_qw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        d_qw = np.asarray(d_qw, dtype=float)
        # d(s*q)/ds: rounding residual q - w/s in range, the saturated code
        # outside, then chain s = 2^d
        resid = self.q - self.pre
        np.copyto(resid, self.q, where=~self.in_range)
        d_scale = np.vecdot(d_qw, resid)
        dv, dt, dd = self.backward_smooth(d_qw * self.in_range)
        dd += d_scale * self.s * LN2
        return dv, dt, dd


class WeightTape:
    """The C = 1 view of a one-row QuantizedLayer, with one channel's backward pass.

    Every per-row field reads as its only row (q is a (K,) vector, l1_codes
    an int, g a scalar); layer-wide fields read as they are.  backward takes
    and returns one channel's gradients.
    """

    def __init__(self, layer: QuantizedLayer) -> None:
        self.layer = layer

    def __getattr__(self, name: str):
        value = getattr(self.layer, name)
        return value[0] if isinstance(value, (np.ndarray, list)) else value

    def backward(self, d_qw) -> tuple[np.ndarray, float, float]:
        dv, dt, dd = self.layer.backward(np.asarray(d_qw, dtype=float)[None])
        return dv[0], float(dt[0]), float(dd[0])


# a bit plan: runs of (bit widths, row count) that cover a layer's rows in order
BitPlan = tuple[tuple[BitWidths, int], ...]


class PlanRows(NamedTuple):
    """Per-row constants of a bit plan under one variant, at one K.

    active is the variant that runs, which differs from the one asked for
    on a fallback.  bound holds each row's exact l1 budget, budget the
    same as a float (for T) and cap its integer floor.  lo and hi are the
    weight-code clip limits as (C, 1) columns.  l1_dtype sums the codes' l1
    masses: object (Python ints) where K of them can reach 2^63, else int64.
    """

    active: Variant
    bound: list[Fraction]
    budget: list[float]
    cap: list[int]
    lo: np.ndarray
    hi: np.ndarray
    l1_dtype: type


def _plan_rows(K: int, plan: BitPlan, variant: Variant) -> PlanRows:
    """The one budget rule: the plan's PlanRows, derived once per (K, plan, variant).

    A2Q+ runs when K >= K_MIN_CENTER, else A2Q, since centering would zero a
    shorter row out.  bits that are not a BitWidths, and a variant that is
    not a Variant member, such as its value "a2q+", are a ValueError naming
    them, checked before the cache key hashes them.  A caller that quantizes
    the same plan every step derives its rows once and calls _quantize_rows
    with them.
    """
    for bits, _ in plan:
        if not isinstance(bits, BitWidths):
            raise ValueError(f"bits must be a BitWidths, got {bits!r}")
    if not isinstance(variant, Variant):
        raise ValueError(f"variant must be a Variant member, got {variant!r}")
    return _derive_rows(K, plan, variant)


@functools.lru_cache(maxsize=1024)
def _derive_rows(K: int, plan: BitPlan, variant: Variant) -> PlanRows:
    active = variant if K >= K_MIN_CENTER else Variant.A2Q
    bound, budget, cap, ranges = [], [], [], []
    for bits, n in plan:
        if active is Variant.A2Q_PLUS:
            limit = a2q_plus_limit(bits.P, bits.N)
        else:
            limit = a2q_limit(bits.P, bits.N, bits.act_signed)
        bound += [limit] * n
        budget += [float(limit)] * n
        cap += [limit.numerator // limit.denominator] * n
        ranges += [int_range(bits.M, signed=True)] * n
    lo, hi = np.array(ranges, dtype=float).T[:, :, None]
    # a code's magnitude is at most -lo, 2^(M-1); an int64 sum of K of them wraps from 2^63 on
    return PlanRows(active, bound, budget, cap, lo, hi, object if K * -lo.min() >= 2.0**63 else np.int64)


def _shrink_rows(q: np.ndarray, rows: list[int], cap: list[int]) -> np.ndarray:
    """Scale the listed rows' code magnitudes by cap / l1, in exact integers, flooring.

    Only reachable when the budget is wider than float's exact integers, where
    round-off in T (the budget itself rounds up to a float) and in the l1
    normalization can leave a row a few codes over its exact budget.
    """
    q = q.copy()
    for i in rows:
        row = q[i].tolist()
        total = sum(abs(x) for x in row)
        q[i] = [abs(x) * cap[i] // total * (1 if x > 0 else -1) for x in row]
    return q


def _layer_arrays(**arrays) -> list[np.ndarray]:
    """The first array as (C, K) floats, C, K >= 1, the rest as (C,) ones, all finite, or an error naming one."""
    out: list[np.ndarray] = []
    for name, x in arrays.items():
        x = _float_array(x, name)
        if not out and (x.ndim != 2 or not x.size):
            raise ValueError(f"{name} must be a (C, K) array with C, K >= 1, got shape {x.shape}")
        if out and x.shape != out[0].shape[:1]:
            raise ValueError(f"{name} must have shape {out[0].shape[:1]}, one entry per row of V, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise NonFiniteInputError(f"{name} must be finite")
        out.append(x)
    return out


def quantize_layer(V: np.ndarray, t: np.ndarray, d: np.ndarray, bits: BitWidths, variant: Variant) -> QuantizedLayer:
    """Quantize a (C, K) stack of channels into one record of codes, certificates and tape.

    Row i uses direction V[i], norm 2^t[i] and scale 2^d[i]; every row shares
    the bit widths bits and, sharing K, the variant that runs.  V, t and d may
    be any array-likes of real numbers.  Raises ValueError naming V's shape
    unless C, K >= 1 (ragged rows named too), t's or d's unless (C,), or bits
    or variant of the wrong kind; NonFiniteInputError unless all three are
    finite real numbers (a string or bool entry is not); OverflowError when a
    norm or scale exponent leaves float range, a scale underflowing to 0 included.
    """
    V, t, d = _layer_arrays(V=V, t=t, d=d)
    return _quantize_rows(V, t, d, _plan_rows(V.shape[1], ((bits, len(V)),), variant))


def _quantize_rows(V: np.ndarray, t: np.ndarray, d: np.ndarray, plan_rows: PlanRows) -> QuantizedLayer:
    """quantize_layer's core, given the PlanRows of a bit plan that covers V's rows, as the trainer calls it."""
    C, K = V.shape
    active, bound, budget, cap, lo, hi, l1_dtype = plan_rows
    # 2^t, 2^d and T = s * budget per row in Python floats: np.exp2 differs
    # from Python's pow in the last bit, Python's pow raises OverflowError
    # where numpy returns inf, and an overflowing T stays a silent inf
    s = [2.0 ** e for e in d.tolist()]
    if 0.0 in s:
        raise OverflowError("scale 2^d underflows to 0")
    g, s, T = np.array([[2.0 ** e for e in t.tolist()], s, [x * b for x, b in zip(s, budget)]])
    s_col = s[:, None]

    if active is Variant.A2Q_PLUS:
        # sum / K is mean() bit for bit, minus np.mean's per-call overhead
        c = V - np.add.reduce(V, axis=1, keepdims=True) / float(K)
        # the leftover sum scales with ||v||, not ||c||, and near-equal entries
        # cancel badly; one refinement pass makes sum(c) eps-small relative to c
        c = c - np.add.reduce(c, axis=1, keepdims=True) / float(K)
    else:
        c = V.copy()
    n1 = np.add.reduce(np.abs(c), axis=1)
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
    raw = np.trunc(pre)
    # ndarray.clip's Python wrapper costs more than the two ufuncs
    clipped = np.minimum(np.maximum(raw, lo), hi)
    in_range = clipped == raw
    q = clipped.astype(np.int64)
    qw = s_col * q
    # w/s can round up across an integer edge, leaving |s*q| an ulp above |w|;
    # pull such codes one step toward zero so domination holds in float too
    over = np.abs(qw) > np.abs(w)
    if np.count_nonzero(over):
        q = np.where(over, q - np.sign(q), q)
        qw = s_col * q
    l1 = np.add.reduce(np.abs(q), axis=1, dtype=l1_dtype).tolist()
    # the exact certificate: l1 <= limit in integers, i.e. l1 <= floor(limit)
    ok = [x <= y for x, y in zip(l1, cap)]
    if not all(ok):
        q = _shrink_rows(q, [i for i, fits in enumerate(ok) if not fits], cap)
        qw = s_col * q
        l1 = np.add.reduce(np.abs(q), axis=1, dtype=l1_dtype).tolist()
        ok = [x <= y for x, y in zip(l1, cap)]

    return QuantizedLayer(
        q=q, qw=qw, s=s, l1_codes=l1, bound=list(bound), bound_ok=ok,
        variant=active, degenerate=degenerate, c=c, n1=n1, u=u,
        g=g, T=T, G=G, gate_on_g=gate_on_g, w=w, pre=pre, in_range=in_range,
    )


def forward_weights(ch: ChannelWeights, bits: BitWidths, variant: Variant) -> tuple[WeightTape, WeightTape]:
    """Quantize one channel: quantize_layer's core on a one-row layer, read through WeightTape.

    ChannelWeights has checked its input.  The one view is returned twice, as
    the (result, tape) pair the benchmark's quantize_audit workload unpacks.
    """
    plan_rows = _plan_rows(ch.K, ((bits, 1),), variant)
    row = WeightTape(_quantize_rows(ch.v[None], np.array([ch.t]), np.array([ch.d]), plan_rows))
    return row, row
