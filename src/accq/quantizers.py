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
as a (C, K) array, t and d as (C,) arrays, and one BitWidths for every row or a
bit plan of (BitWidths, rows) runs, so the trainer quantizes every layer of a
fan-in in one call.  It returns one QuantizedLayer: the (C, K) codes, their
per-row certificates and the forward state whose backward passes return
(dV, dt, dd) arrays.
forward_weights returns WeightTape, the single C = 1 row view of that record,
for one ChannelWeights; both are kept for the benchmark's quantize_audit
workload and for tests, and nothing in the package calls them.  Row
reductions use sum(axis=1) and np.vecdot, which equal the per-row sum() and
np.dot bit for bit, and 2^t, 2^d use Python's float pow per row (np.exp2
differs in the last bit), so a layer's row i is exactly what channel i gives
alone.

Certificates on integer codes are checked exactly (Fraction vs. int), never in
floats.

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

from .bounds import BitWidths, a2q_limit, a2q_plus_limit, int_range
from .errors import NonFiniteInputError

LN2 = math.log(2.0)

# zero-centering a single weight would zero it out; such channels fall back
K_MIN_CENTER = 2


class Variant(enum.Enum):
    A2Q = "a2q"
    A2Q_PLUS = "a2q+"


def finite_vector(x, name: str) -> np.ndarray:
    """x as a nonempty 1-d float vector (a scalar is one entry); ValueError or NonFiniteInputError otherwise."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
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


@dataclasses.dataclass
class QuantizedLayer:
    """One quantized layer of channels; row i of every per-row array is channel i.

    Codes and certificate: q (C, K) int64 codes, qw = s * q and s (C,).
    variant is the one that ran and fell_back whether it differs from the one
    asked for; every row shares both.  bound, l1_codes and bound_ok hold one
    Fraction, Python int and bool per row: the integer-domain l1 budget (the
    active T divided by s), the codes' l1 mass and the certificate
    l1 <= bound, checked in exact integers.

    Backprop state: w = u * G is the pre-round weights, with u = c / n1 the
    l1-normalized (centered, for A2Q+) direction, G = min(g, T) per row and
    pre = w / s.  A degenerate row (all zero after centering) carries u = 0
    and G = 0, which zero every gradient of it.  For A2Q, c is the V passed
    in, not a copy: the trainer passes its live group stack, which the next
    SGD step updates in place, and reads no record after that step.

    backward() differentiates the quantized output under the clipped
    straight-through convention: rounding has unit slope inside the code
    range, while saturated weights block the path into v and t and feel only
    the scale through their pinned code.  backward_smooth() differentiates the
    pre-round weights w, the reference for finite-difference checks.  Both take
    a (C, K) upstream gradient and return (dV (C, K), dt (C,), dd (C,)).
    """

    q: np.ndarray
    qw: np.ndarray
    s: np.ndarray
    l1_codes: list[int]
    bound: list[Fraction]
    bound_ok: list[bool]
    variant: Variant
    fell_back: bool
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
        du = dw * self.G[:, None]
        dc = (du - np.sign(self.c) * np.vecdot(du, self.u)[:, None]) / self.n1[:, None]
        dv = dc - (dc.sum(axis=1) / self.K)[:, None] if self.variant is Variant.A2Q_PLUS else dc
        # G is g on the gate and T = s * budget off it, and dT/dd = T ln 2
        d_exp = dG * self.G * LN2
        return dv, np.where(self.gate_on_g, d_exp, 0.0), np.where(self.gate_on_g, 0.0, d_exp)

    def backward(self, d_qw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        d_qw = np.asarray(d_qw, dtype=float)
        dv, dt, dd = self.backward_smooth(d_qw * self.in_range)
        # d(s*q)/ds: rounding residual q - w/s in range, the saturated code
        # outside, then chain s = 2^d
        resid = np.where(self.in_range, self.q - self.pre, self.q)
        return dv, dt, dd + np.vecdot(d_qw, resid) * self.s * LN2


class WeightTape:
    """The C = 1 view of a one-row QuantizedLayer, with one channel's backward passes.

    Every per-row field reads as its only row (q is a (K,) vector, l1_codes
    an int, g a scalar); layer-wide fields read as they are.  The backward
    passes take and return one channel's gradients.
    """

    def __init__(self, layer: QuantizedLayer) -> None:
        self.layer = layer

    def __getattr__(self, name: str):
        value = getattr(self.layer, name)
        return value[0] if isinstance(value, (np.ndarray, list)) else value

    def backward_smooth(self, d_w) -> tuple[np.ndarray, float, float]:
        dv, dt, dd = self.layer.backward_smooth(np.asarray(d_w, dtype=float)[None])
        return dv[0], float(dt[0]), float(dd[0])

    def backward(self, d_qw) -> tuple[np.ndarray, float, float]:
        dv, dt, dd = self.layer.backward(np.asarray(d_qw, dtype=float)[None])
        return dv[0], float(dt[0]), float(dd[0])


@functools.lru_cache(maxsize=1024)
def channel_budget(K: int, bits: BitWidths, variant: Variant) -> tuple[Variant, Fraction]:
    """The variant that actually runs on a length-K channel and its exact l1 code budget.

    A2Q+ channels shorter than K_MIN_CENTER fall back to A2Q, since centering
    would zero them out.  Cached: one-row calls pay the Fraction construction
    otherwise, and the result (an enum member and an immutable Fraction) is
    safe to share.
    """
    if variant is Variant.A2Q_PLUS and K >= K_MIN_CENTER:
        return variant, a2q_plus_limit(bits.P, bits.N)
    return Variant.A2Q, a2q_limit(bits.P, bits.N, bits.act_signed)


# a bit plan: runs of (bit widths, row count) that cover a layer's rows in order
BitPlan = tuple[tuple[BitWidths, int], ...]


class PlanRows(NamedTuple):
    """Per-row constants of a bit plan under one variant, at one K.

    active is the variant that runs and fell_back whether it differs from
    the one asked for.  bound holds each row's exact l1 budget, budget the
    same as a float (for T) and cap its integer floor.  lo and hi are the
    weight-code clip limits: Python ints when every row shares M, else (C, 1)
    columns.
    """

    active: Variant
    fell_back: bool
    bound: list[Fraction]
    budget: list[float]
    cap: list[int]
    lo: int | np.ndarray
    hi: int | np.ndarray


@functools.lru_cache(maxsize=1024)
def _plan_rows(K: int, plan: BitPlan, variant: Variant) -> PlanRows:
    """The plan's PlanRows, derived once per (K, plan, variant).

    The cache key hashes every BitWidths of the plan, so a caller that
    quantizes the same plan every step derives its rows once and calls
    _quantize_rows with them.
    """
    active = channel_budget(K, plan[0][0], variant)[0]
    bound, budget, cap, ranges = [], [], [], []
    for bits, n in plan:
        limit = channel_budget(K, bits, variant)[1]
        bound += [limit] * n
        budget += [float(limit)] * n
        cap += [limit.numerator // limit.denominator] * n
        ranges += [int_range(bits.M, signed=True)] * n
    if len(set(ranges)) == 1:
        lo, hi = ranges[0]
    else:
        lo, hi = np.array(ranges, dtype=float).T[:, :, None]
    return PlanRows(active, active is not variant, bound, budget, cap, lo, hi)


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


def quantize_layer(
    V: np.ndarray, t: np.ndarray, d: np.ndarray, bits: BitWidths | BitPlan, variant: Variant
) -> QuantizedLayer:
    """Quantize a (C, K) stack of channels into one record of codes, certificates and tape.

    Row i uses direction V[i], norm 2^t[i] and scale 2^d[i].  bits is one
    BitWidths for every row, or a bit plan whose runs give consecutive rows
    their own widths; every row shares K and so the variant that runs.  Raises
    OverflowError when a norm or scale exponent leaves float range, a scale
    that underflows to 0 (which weights are divided by) included.
    """
    C, K = V.shape
    plan = ((bits, C),) if isinstance(bits, BitWidths) else bits
    plan_rows = _plan_rows(K, plan, variant)
    if len(plan_rows.bound) != C:
        raise ValueError(f"the bit plan covers {len(plan_rows.bound)} rows, the layer has {C}")
    return _quantize_rows(V, t, d, plan_rows)


def _quantize_rows(V: np.ndarray, t: np.ndarray, d: np.ndarray, plan_rows: PlanRows) -> QuantizedLayer:
    """quantize_layer's core, given the PlanRows of a plan that covers V's rows."""
    C, K = V.shape
    active, fell_back, bound, budget, cap, lo, hi = plan_rows
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
    l1 = np.abs(q).sum(axis=1).tolist()
    # the exact certificate: l1 <= limit in integers, i.e. l1 <= floor(limit)
    ok = [x <= y for x, y in zip(l1, cap)]
    if not all(ok):
        q = _shrink_rows(q, [i for i, fits in enumerate(ok) if not fits], cap)
        qw = s_col * q
        l1 = np.abs(q).sum(axis=1).tolist()
        ok = [x <= y for x, y in zip(l1, cap)]

    return QuantizedLayer(
        q=q, qw=qw, s=s, l1_codes=l1, bound=list(bound), bound_ok=ok,
        variant=active, fell_back=fell_back, degenerate=degenerate, c=c, n1=n1, u=u,
        g=g, T=T, G=G, gate_on_g=gate_on_g, w=w, pre=pre, in_range=in_range,
    )


def forward_weights(ch: ChannelWeights, bits: BitWidths, variant: Variant) -> tuple[WeightTape, WeightTape]:
    """Quantize one channel: quantize_layer on a one-row layer, read through WeightTape.

    The one view is returned twice, as the (result, tape) pair the benchmark's
    quantize_audit workload unpacks; kept for that workload and for tests.
    """
    row = WeightTape(quantize_layer(ch.v[None], np.array([ch.t]), np.array([ch.d]), bits, variant))
    return row, row
