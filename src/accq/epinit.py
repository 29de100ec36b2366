"""l1-ball projection and budget-aware channel initialization.

project_l1_ball is the Euclidean projection onto an l1 ball: shrinking a float
channel onto the ball keeps the large entries nearly intact and zeroes the
small ones, rather than scaling everything down uniformly.  It is the classic
sort-based soft-threshold: sort magnitudes, find the largest prefix whose
running average still leaves positive mass after paying for the radius, and
subtract that threshold from every magnitude, clipping at zero.

ep_init starts a channel inside its l1 budget without projecting: it floors
the scale so that the budget ball covers the channel's own l1 mass, on which
the projection is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BitWidths
from .errors import NonFiniteInputError, NonPositiveRadiusError
from .quantizers import ChannelWeights, Variant, channel_budget

# exponent used when a channel (or its norm) is identically zero; 2^-30 is far
# below any realistic scale but keeps every downstream log finite
ZERO_EXPONENT = -30.0


@dataclass(frozen=True)
class ProjectionResult:
    """v_star: the projected vector; theta: the soft threshold (0 when inactive)."""

    v_star: np.ndarray
    theta: float
    active: bool


def project_l1_ball(w, radius: float) -> ProjectionResult:
    """Euclidean projection of w onto {v : ||v||_1 <= radius}.

    Inactive (returns w unchanged, theta 0) when w is already inside the ball.
    Otherwise the result sits exactly on the boundary, preserves signs, and
    never grows any coordinate's magnitude.
    """
    if not (radius > 0.0 and math.isfinite(radius)):
        raise NonPositiveRadiusError(f"radius must be positive and finite, got {radius!r}")
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    if not np.all(np.isfinite(w_arr)):
        raise NonFiniteInputError("w must be finite")

    mags = np.abs(w_arr)
    if float(mags.sum()) <= radius:
        return ProjectionResult(w_arr.copy(), 0.0, False)

    mu = np.sort(mags)[::-1]
    csum = np.cumsum(mu)
    idx = np.arange(1, w_arr.size + 1)
    # rho: largest prefix length whose entries stay positive after the shift;
    # rho >= 1 in exact arithmetic, but when one magnitude dwarfs the radius
    # csum[0] - radius can round to mu[0] and leave no entry positive
    positive = np.flatnonzero(mu - (csum - radius) / idx > 0)
    rho = int(positive[-1]) + 1 if positive.size else 1
    theta = float((csum[rho - 1] - radius) / rho)
    if theta <= 0.0:
        # the unsorted sum put w outside the ball but the sorted cumsum puts
        # it on or inside: w is on the boundary up to rounding
        return ProjectionResult(w_arr.copy(), 0.0, False)
    v_star = np.sign(w_arr) * np.maximum(mags - theta, 0.0)
    return ProjectionResult(v_star, theta, True)


def init_scale(w, M: int) -> float:
    """Per-channel scale mapping the largest float magnitude onto the top M-bit code."""
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    if not np.all(np.isfinite(w_arr)):
        raise NonFiniteInputError("w must be finite")
    top = float(np.abs(w_arr).max())
    if top == 0.0:
        return 2.0 ** ZERO_EXPONENT
    return top / ((1 << (M - 1)) - 1)


def ep_init(w, bits: BitWidths, variant: Variant = Variant.A2Q) -> ChannelWeights:
    """Budget-aware (v, t, d) start for one float channel: v = w, g = ||w||_1.

    The plain coverage scale max|w| / (2^{M-1} - 1) works when the l1 budget
    is loose, but at tight accumulator widths it prices the budget at a few
    integer units spread over the whole fan-in: projecting onto that ball
    would collapse the channel to a near one-hot spike, and the norm/scale
    gradients (both carry a factor of g or s) are too small to ever escape.
    So the scale is floored at mass / limit, with the limit from
    quantizers.channel_budget (the centered budget for A2Q+, the A2Q budget
    when K = 1 falls back), and the channel starts saturating its own integer
    budget instead.  The ball of radius s * limit then covers the l1 mass, so
    the projection onto it is the identity and none is run.  g = ||w||_1 keeps
    the quantizer's min gate on the norm side.
    """
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    _, limit = channel_budget(w_arr.size, bits, variant)
    s = init_scale(w_arr, bits.M)
    mass = float(np.abs(w_arr).sum())
    if mass > 0.0:
        s = max(s, mass / float(limit))
    t = math.log2(mass) if mass > 0.0 else ZERO_EXPONENT
    return ChannelWeights(v=w_arr.copy(), t=t, d=math.log2(s))


def weight_quant_error(qw, w_ref, normalized: bool = False) -> float:
    """Half squared error between quantized and reference weights.

    normalized divides by the reference's half squared norm; 0/0 is defined as 0
    (an all-zero channel quantized to zeros is a perfect match).
    """
    qw_arr = np.asarray(qw, dtype=float)
    w_arr = np.asarray(w_ref, dtype=float)
    if qw_arr.shape != w_arr.shape:
        raise ValueError(f"shape mismatch: {qw_arr.shape} vs {w_arr.shape}")
    if not (np.all(np.isfinite(qw_arr)) and np.all(np.isfinite(w_arr))):
        raise NonFiniteInputError("inputs must be finite")
    err = 0.5 * float(np.sum((qw_arr - w_arr) ** 2))
    if not normalized:
        return err
    ref = 0.5 * float(np.sum(w_arr**2))
    if ref == 0.0:
        return 0.0
    return err / ref
