"""l1-ball projection and budget-aware layer initialization.

project_l1_ball is the Euclidean projection onto an l1 ball: shrinking a float
channel onto the ball keeps the large entries nearly intact and zeroes the
small ones, rather than scaling everything down uniformly.  It is the classic
sort-based soft-threshold: sort magnitudes, find the largest prefix whose
entries all stay positive after paying for the radius, and subtract that
threshold from every magnitude, clipping at zero.

ep_init_layer starts a float layer inside its _plan_rows budgets, unprojected:
it floors each row's scale so that the budget ball covers the row's l1 mass,
on which the projection is the identity.  ep_init is its one-row view, kept
for the benchmark's quantize_audit workload.  Its two row rules take (C, K)
stacks of magnitudes: l1_masses, the one place a row's l1 mass is summed, and
max_abs_scales, the max-abs scale rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BitWidths, _real_field
from .errors import NonFiniteInputError, NonPositiveRadiusError
from .quantizers import ChannelWeights, Variant, _float_array, _layer_arrays, _plan_rows

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
    never grows any coordinate's magnitude.  NonPositiveRadiusError unless
    radius is a positive finite real (kept as a float); NonFiniteInputError
    when w's l1 mass (l1_masses on w as one row) is not finite or w holds a
    string or a bool; ValueError when w has more than one dimension.
    """
    radius = _real_field(radius, "radius", 0.0, NonPositiveRadiusError, strict=True)
    w_arr = np.atleast_1d(_float_array(w, "w"))
    if w_arr.ndim != 1:
        raise ValueError(f"w must be one-dimensional, got shape {w_arr.shape}")
    mags = np.abs(w_arr)
    if float(l1_masses(mags.reshape(1, -1), "w")[0]) <= radius:
        return ProjectionResult(w_arr.copy(), 0.0, False)

    mu = np.sort(mags)[::-1]
    csum = np.cumsum(mu)
    idx = np.arange(1, w_arr.size + 1)
    # rho: longest prefix with mu > (csum - radius) / idx; idx = 1 always has it
    rho = int(np.flatnonzero(csum - idx * mu < radius)[-1]) + 1
    theta = float((csum[rho - 1] - radius) / rho)
    if theta <= 0.0:
        # the unsorted sum put w outside the ball but the sorted cumsum puts
        # it on or inside: w is on the boundary up to rounding
        return ProjectionResult(w_arr.copy(), 0.0, False)
    # |w_i| - theta, with the radius added after the large terms cancel: when
    # one magnitude dwarfs the radius, csum - radius rounds the radius away
    kept = (radius - (csum[rho - 1] - rho * mags)) / rho
    v_star = np.sign(w_arr) * np.clip(kept, 0.0, mags)
    return ProjectionResult(v_star, theta, True)


def l1_masses(mags: np.ndarray, name: str) -> np.ndarray:
    """The one l1-mass rule: the row sums of a (C, K) stack of |name|; NonFiniteInputError unless all are finite."""
    with np.errstate(over="ignore"):
        masses = np.add.reduce(mags, axis=1)
    # in Python floats: a numpy reduction costs more than this on a few rows
    if not all(map(math.isfinite, masses.tolist())):
        raise NonFiniteInputError(f"{name} must be finite, and so must its l1 mass")
    return masses


def max_abs_scales(mags: np.ndarray, M: int) -> np.ndarray:
    """Per row of a (C, K) stack of magnitudes |W|, the scale that maps its largest onto the top M-bit code.

    A zero row gets 2^ZERO_EXPONENT; NonFiniteInputError when a nonzero row's scale underflows to 0.
    """
    tops = np.maximum.reduce(mags, axis=1)
    scales = tops / ((1 << (M - 1)) - 1)
    # a list test: numpy's own costs more than this on a few rows
    if 0.0 in scales.tolist():
        if np.logical_or.reduce(tops[scales == 0.0] > 0.0):
            raise NonFiniteInputError("w's max-abs scale underflows to 0: a nonzero row of subnormal magnitudes")
        scales[tops == 0.0] = 2.0 ** ZERO_EXPONENT
    return scales


def ep_init_layer(W, bits: BitWidths, variant: Variant = Variant.A2Q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Budget-aware (V, t, d) start for a (C, K) float layer: V = W, g = ||w||_1 per row.

    The max-abs scale max|w| / (2^{M-1} - 1) works when the l1 budget is
    loose, but at tight accumulator widths it prices the budget at a few
    integer units spread over the whole fan-in: projecting onto that ball
    would collapse a row to a near one-hot spike, and the norm/scale gradients
    (both carry a factor of g or s) are too small to ever escape.  So each
    row's scale is floored at mass / limit, with the limit from
    quantizers._plan_rows (the centered budget for A2Q+, the A2Q budget
    when K = 1 falls back): the ball of radius s * limit covers the row's l1
    mass, the projection onto it is the identity, and none is run.  g = ||w||_1
    keeps the quantizer's min gate on the norm side.

    Masses and max-abs scales come from the row rules, each row's floor and
    log2 in Python floats, which keeps the one-row view ep_init cheap.  A row
    that is not finite, whose mass or floor leaves float range, or whose
    max-abs scale underflows to 0 raises NonFiniteInputError, as does a string
    or bool entry; a W that is not (C, K) with C, K >= 1 raises ValueError
    naming its shape, and bits or a variant of the wrong kind one naming it.
    """
    V = _layer_arrays(w=W)[0].copy()  # a fresh array, so ep_init's v never aliases w
    limit = _plan_rows(V.shape[1], ((bits, 1),), variant).budget[0]
    mags = np.abs(V)
    masses = l1_masses(mags, "w")
    scales = max_abs_scales(mags, bits.M)
    t, d = [], []
    for mass, scale in zip(masses.tolist(), scales.tolist()):
        # a finite mass over a budget below 1 can still overflow; a zero row's floor is 0
        if mass / limit == math.inf:
            raise NonFiniteInputError("w's scale floor, its l1 mass over the budget, leaves float range")
        t.append(math.log2(mass) if mass > 0.0 else ZERO_EXPONENT)
        d.append(math.log2(max(scale, mass / limit)))
    return V, np.array(t), np.array(d)


def ep_init(w, bits: BitWidths, variant: Variant = Variant.A2Q) -> ChannelWeights:
    """ep_init_layer on one float channel, as a ChannelWeights: v = w, g = ||w||_1; an empty w raises ValueError."""
    V, t, d = ep_init_layer(np.atleast_1d(_float_array(w, "w"))[None], bits, variant)
    return ChannelWeights(v=V[0], t=t.item(), d=d.item())
