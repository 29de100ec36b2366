"""Independent reference implementations used only by the tests.

These are deliberately written from first principles (brute force, bisection,
exact integer scans) so the library never gets compared against itself.  The
module also holds the unconstrained float reference that criterion 9 measures
the trainer against, and the checkpoint writers that build the fixtures
`accq analyze` reads through qat.load_checkpoint.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from accq import qat
from accq.errors import DivergenceError, NonFiniteInputError


class LengthMismatchError(ValueError):
    """Two inputs that must share a length or shape do not."""


def exact_dot(x, q) -> int:
    """Dot product of two integer vectors in arbitrary precision."""
    if len(x) != len(q):
        raise LengthMismatchError(f"len(x)={len(x)} vs len(q)={len(q)}")
    return sum(int(a) * int(b) for a, b in zip(x, q))


def verify_domination(w, s, q) -> bool:
    """True when the rescaled codes s*q never exceed w in magnitude or flip its sign.

    w and q are (C, K) stacks of rows, a single row being a one-row stack, with
    one scale per row in s or one for all; True only when every row holds.
    These are exactly the hypotheses under which replacing w by s*q cannot
    enlarge any dot product against sign-aligned inputs, so an l1 certificate
    on w/s transfers to the integer codes.  s*q is the float64 product.
    """
    w_arr = np.atleast_2d(np.asarray(w, dtype=float))
    if not np.all(np.isfinite(w_arr)):
        raise NonFiniteInputError("w must be finite")
    s_arr = np.asarray(s, dtype=float)
    if not np.all((s_arr > 0.0) & np.isfinite(s_arr)):
        raise NonFiniteInputError(f"scale must be a positive finite float, got {s!r}")
    if s_arr.size not in (1, len(w_arr)):
        raise LengthMismatchError(f"{s_arr.size} scales for {len(w_arr)} rows")
    codes = np.atleast_2d(np.asarray(q, dtype=float))
    if codes.shape != w_arr.shape:
        raise LengthMismatchError(f"w shape {w_arr.shape} vs q shape {codes.shape}")
    if np.any(np.abs(s_arr.reshape(-1, 1) * codes) > np.abs(w_arr)):
        return False
    # a nonzero code needs w of the same strict sign
    return not np.any(((codes > 0) & ~(w_arr > 0)) | ((codes < 0) & ~(w_arr < 0)))


def _range(N: int, signed: bool) -> tuple[int, int]:
    return (-(1 << (N - 1)), (1 << (N - 1)) - 1) if signed else (0, (1 << N) - 1)


def _inputs(q, N: int, signed: bool):
    lo, hi = _range(N, signed)
    return itertools.product(range(lo, hi + 1), repeat=len(q))


def brute_extremes(q, N: int, signed: bool) -> tuple[int, int]:
    """Max and min dot product by materializing every input vector (tiny K only).

    When K * max|q| * max(|lo|, |hi|) < 2^62 bounds every partial sum, the
    input vectors are the columns of one int64 grid and their dot products one
    matrix product; otherwise each vector's dot product is a Python-int sum.
    """
    lo, hi = _range(N, signed)
    if q and len(q) * max(map(abs, q)) * max(-lo, hi) < 1 << 62:
        grid = np.indices((hi - lo + 1,) * len(q), dtype=np.int64).reshape(len(q), -1) + lo
        dots = np.array(q, dtype=np.int64) @ grid
        return int(dots.max()), int(dots.min())
    best_hi = None
    best_lo = None
    for x in _inputs(q, N, signed):
        dot = sum(a * b for a, b in zip(x, q))
        best_hi = dot if best_hi is None else max(best_hi, dot)
        best_lo = dot if best_lo is None else min(best_lo, dot)
    return best_hi, best_lo


def brute_witness(q, N: int, signed: bool) -> tuple[int, int, tuple, tuple]:
    """Max, min, and the first input vector reaching each, in itertools.product order."""
    best_hi = best_lo = None
    for x in _inputs(q, N, signed):
        dot = sum(a * b for a, b in zip(x, q))
        if best_hi is None or dot > best_hi:
            best_hi, x_hi = dot, x
        if best_lo is None or dot < best_lo:
            best_lo, x_lo = dot, x
    return best_hi, best_lo, x_hi, x_lo


def extremal_inputs(q, N: int, signed: bool) -> tuple[tuple, tuple]:
    """brute_witness's two input vectors from the row's signs alone, for rows of any length.

    Each input reaches its own product's extreme independently, and the first
    in itertools.product order takes the lowest input where a code is
    indifferent: d at each positive code for the max, d at each negative code
    for the min, and lo everywhere else, zero codes included.
    """
    lo, hi = _range(N, signed)
    return tuple(hi if v > 0 else lo for v in q), tuple(hi if v < 0 else lo for v in q)


def exact_min_width(k: int, M: int, N: int, signed: bool) -> int:
    """Smallest P such that no M-bit x N-bit length-k dot product leaves the register.

    Each element can independently hit the most extreme product, so the true
    worst cases are k times the single-element extremes (zero is always
    available, hence the clamps).
    """
    q_lo, q_hi = -(1 << (M - 1)), (1 << (M - 1)) - 1
    if signed:
        x_lo, x_hi = -(1 << (N - 1)), (1 << (N - 1)) - 1
    else:
        x_lo, x_hi = 0, (1 << N) - 1
    prods = [a * b for a in (q_lo, q_hi) for b in (x_lo, x_hi)]
    hi_dot = k * max(max(prods), 0)
    lo_dot = k * min(min(prods), 0)
    P = 2
    while hi_dot > (1 << (P - 1)) - 1 or lo_dot < -(1 << (P - 1)):
        P += 1
    return P


def project_l1_bisect(w, radius: float, iters: int = 200) -> np.ndarray:
    """l1-ball projection via bisection on the soft threshold.

    The l1 norm of the soft-thresholded vector is continuous and nonincreasing
    in theta, so bisection on theta solves the boundary equation directly.
    """
    w = np.asarray(w, dtype=float)
    mags = np.abs(w)
    if mags.sum() <= radius:
        return w.copy()
    lo, hi = 0.0, float(mags.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(mags - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return np.sign(w) * np.maximum(mags - theta, 0.0)


def project_l1_bisect_rows(W, radii, iters: int = 200) -> np.ndarray:
    """project_l1_bisect on each row of a (B, K) stack, row i onto the ball of radii[i].

    The same bisection, run on every row at once; a row inside its ball comes
    back unchanged.  Zero entries stay zero and add nothing to any sum or
    maximum, so a row padded with zeros projects as the unpadded one does.
    """
    W = np.asarray(W, dtype=float)
    radii = np.asarray(radii, dtype=float)
    mags = np.abs(W)
    lo, hi = np.zeros(len(W)), mags.max(axis=1)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        above = np.maximum(mags - mid[:, None], 0.0).sum(axis=1) > radii
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    theta = 0.5 * (lo + hi)
    inside = mags.sum(axis=1) <= radii
    return np.where(inside[:, None], W, np.sign(W) * np.maximum(mags - theta[:, None], 0.0))


def central_diff(fn, x0: float, h: float = 1e-4) -> float:
    return (fn(x0 + h) - fn(x0 - h)) / (2.0 * h)


def round_to_zero(x) -> np.ndarray:
    """Round toward zero (truncate): magnitudes never grow, signs never flip."""
    return np.trunc(np.asarray(x, dtype=float))


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


@dataclass(frozen=True)
class FloatRun:
    final_loss: float
    weights: tuple[np.ndarray, ...]


def float_baseline(config: qat.TrainConfig) -> FloatRun:
    """The unconstrained float reference: same data, init, batch order, and SGD."""
    data = qat.make_data(config)
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

    for epoch, xb, yb in qat._batches(config, data):
        pred, xs, ys = run(xb)
        loss = qat.mse(pred, yb)
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
    final_loss = qat.mse(run(data.X_test)[0], data.y_test)
    return FloatRun(final_loss=final_loss, weights=tuple(W))


def save_checkpoint(path, net: qat.ToyNetwork) -> None:
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
