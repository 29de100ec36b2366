"""The benchmark's own output checks, independent of the accq code paths.

Worst-case accumulator values come from the int64 closed form
f = sum(max(c*q, d*q)) and e = sum(min(c*q, d*q)) over the activation range
[c, d]; l1 budgets are recomputed from their formulas in Python ints.  Each
check returns a list of mismatch messages, empty when the output is right.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

INT64_GUARD = 1 << 62


def act_range(N: int, signed: bool) -> tuple[int, int]:
    if signed:
        return -(1 << (N - 1)), (1 << (N - 1)) - 1
    return 0, (1 << N) - 1


def closed_form(q, N: int, signed: bool) -> tuple[int, int]:
    """Exact (max, min) of q . x over every N-bit input vector x."""
    q = np.asarray(q, dtype=np.int64).ravel()
    c, d = act_range(N, signed)
    top = int(np.abs(q).max()) if q.size else 0
    if q.size * top * max(abs(c), abs(d)) >= INT64_GUARD:
        raise ValueError("codes too large for the int64 closed form")
    lo, hi = c * q, d * q
    return int(np.maximum(lo, hi).sum()), int(np.minimum(lo, hi).sum())


def register_fits(f: int, e: int, P: int) -> bool:
    return f <= (1 << (P - 1)) - 1 and e >= -(1 << (P - 1))


def required_width(f: int, e: int) -> int:
    """Smallest P whose signed register holds both f and e."""
    P = 2
    while not register_fits(f, e, P):
        P += 1
    return P


def l1_limit(variant: str, K: int, P: int, N: int, signed: bool) -> Fraction:
    """The l1 code budget a quantized channel must respect (A2Q+ needs K >= 2)."""
    if variant == "a2q+" and K >= 2:
        return Fraction((1 << P) - 2, (1 << N) - 1)
    return Fraction((1 << (P - 1)) - 1, 1 << (N - (1 if signed else 0)))


def check_quantized(q, qw, w, s: float, bound_ok: bool, variant: str, P: int, N: int, signed: bool) -> list[str]:
    """Checks on one budgeted channel: budget, domination and overflow freedom.

    q are the integer codes, qw = s*q the dequantized weights and w the real
    weights before rounding.
    """
    errors = []
    q = np.asarray(q, dtype=np.int64)
    w = np.asarray(w, dtype=float)
    if not bound_ok:
        errors.append("bound_ok is False")
    l1 = int(np.abs(q).sum())
    if Fraction(l1) > l1_limit(variant, q.size, P, N, signed):
        errors.append(f"l1 {l1} exceeds the {variant} budget at P={P} N={N}")
    if not np.array_equal(np.asarray(qw, dtype=float), s * q.astype(float)):
        errors.append("qw differs from s*q")
    if np.any(np.abs(s * q.astype(float)) > np.abs(w)) or np.any((q != 0) & (np.sign(q) != np.sign(w))):
        errors.append("codes do not dominate the pre-round weights")
    f, e = closed_form(q, N, signed)
    if not register_fits(f, e, P):
        errors.append(f"worst case [{e}, {f}] escapes P={P}")
    return errors


def check_witness(q, N: int, signed: bool, P: int, true_max: int, true_min: int, overflowed: bool) -> list[str]:
    """Compare one certificate (library or CLI output) with the closed form."""
    f, e = closed_form(q, N, signed)
    errors = []
    if (true_max, true_min) != (f, e):
        errors.append(f"extremes ({true_max}, {true_min}) != closed form ({f}, {e})")
    if overflowed != (not register_fits(f, e, P)):
        errors.append(f"overflowed={overflowed} disagrees with the closed form at P={P}")
    return errors


def check_record(record, net_rows: list[tuple], config) -> list[str]:
    """Recompute a SweepRecord's sparsity and min slack from the net's channels.

    net_rows holds (codes, limit) for every channel of the trained net.
    """
    errors = []
    expected = (config.variant.value, config.bits.M, config.bits.N, config.bits.P, config.seed)
    if (record.variant, record.M, record.N, record.P, record.seed) != expected:
        errors.append(f"record key {record.sort_key()} != config {expected}")
    if not math.isfinite(record.final_loss):
        errors.append("final loss is not finite")
    zeros = sum(int(np.count_nonzero(q == 0)) for q, _ in net_rows)
    total = sum(q.size for q, _ in net_rows)
    if record.sparsity != zeros / total:
        errors.append(f"sparsity {record.sparsity} != {zeros}/{total}")
    slack = min(limit - int(np.abs(q).sum()) for q, limit in net_rows)
    if record.min_slack != slack:
        errors.append(f"min_slack {record.min_slack} != {slack}")
    return errors
