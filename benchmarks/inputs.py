"""Seeded input generators, one per workload.

Only plain data comes out of here (numbers, strings, numpy arrays and text
files), so the same seed always gives the same inputs and generating them
needs nothing from accq.  Shapes are fixed per workload and only the values
depend on the seed, so the traced run's call counts are the same for every
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

ENUM_BUDGET = 1 << 24  # accq's default exhaustive-enumeration budget


@dataclass(frozen=True)
class FitSpec:
    variant: str
    M: int
    N: int
    P: int
    seed: int
    epochs: int = 40


@dataclass(frozen=True)
class VerifyFile:
    """One `accq verify` input file and the answers the benchmark expects."""

    path: str
    N: int
    P: int
    signed: bool
    expected: tuple[dict, ...]  # one verify JSON record per channel line
    exit_code: int

    @property
    def argv(self) -> list[str]:
        argv = ["verify", "--weights", self.path, "--P", str(self.P), "--N", str(self.N), "--json"]
        return argv + (["--signed"] if self.signed else [])

    @property
    def channels(self) -> int:
        return len(self.expected)


@dataclass(frozen=True)
class AuditChannel:
    w: np.ndarray
    M: int
    N: int
    P: int
    signed: bool
    variant: str


def train_sweep(seed: int) -> list[FitSpec]:
    """Criterion-9-style cell at the workload seed: both variants, W4A4, P in {12, 32}.

    The budget gate binds at P=12 and not at P=32.  The grid is in
    SweepRecord sort order, so its CSV matches `accq train` for the same grid.
    """
    return [FitSpec(variant, 4, 4, P, seed) for variant in ("a2q", "a2q+") for P in (12, 32)]


def _codes(rng: np.random.Generator, K: int, M: int) -> np.ndarray:
    lo, hi = -(1 << (M - 1)), (1 << (M - 1)) - 1
    return np.clip(np.rint(rng.normal(scale=hi / 2.5, size=K)), lo, hi).astype(np.int64)


def _verify_file(path: Path, rows: list[np.ndarray], N: int, signed: bool) -> VerifyFile:
    """Write the rows and pick P so that about a quarter of them, and at least one, overflow."""
    extremes = [checks.closed_form(q, N, signed) for q in rows]
    widths = sorted(checks.required_width(f, e) for f, e in extremes)
    P = min(widths[len(widths) - len(widths) // 4 - 1], widths[-1] - 1)
    expected = tuple(
        {
            "channel": i,
            "K": int(q.size),
            "true_max": f,
            "true_min": e,
            "overflowed": not checks.register_fits(f, e, P),
            "exhaustive": (1 << N) ** q.size <= ENUM_BUDGET,
        }
        for i, (q, (f, e)) in enumerate(zip(rows, extremes))
    )
    path.write_text("".join(",".join(map(str, q.tolist())) + "\n" for q in rows))
    exit_code = 4 if any(rec["overflowed"] for rec in expected) else 0
    return VerifyFile(str(path), N, P, signed, expected, exit_code)


def verify_wide(seed: int, workdir: Path) -> list[VerifyFile]:
    """8-bit codes too long to enumerate: K in {64, 128, 256, 512}, N=8.

    Four files of 64 channels, alternately unsigned and signed activations.
    """
    rng = np.random.default_rng([seed, 1])
    files = []
    for i in range(4):
        Ks = rng.permutation([64, 128, 256, 512] * 16)
        rows = [_codes(rng, int(K), 8) for K in Ks]
        files.append(_verify_file(workdir / f"wide{i}.txt", rows, 8, signed=bool(i % 2)))
    return files


def verify_exhaustive(seed: int, workdir: Path) -> list[VerifyFile]:
    """Channels small enough to enumerate, so the exhaustive oracle runs on all of them.

    K in {3, 4, 5} at N=4 and K in {6, 7} at N=3, in eight small files of
    both signednesses.  One K=6 channel in two of the N=4 files sits exactly
    on the 2^24 budget and takes the split, memory-bounded enumeration path.
    """
    rng = np.random.default_rng([seed, 2])
    layouts = [(4, [3, 4, 4, 5, 5, 5, 5]), (4, [3, 4, 5, 6]), (3, [6, 7, 7, 7]), (3, [6, 7, 7, 7, 7])]
    files = []
    for i, (N, Ks) in enumerate(layouts * 2):
        rows = [_codes(rng, int(K), 8) for K in rng.permutation(Ks)]
        files.append(_verify_file(workdir / f"exhaustive{i}.txt", rows, N, signed=i >= len(layouts)))
    return files


def quantize_audit(seed: int) -> list[AuditChannel]:
    """Float channels of every shape class: K from 1 to 1024, both variants, both signs.

    M, N and P vary per channel, P from where the budget binds hard to where
    it barely binds, and the float scale spans four decades.
    """
    rng = np.random.default_rng([seed, 3])
    items = []
    for K in (1, 2, 16, 64, 256, 1024):
        for variant in ("a2q", "a2q+"):
            for signed in (False, True):
                for _ in range(2):
                    M = int(rng.integers(2, 9))
                    N = int(rng.integers(1, 9))
                    P = int(rng.integers(N + 2, N + M + math.ceil(math.log2(K)) + 3))
                    w = 10.0 ** rng.uniform(-3.0, 1.0) * rng.normal(size=K)
                    items.append(AuditChannel(w, M, N, P, signed, variant))
    return [items[i] for i in rng.permutation(len(items))]


def generate(name: str, seed: int, workdir: Path) -> list:
    if name == "train_sweep":
        return train_sweep(seed)
    if name == "verify_wide":
        return verify_wide(seed, workdir)
    if name == "verify_exhaustive":
        return verify_exhaustive(seed, workdir)
    if name == "quantize_audit":
        return quantize_audit(seed)
    raise ValueError(f"unknown workload {name!r}")
