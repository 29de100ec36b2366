"""Acceptance suite: every headline guarantee, checked end to end.

Each test pins one advertised behavior to a fixed tolerance and a wall-clock
budget.  On success it prints a single [PASS] line through the capture plugin,
so the line shows up in an ordinary pytest run; a failure surfaces as a plain
assertion error on that criterion.  All randomness is seeded and the trainer
is deterministic, so every number printed here reproduces exactly.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

try:
    import cvxpy
except ImportError:  # the two built-in oracles still run
    cvxpy = None

from accq import intsim
from accq.bounds import (
    BitWidths,
    a2q_limit,
    a2q_plus_limit,
    bound_ratio,
    int_range,
    min_acc_width,
)
from accq.epinit import max_abs_scales, project_l1_ball
from accq.intsim import AccumulatorSpec, certify, check_accumulator, exhaustive_check
from accq.qat import CSV_HEADER, SweepRecord, TrainConfig, train
from accq.quantizers import Variant, quantize_layer
import accq.cli as cli

from oracles import (
    brute_extremes,
    exact_dot,
    float_baseline,
    project_l1_bisect,
    project_l1_bisect_rows,
    round_to_zero,
    verify_domination,
    weight_quant_error,
)
from test_props import find_overflow_witness, iter_l1_vectors, iter_zero_sum_vectors
from test_qat import fd_relative_errors


def _passed(capsys, t0: float, budget_s: float, label: str, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"{label} took {elapsed:.1f}s, budget {budget_s:.0f}s"
    with capsys.disabled():
        print(f"\n[PASS] {label}: {detail} [{elapsed:.1f}s < {budget_s:.0f}s]")


# ---------------------------------------------------------------------------
# criterion 1: the budget ratio between the centered and plain l1 bounds


def test_criterion_01_bound_ratio_exact(capsys):
    t0 = time.perf_counter()
    for N in range(1, 9):
        for signed in (False, True):
            expected = Fraction(2 ** (N + 1 - (1 if signed else 0)), 2**N - 1)
            got = bound_ratio(N, act_signed=signed)
            assert got == expected
            # and it must literally be the quotient of the two budgets at every P
            for P in range(2, 33):
                assert got == a2q_plus_limit(P, N) / a2q_limit(P, N, signed)
    assert bound_ratio(1, act_signed=False) == 4
    assert bound_ratio(1, act_signed=True) == 2
    _passed(
        capsys, t0, 1.0, "criterion 1",
        "budget ratio exact in rationals for N=1..8, both signednesses; N=1 gives 4x / 2x",
    )


# ---------------------------------------------------------------------------
# criteria 2 and 3: quantized channels never overflow their register

_OVERFLOW_GRID = [
    (K, N, P) for K in range(1, 6) for N in range(1, 5) for P in range(4, 11)
]
_N_RANDOM = 10_000
_N_EXHAUSTIVE = 64  # per config; 140 configs make 8,960 exhaustive-oracle checks


def _channel_batch(rng, n: int, K: int):
    vs = rng.normal(size=(n, K)) * (10.0 ** rng.uniform(-2.0, 2.0, size=(n, 1)))
    ts = rng.uniform(-4.0, 6.0, size=n)
    ds = rng.uniform(-8.0, 2.0, size=n)
    Ms = rng.integers(2, 9, size=n)
    sg = rng.integers(0, 2, size=n).astype(bool)
    return vs, ts, ds, Ms, sg


def _quantized_groups(batch, N: int, P: int, variant: Variant):
    """Quantize a batch with one quantize_layer call per (M, signedness) group.

    Yields (idx, signed, res): row r of res is channel idx[r] of the batch,
    exactly what it gives quantized alone.
    """
    vs, ts, ds, Ms, sg = batch
    for M in np.unique(Ms).tolist():
        for signed in (False, True):
            idx = np.flatnonzero((Ms == M) & (sg == signed))
            if idx.size:
                bits = BitWidths(M, N, P, act_signed=signed)
                yield idx, signed, quantize_layer(vs[idx], ts[idx], ds[idx], bits, variant)


def _closed_form_certs(q, N: int, signed: bool, spec: AccumulatorSpec):
    # a zero budget gives every row the closed form only; the first rows of
    # each config are checked separately, by exhaustive_check
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(intsim, "ENUM_BUDGET", 0)
        return certify(q, N, signed, spec)


def _check_overflow_freedom(res, idx, N: int, signed: bool, spec: AccumulatorSpec) -> tuple[int, int]:
    """Certify one group in one call and check its first channels exhaustively; returns (overflows, checked)."""
    assert all(res.bound_ok)
    certs = _closed_form_certs(res.q, N, signed, spec)
    exhausted = 0
    for row in np.flatnonzero(idx < _N_EXHAUSTIVE).tolist():
        full = exhaustive_check(res.q[row], N, signed, spec)
        assert not full.overflowed
        assert (full.true_max, full.true_min) == (certs[row].true_max, certs[row].true_min)
        exhausted += 1
    return sum(cert.overflowed for cert in certs), exhausted


def test_criterion_02_a2q_overflow_freedom(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240202)
    checked = exhausted = overflows = 0
    for K, N, P in _OVERFLOW_GRID:
        spec = AccumulatorSpec(P)
        batch = _channel_batch(rng, _N_RANDOM, K)
        for idx, signed, res in _quantized_groups(batch, N, P, Variant.A2Q):
            over, full = _check_overflow_freedom(res, idx, N, signed, spec)
            overflows += over
            exhausted += full
            checked += idx.size
    assert overflows == 0
    _passed(
        capsys, t0, 300.0, "criterion 2",
        f"{checked:,} random channels over {len(_OVERFLOW_GRID)} (K,N,P) configs, "
        f"zero overflows; {exhausted:,} verified over every input vector by the exhaustive oracle",
    )


def test_criterion_03_a2q_plus_overflow_freedom(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240203)
    checked = exhausted = overflows = fallbacks = 0
    for K, N, P in _OVERFLOW_GRID:
        spec = AccumulatorSpec(P)
        batch = _channel_batch(rng, _N_RANDOM, K)
        for idx, signed, res in _quantized_groups(batch, N, P, Variant.A2Q_PLUS):
            live = ~res.degenerate
            if live.any():
                w = res.w[live]  # constrained real weights before rounding
                assert verify_domination(w, res.s[live], res.q[live])
                if K < 2:
                    # single-element channels keep the uncentered budget by contract
                    assert res.variant is Variant.A2Q
                    fallbacks += int(live.sum())
                else:
                    assert res.variant is Variant.A2Q_PLUS
                    tol = K * 1e-12 * np.maximum(1.0, np.abs(w).sum(axis=1))
                    assert np.all(np.abs(w.sum(axis=1)) <= tol)
            over, full = _check_overflow_freedom(res, idx, N, signed, spec)
            overflows += over
            exhausted += full
            checked += idx.size
    assert overflows == 0
    _passed(
        capsys, t0, 300.0, "criterion 3",
        f"{checked:,} random channels, zero overflows; zero-sum within K*1e-12*mass and "
        f"rescaled codes dominated everywhere; {exhausted:,} checked over every input vector",
    )


# ---------------------------------------------------------------------------
# criterion 4: the closed form matches brute force exactly, and the oracle's witnesses reach it


def test_criterion_04_extremal_oracle_agreement(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240204)
    spec = AccumulatorSpec(P=8)  # the register width only sets the fits flags
    for trial in range(10_000):
        K = int(rng.integers(1, 5))
        N = int(rng.integers(1, 4))
        signed = bool(rng.integers(0, 2))
        if trial % 1000 == 0:
            q = [0] * K  # degenerate row, worth pinning
        else:
            q = rng.integers(-40, 41, size=K).tolist()
        hi, lo = brute_extremes(q, N, signed)
        cert = check_accumulator(q, N, signed, spec)
        assert (cert.true_max, cert.true_min) == (hi, lo)
        wit = exhaustive_check(q, N, signed, spec)
        assert exact_dot(wit.witness_x_max, q) == hi
        assert exact_dot(wit.witness_x_min, q) == lo
    _passed(
        capsys, t0, 120.0, "criterion 4",
        "10,000 random integer channels (K<=4, N<=3): brute-force max/min equal the "
        "closed form exactly, and the exhaustive oracle's witness inputs reach them",
    )


# ---------------------------------------------------------------------------
# criterion 5: the centered budget is exactly tight, in both directions


def _first_unbalanced_overflow(m: int, N: int, P: int):
    spec = AccumulatorSpec(P)
    for l1 in range(m, 0, -1):
        for K in range(1, 5):
            for q in iter_l1_vectors(K, l1):
                if sum(q) == 0:
                    continue
                if check_accumulator(q, N, False, spec).overflowed:
                    return q
    return None


def test_criterion_05_budget_strictness_witnesses(capsys):
    t0 = time.perf_counter()
    cells = [(P, N) for P in range(2, 9) for N in range(1, 4)]
    vacuous = {c for c in cells if int(a2q_plus_limit(*c)) == 0}
    # cells whose budget is below one integer unit admit only the zero vector
    assert vacuous == {(2, 2), (2, 3), (3, 3)}
    for P, N in cells:
        if (P, N) in vacuous:
            continue
        spec = AccumulatorSpec(P)
        m = int(a2q_plus_limit(P, N))
        m_zs = m - (m % 2)  # zero-sum vectors carry even l1 mass
        assert m_zs >= 2

        # (a) zero-sum vectors at the full budget accumulate safely
        at_budget = 0
        for K in range(2, 5):
            for q in itertools.islice(iter_zero_sum_vectors(K, m_zs), 100):
                assert not check_accumulator(q, N, False, spec).overflowed
                at_budget += 1
        assert at_budget > 0

        # (b) one unit past the budget an overflowing vector exists
        over = None
        for K in range(1, 5):
            over = find_overflow_witness(K, m + 1, N, False, P)
            if over is not None:
                break
        assert over is not None
        assert sum(abs(x) for x in over) == m + 1
        assert check_accumulator(over, N, False, spec).overflowed

        # (c) dropping the zero-sum hypothesis breaks the budget from inside
        inside = _first_unbalanced_overflow(m, N, P)
        assert inside is not None
        assert sum(abs(x) for x in inside) <= m and sum(inside) != 0
        assert check_accumulator(inside, N, False, spec).overflowed
    _passed(
        capsys, t0, 120.0, "criterion 5",
        f"{len(cells) - len(vacuous)} (P,N) cells: budget-edge zero-sum safe, budget+1 "
        f"overflows, unbalanced in-budget overflows; sub-unit budgets {sorted(vacuous)} "
        "admit only q=0",
    )


# ---------------------------------------------------------------------------
# criterion 6: the projection is the optimum, not just a feasible point


def _subgradient_min(w: np.ndarray, T: float, iters: int = 60) -> np.ndarray:
    # plain projected gradient descent on 1/2||x-w||^2, projecting by bisection
    x = np.zeros_like(w)
    for _ in range(iters):
        x = project_l1_bisect(x - 0.6 * (x - w), T, iters=80)
    return x


def _subgradient_min_rows(W: np.ndarray, T: np.ndarray, iters: int = 60) -> np.ndarray:
    # _subgradient_min on every row of a (B, K) stack at once, row i under T[i]
    x = np.zeros_like(W)
    for _ in range(iters):
        x = project_l1_bisect_rows(x - 0.6 * (x - W), T, iters=80)
    return x


def _half_sq(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum((a - b) ** 2))


def test_criterion_06_projection_optimality(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240206)
    trials = []
    for trial in range(1000):
        K = int(rng.integers(1, 5))
        w = rng.normal(size=K) * (10.0 ** rng.uniform(-1.0, 1.0))
        n1 = float(np.abs(w).sum())
        trials.append((w, n1, n1 * float(rng.uniform(0.15, 1.25))))
    # both oracles run on all trials at once, each trial a row padded to K=4
    # with zeros, which leaves every sum, max and projection unchanged; the
    # first 50 rows are checked bit for bit against the one-trial oracles
    W = np.zeros((len(trials), 4))
    for row, (w, _, _) in zip(W, trials):
        row[: len(w)] = w
    radii = np.array([T for _, _, T in trials])
    oracles = (project_l1_bisect_rows(W, radii), _subgradient_min_rows(W, radii))
    for i, (w, _, T) in enumerate(trials[:50]):
        for got, want in zip((o[i] for o in oracles), (project_l1_bisect(w, T), _subgradient_min(w, T))):
            assert got[: len(w)].tobytes() == want.tobytes() and not got[len(w) :].any()
    boundary = 0
    worst = 0.0
    for i, (w, n1, T) in enumerate(trials):
        res = project_l1_ball(w, T)
        got = _half_sq(res.v_star, w)
        assert float(np.abs(res.v_star).sum()) <= T * (1.0 + 1e-12)
        best = min(_half_sq(o[i, : len(w)], w) for o in oracles)
        assert abs(got - best) <= 1e-6
        worst = max(worst, abs(got - best))
        if n1 > T:
            assert res.active
            assert abs(float(np.abs(res.v_star).sum()) - T) <= 1e-9
            boundary += 1
        else:
            assert not res.active and got == 0.0
    n_cvx = 0
    if cvxpy is not None:
        rng = np.random.default_rng(20240260)
        for trial in range(40):
            K = int(rng.integers(2, 5))
            w = rng.normal(size=K)
            T = 0.6 * float(np.abs(w).sum())
            got = _half_sq(project_l1_ball(w, T).v_star, w)
            v = cvxpy.Variable(K)
            prob = cvxpy.Problem(
                cvxpy.Minimize(0.5 * cvxpy.sum_squares(v - w)), [cvxpy.norm1(v) <= T]
            )
            prob.solve()
            assert abs(got - float(prob.value)) <= 1e-6 * max(1.0, got)
            n_cvx += 1
    _passed(
        capsys, t0, 180.0, "criterion 6",
        f"1,000 projections within 1e-6 of the best oracle point (worst {worst:.1e}); "
        f"boundary exact to 1e-9 on {boundary} active trials; "
        + (f"{n_cvx} cvxpy cross-solves agree" if n_cvx else "cvxpy not installed"),
    )


# ---------------------------------------------------------------------------
# criterion 7: projecting beats shrink-to-fit scaling, and more so as the
# budget tightens.  The every-trial guarantee is a property of the projection
# itself, so it is checked on the init weights before rounding, where the
# budget-clip argument is exact.  The widening advantage is a statement about
# quantized weights: truncation toward zero wipes out uniformly shrunk values
# long before it hurts the projected ones, so the averaged gap is measured
# after the integer grid.


def test_criterion_07_projection_init_dominance(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240207)
    M = 4
    lo, hi = int_range(M, signed=True)
    fracs = (0.5, 0.25, 0.125)
    pre_trials = 0
    grid_gaps: dict[float, list[float]] = {f: [] for f in fracs}
    for trial in range(1000):
        K = int(rng.integers(4, 65))
        w = rng.normal(size=K)
        s = float(max_abs_scales(np.abs(w)[None], M)[0])
        n1 = float(np.abs(w).sum())
        for frac in fracs:
            T = frac * n1
            ep_pre = project_l1_ball(w, T).v_star
            nv_pre = w * (T / n1)  # what the budget gate leaves of an unprojected init
            assert weight_quant_error(ep_pre, w, normalized=True) <= weight_quant_error(
                nv_pre, w, normalized=True
            )
            pre_trials += 1
            q_ep = np.clip(round_to_zero(ep_pre / s), lo, hi)
            q_nv = np.clip(round_to_zero(nv_pre / s), lo, hi)
            grid_gaps[frac].append(
                weight_quant_error(s * q_nv, w, normalized=True)
                - weight_quant_error(s * q_ep, w, normalized=True)
            )
    assert pre_trials == 3000
    means = [float(np.mean(grid_gaps[f])) for f in fracs]
    assert all(m > 0.0 for m in means)
    assert means[0] <= means[1] <= means[2]
    _passed(
        capsys, t0, 60.0, "criterion 7",
        f"1,000 channels x 3 budgets: projection never loses before rounding; "
        f"quantized-gap curve {means[0]:.3f} <= {means[1]:.3f} <= {means[2]:.3f} "
        "as the budget halves from ||w||_1/2 to ||w||_1/8",
    )


# ---------------------------------------------------------------------------
# criterion 8: the hand-written backward pass against central differences


def test_criterion_08_gradient_check(capsys):
    t0 = time.perf_counter()
    errs = []
    for seed in range(400):
        rel = fd_relative_errors(seed)
        if rel is None:
            continue  # draw landed too close to a kink for a clean probe
        errs.append(rel)
        if len(errs) == 20:
            break
    assert len(errs) == 20
    worst = max(errs)
    assert worst < 1e-5
    _passed(
        capsys, t0, 60.0, "criterion 8",
        f"20 conditioned random nets: worst finite-difference relative error {worst:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 9: the toy trainer reproduces the directional claims


def _strict_warnings() -> None:
    """Make a pool worker fail on the warnings the suite's filterwarnings makes errors.

    pytest installs those filters only in its own process, and a spawned
    worker does not inherit them.
    """
    warnings.simplefilter("error", RuntimeWarning)
    warnings.simplefilter("error", DeprecationWarning)


def test_criterion_09_trainer_directional_claims(capsys, monkeypatch):
    t0 = time.perf_counter()
    seeds = range(10)
    variants = (Variant.A2Q, Variant.A2Q_PLUS)
    points = list(itertools.product(seeds, variants, (12, 16, 32)))
    configs = [
        TrainConfig(variant=variant, bits=BitWidths(4, 4, P, act_signed=False), epochs=200, seed=seed)
        for seed, variant, P in points
    ]
    float_configs = [
        TrainConfig(variant=Variant.A2Q, bits=BitWidths(4, 4, 32, act_signed=False), epochs=200, seed=seed)
        for seed in seeds
    ]
    # every run is a pure function of its config, so two worker processes
    # return the records a serial loop would; spawned workers start from a
    # fresh import, not from a fork of this test process, and run every fit
    # under the same warnings-as-errors filters as this one, and with one BLAS
    # and OpenMP thread unless the environment sets one, as accq.cli does
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var not in os.environ:
            monkeypatch.setenv(var, "1")
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn, initializer=_strict_warnings) as pool:
        for category in (RuntimeWarning, DeprecationWarning):
            with pytest.raises(category):
                pool.submit(warnings.warn, "probe", category).result()
        float_runs = pool.map(float_baseline, float_configs)
        records = list(pool.map(train, configs))
        float_loss = {seed: run.final_loss for seed, run in zip(seeds, float_runs)}
    loss = {(variant, P, seed): rec.final_loss for (seed, variant, P), rec in zip(points, records)}
    spars = {(variant, P, seed): rec.sparsity for (seed, variant, P), rec in zip(points, records)}

    # (a) at the tight register the centered budget should win most seeds
    a_wins = sum(
        loss[(Variant.A2Q_PLUS, 12, s)] <= loss[(Variant.A2Q, 12, s)] for s in seeds
    )
    assert a_wins >= 7

    # (b) tighter registers force more zero codes
    b_wins = {}
    for variant in variants:
        b_wins[variant] = sum(
            spars[(variant, 12, s)] > spars[(variant, 16, s)] for s in seeds
        )
        assert b_wins[variant] >= 8

    # (c) with a roomy register both variants land near the float reference
    mean_float = float(np.mean([float_loss[s] for s in seeds]))
    ratios = {}
    for variant in variants:
        mean_q = float(np.mean([loss[(variant, 32, s)] for s in seeds]))
        ratios[variant] = mean_q / mean_float
        assert ratios[variant] <= 1.05

    _passed(
        capsys, t0, 900.0, "criterion 9",
        f"seeds 0-9, W4A4: (a) centered wins at P=12 in {a_wins}/10; "
        f"(b) sparsity rises 16->12 in {b_wins[Variant.A2Q]}/10 and "
        f"{b_wins[Variant.A2Q_PLUS]}/10; (c) P=32 loss ratios "
        f"{ratios[Variant.A2Q]:.4f} / {ratios[Variant.A2Q_PLUS]:.4f} <= 1.05",
    )


# ---------------------------------------------------------------------------
# criterion 10: the conservative width is safe for every representable input


def _full_grid(lo: int, hi: int, K: int) -> np.ndarray:
    vals = np.arange(lo, hi + 1, dtype=np.int64)
    grids = np.meshgrid(*([vals] * K), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def test_criterion_10_conservative_width_safety(capsys):
    t0 = time.perf_counter()
    pairs = 0
    cells = 0
    for K in range(1, 5):
        for M in range(2, 5):
            for N in range(1, 4):
                for signed in (False, True):
                    P = min_acc_width(K, M, N, signed)
                    reg_lo, reg_hi = -(1 << (P - 1)), (1 << (P - 1)) - 1
                    Q = _full_grid(-(1 << (M - 1)), (1 << (M - 1)) - 1, K)
                    X = _full_grid(*int_range(N, signed), K)
                    gmax, gmin = -(1 << 62), 1 << 62
                    for i in range(0, len(Q), 8192):
                        dots = Q[i : i + 8192] @ X.T
                        gmax = max(gmax, int(dots.max()))
                        gmin = min(gmin, int(dots.min()))
                    assert reg_lo <= gmin and gmax <= reg_hi
                    pairs += len(Q) * len(X)
                    cells += 1
    _passed(
        capsys, t0, 300.0, "criterion 10",
        f"{pairs:,} (q,x) dot products across {cells} (K,M,N,signedness) cells, "
        "none leave the conservative register",
    )


# ---------------------------------------------------------------------------
# criterion 11: identical flags give byte-identical sweep rows


def test_criterion_11_train_cli_determinism(capsys):
    t0 = time.perf_counter()
    argv = [
        "train", "--variant", "a2q+", "--M", "4", "--N", "4", "--P", "12",
        "--seed", "0,1", "--epochs", "5",
    ]
    assert cli.main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli.main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    for row in lines[1:]:
        rec = SweepRecord.from_csv_row(row)
        assert rec.variant == Variant.A2Q_PLUS.value
    _passed(
        capsys, t0, 120.0, "criterion 11",
        "repeated train invocations with identical flags emit byte-identical CSV rows",
    )
