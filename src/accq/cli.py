"""Command-line front end.

Subcommands: bounds (budget arithmetic), project (l1-ball projection),
verify (overflow certificates and the derivation self-checks), train
(sweeps of the toy trainer, CSV out), analyze (feasibility curve of a
checkpoint), pareto (frontier extraction from sweep CSV).

Exit codes: 0 success, 2 usage, 3 bad input (an unreadable or malformed
input, an out-of-range bit width, batch size or epoch count, a negative
seed, or an ACCQ_ENUM_BUDGET that is not a non-negative integer) or a
training run that diverged, 4 verification failure (an overflow
or a failed derivation), 5 enumeration budget exceeded.  Every subcommand is
deterministic given its flags, input files, and ACCQ_ENUM_BUDGET.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .bounds import BitWidths, a2q_limit, a2q_plus_limit, bound_ratio, min_acc_width
from .epinit import project_l1_ball
from .errors import (
    DivergenceError,
    EnumerationBudgetError,
    InvalidBitWidthError,
    InvalidBudgetError,
    NonFiniteInputError,
    NonPositiveRadiusError,
)
from .intsim import AccumulatorSpec, certify
from .props import self_check
from .qat import (
    CSV_HEADER,
    SweepRecord,
    TeacherStudentSpec,
    TrainConfig,
    channel_cdf,
    load_checkpoint,
    quantize_network,
    train,
)
from .quantizers import Variant

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VERIFY = 4
EXIT_BUDGET = 5

_VARIANTS = {"a2q": Variant.A2Q, "a2q+": Variant.A2Q_PLUS, "a2q_plus": Variant.A2Q_PLUS}


class _InputError(Exception):
    """Bad input file or value: reported on stderr, exit code 3."""


def _fmt(x: float) -> str:
    # integral floats print bare so vectors read like the integer codes they are
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _parse_floats(text: str) -> np.ndarray:
    try:
        vals = [float(p) for p in text.replace(";", ",").split(",") if p.strip()]
    except ValueError as exc:
        raise _InputError(f"cannot parse weights: {exc}") from exc
    if not vals:
        raise _InputError("empty weight list")
    return np.asarray(vals, dtype=float)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        vals = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise _InputError(f"{flag} wants comma-separated integers: {exc}") from exc
    if not vals:
        raise _InputError(f"{flag} is empty")
    return vals


def _check_seeds(seeds: list[int]) -> None:
    # numpy's generators reject negative seeds with a bare ValueError
    bad = [s for s in seeds if s < 0]
    if bad:
        raise _InputError(f"--seed must be non-negative, got {bad[0]}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------- bounds

def cmd_bounds(ns: argparse.Namespace) -> int:
    signed = bool(ns.signed)
    if ns.ratio:
        if ns.N is None:
            ns.parser.error("--ratio needs --N")
        r = bound_ratio(ns.N, signed)
        print(json.dumps({"bound_ratio": str(r)}) if ns.json else r)
        return EXIT_OK
    if ns.width:
        if ns.K is None or ns.M is None or ns.N is None:
            ns.parser.error("--width needs --K, --M and --N")
        p_star = min_acc_width(ns.K, ns.M, ns.N, signed)
        print(json.dumps({"min_acc_width": p_star}) if ns.json else p_star)
        return EXIT_OK
    if ns.P is None or ns.N is None:
        ns.parser.error("need --P and --N (or --ratio / --width)")
    lim = a2q_limit(ns.P, ns.N, signed)
    lim_plus = a2q_plus_limit(ns.P, ns.N)
    if ns.json:
        print(json.dumps({"a2q_limit": str(lim), "a2q_plus_limit": str(lim_plus)}))
    else:
        print(f"a2q_limit {lim}")
        print(f"a2q_plus_limit {lim_plus}")
    return EXIT_OK


# ---------------------------------------------------------------- project

def cmd_project(ns: argparse.Namespace) -> int:
    w = _parse_floats(ns.weights)
    try:
        res = project_l1_ball(w, ns.radius)
    except (NonPositiveRadiusError, NonFiniteInputError) as exc:
        raise _InputError(str(exc)) from exc
    if ns.json:
        print(
            json.dumps(
                {"v_star": res.v_star.tolist(), "theta": res.theta, "active": res.active}
            )
        )
    else:
        print("[" + ",".join(_fmt(v) for v in res.v_star) + "]")
    return EXIT_OK


# ---------------------------------------------------------------- verify

def cmd_verify(ns: argparse.Namespace) -> int:
    if ns.props:
        _check_seeds([ns.seed])
        results = self_check(seed=ns.seed)
        ok = all(flag for _, flag in results)
        for name, flag in results:
            print(json.dumps({"check": name, "ok": flag}))
        return EXIT_OK if ok else EXIT_VERIFY
    if ns.weights is None:
        ns.parser.error("need --weights FILE or --props")
    if ns.P is None or ns.N is None:
        ns.parser.error("need --P and --N")
    lines = [ln for ln in _read_text(ns.weights).splitlines() if ln.strip()]
    if not lines:
        raise _InputError(f"{ns.weights} holds no channels")
    # a line of ASCII decimal codes of at most 18 digits each fits int64 and
    # parses whole in numpy; any other line keeps int()'s leniency and errors
    strict = re.compile(r"[+-]?[0-9]{1,18}(?:,[+-]?[0-9]{1,18})*").fullmatch
    rows = []
    for i, line in enumerate(lines):
        if strict(line):
            rows.append(np.fromstring(line, dtype=np.int64, sep=","))
            continue
        try:
            codes = [int(p) for p in line.split(",") if p.strip()]
        except ValueError as exc:
            raise _InputError(f"{ns.weights}:{i + 1}: integer codes expected: {exc}") from exc
        if not codes:
            raise _InputError(f"{ns.weights}:{i + 1}: empty channel")
        rows.append(codes)
    # certify the whole file before printing, so a rejected file prints nothing
    certs = certify(rows, ns.N, bool(ns.signed), AccumulatorSpec(P=ns.P), exhaustive=ns.exhaustive)
    for i, cert in enumerate(certs):
        print(json.dumps({"channel": i, **cert._asdict()}))
    return EXIT_VERIFY if any(cert.overflowed for cert in certs) else EXIT_OK


# ---------------------------------------------------------------- train

def _auto_P(M: int, N: int, k_star: int) -> list[int]:
    # widest lossless register for the sweep's fan-in, then down 10 bits
    p_star = min_acc_width(k_star, M, N, False)
    return sorted({max(2, p_star - i) for i in range(11)})


def _build_grid(ns: argparse.Namespace) -> list[TrainConfig]:
    variants = []
    for name in ns.variant.split(","):
        key = name.strip().lower()
        if key not in _VARIANTS:
            ns.parser.error(f"unknown variant {name!r} (choose from {sorted(_VARIANTS)})")
        variants.append(_VARIANTS[key])
    Ms = _parse_int_list(ns.M, "--M")
    Ns = _parse_int_list(ns.N, "--N")
    seeds = _parse_int_list(ns.seed, "--seed")
    _check_seeds(seeds)
    k_star = max(TeacherStudentSpec().dims()[:-1])
    configs = []
    for variant in variants:
        for M in Ms:
            for N in Ns:
                Ps = _auto_P(M, N, k_star) if ns.P == "auto" else _parse_int_list(ns.P, "--P")
                for P in Ps:
                    for seed in seeds:
                        configs.append(
                            TrainConfig(
                                variant=variant,
                                bits=BitWidths(M=M, N=N, P=P),
                                lr=ns.lr,
                                weight_decay=ns.weight_decay,
                                lambda_reg=ns.lambda_reg,
                                epochs=ns.epochs,
                                batch_size=ns.batch_size,
                                seed=seed,
                            )
                        )
    return configs


def cmd_train(ns: argparse.Namespace) -> int:
    try:
        configs = _build_grid(ns)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if ns.jobs > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=ns.jobs) as pool:
            records = list(pool.map(train, configs))
    else:
        records = [train(cfg) for cfg in configs]
    records.sort(key=SweepRecord.sort_key)
    if ns.json:
        lines = [r.to_json() for r in records]
    else:
        lines = [CSV_HEADER] + [r.csv_row() for r in records]
    text = "\n".join(lines) + "\n"
    if ns.out:
        Path(ns.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------- analyze

def _checkpoint_rows(path: str) -> list[np.ndarray]:
    try:
        kind, payload = load_checkpoint(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise _InputError(f"bad checkpoint {path}: {exc}") from exc
    if kind == "float":
        rows = [row for layer in payload for row in layer]
    else:
        try:
            # one record per fan-in group; channel_cdf only counts rows, so their order is free
            rows = [row for quant in quantize_network(payload) for row in quant.w]
        except OverflowError as exc:
            raise _InputError(f"bad checkpoint {path}: a norm or scale exponent leaves float range") from exc
    if not rows:
        raise _InputError(f"{path} holds no channels")
    return rows


def cmd_analyze(ns: argparse.Namespace) -> int:
    rows = _checkpoint_rows(ns.ckpt)
    if ns.pmin < 2 or ns.pmax < ns.pmin:
        ns.parser.error("need 2 <= pmin <= pmax")
    bits = BitWidths(M=ns.M, N=ns.N, P=max(ns.pmax, 2), act_signed=bool(ns.signed))
    curve = channel_cdf(rows, bits, p_range=range(ns.pmin, ns.pmax + 1))
    for P, frac in curve:
        if ns.json:
            print(json.dumps({"P": P, "fraction": frac}))
        else:
            print(f"{P} {frac:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------- pareto

def cmd_pareto(ns: argparse.Namespace) -> int:
    lines = [ln for ln in _read_text(ns.records).splitlines() if ln.strip()]
    if not lines:
        raise _InputError(f"{ns.records} is empty")
    if lines[0] != CSV_HEADER:
        raise _InputError(f"{ns.records}: first line must be the header {CSV_HEADER!r}")
    if len(lines) == 1:
        raise _InputError(f"{ns.records} has a header but no records")
    try:
        records = [SweepRecord.from_csv_row(ln) for ln in lines[1:]]
    except ValueError as exc:
        raise _InputError(f"{ns.records}: {exc}") from exc
    records.sort(key=SweepRecord.sort_key)
    best: dict[tuple[str, int], SweepRecord] = {}
    for rec in records:
        key = (rec.variant, rec.P)
        if key not in best or rec.final_loss < best[key].final_loss:
            best[key] = rec
    frontier = sorted(best.values(), key=lambda r: (r.P, r.variant))
    if ns.json:
        for r in frontier:
            print(r.to_json())
    else:
        print(CSV_HEADER)
        for r in frontier:
            print(r.csv_row())
    return EXIT_OK


# ---------------------------------------------------------------- wiring

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="machine output as JSON lines")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accq",
        description="Accumulator-aware quantization: bounds, projections, certificates, toy sweeps.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    b = subs.add_parser("bounds", help="print l1 budgets, the bound ratio, or the safe register width")
    b.add_argument("--P", type=int, help="accumulator bits")
    b.add_argument("--N", type=int, help="activation bits")
    b.add_argument("--M", type=int, help="weight bits (for --width)")
    b.add_argument("--K", type=int, help="dot-product length (for --width)")
    grp = b.add_mutually_exclusive_group()
    grp.add_argument("--signed", action="store_true", help="signed activations")
    grp.add_argument("--unsigned", dest="signed", action="store_false", help="unsigned activations (default)")
    b.set_defaults(signed=False)
    b.add_argument("--ratio", action="store_true", help="print the zero-sum budget ratio for --N")
    b.add_argument("--width", action="store_true", help="print the smallest safe accumulator width")
    _add_common(b)

    p = subs.add_parser("project", help="project a weight vector onto an l1 ball")
    p.add_argument("--weights", required=True, help='comma-separated floats, e.g. "3,1"')
    p.add_argument("--radius", type=float, required=True, help="l1 budget")
    _add_common(p)

    v = subs.add_parser("verify", help="overflow certificates for integer channels, or the derivation self-checks")
    v.add_argument("--weights", help="file of channels, one comma-separated integer-code row per line")
    v.add_argument("--P", type=int, help="accumulator bits")
    v.add_argument("--N", type=int, help="activation bits")
    grp = v.add_mutually_exclusive_group()
    grp.add_argument("--signed", action="store_true")
    grp.add_argument("--unsigned", dest="signed", action="store_false")
    v.set_defaults(signed=False)
    v.add_argument("--exhaustive", action="store_true", help="force the exhaustive sweep (exit 5 if over budget)")
    v.add_argument("--props", action="store_true", help="run the zero-sum derivation self-checks instead")
    v.add_argument("--seed", type=int, default=0, help="seed for --props sampling")
    # verify has no other output form; --json is accepted so every subcommand takes it
    v.add_argument("--json", action="store_true", help="no effect: verify always prints JSON lines")

    t = subs.add_parser("train", help="run toy QAT sweep points and emit SweepRecord CSV")
    t.add_argument("--variant", default="a2q", help="comma list: a2q, a2q+ (alias a2q_plus)")
    t.add_argument("--M", default="4", help="comma list of weight bit widths")
    t.add_argument("--N", default="4", help="comma list of activation bit widths")
    t.add_argument("--P", default="16", help='comma list of accumulator widths, or "auto" for P* down to P*-10')
    t.add_argument("--seed", default="0", help="comma list of seeds")
    t.add_argument("--lr", type=float, default=0.1)
    t.add_argument("--weight-decay", type=float, default=1e-4)
    t.add_argument("--lambda-reg", type=float, default=1e-3)
    t.add_argument("--epochs", type=int, default=40)
    t.add_argument("--batch-size", type=int, default=256)
    t.add_argument("--jobs", type=int, default=1, help="worker processes for independent sweep points")
    t.add_argument("--out", help="write CSV here instead of stdout")
    _add_common(t)

    a = subs.add_parser("analyze", help="feasibility curve of a checkpoint: fraction of channels inside the budget per P")
    a.add_argument("--ckpt", required=True, help="checkpoint JSON (quantized or float)")
    a.add_argument("--M", type=int, required=True, help="weight bits for the init scale")
    a.add_argument("--N", type=int, required=True, help="activation bits of the budget")
    grp = a.add_mutually_exclusive_group()
    grp.add_argument("--signed", action="store_true")
    grp.add_argument("--unsigned", dest="signed", action="store_false")
    a.set_defaults(signed=False)
    a.add_argument("--pmin", type=int, default=2)
    a.add_argument("--pmax", type=int, default=32)
    _add_common(a)

    f = subs.add_parser(
        "pareto",
        help="frontier of a sweep CSV: per (variant, P) the lowest final loss",
        epilog=(
            "The toy task is regression, so loss is the accuracy proxy and lower "
            "is better; a classification metric would invert the comparison."
        ),
    )
    f.add_argument("--records", required=True, help='sweep CSV path, or "-" for stdin')
    _add_common(f)

    for sub in (b, p, v, t, a, f):
        sub.set_defaults(parser=sub)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a patched cmd_* module attribute is the one run
        return globals()[f"cmd_{ns.cmd}"](ns)
    except (_InputError, InvalidBitWidthError, InvalidBudgetError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
