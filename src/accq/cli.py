"""Command-line front end.

Subcommands: bounds (budget arithmetic), project (l1-ball projection),
verify (overflow certificates and the derivation self-checks), train
(sweeps of the toy trainer, CSV out), analyze (feasibility curve of a
checkpoint), pareto (frontier extraction from sweep CSV).

Exit codes: 0 success, 2 usage, 3 bad input (an unreadable or malformed
input, an unwritable --out file, an out-of-range bit width, batch size or
epoch count, a negative seed, or an ACCQ_ENUM_BUDGET that is not a
non-negative integer) or a training run that diverged, 4 verification
failure (an overflow or a failed derivation), 5 enumeration budget exceeded.
Every subcommand is deterministic given its flags, input files, and
ACCQ_ENUM_BUDGET.

Each subcommand imports what it runs, inside its cmd_* function: this module
loads only accq.bounds, accq.errors and accq.intsim, which is all that bounds
and verify (without --props) use, so a one-file `accq verify` never compiles
the trainer.  project imports accq.epinit, train, analyze and pareto
accq.qat, verify --props accq.props, and train --jobs N > 1 the process pool.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .bounds import BitWidths, a2q_limit, a2q_plus_limit, bound_ratio, min_acc_width
from .errors import (
    DivergenceError,
    EnumerationBudgetError,
    InvalidBitWidthError,
    InvalidBudgetError,
    NonFiniteInputError,
    NonPositiveRadiusError,
)
from .intsim import AccumulatorSpec, Certificate, certify

if TYPE_CHECKING:
    from .qat import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VERIFY = 4
EXIT_BUDGET = 5

# names to quantizers.Variant values, which _build_grid turns into members
_VARIANTS = {"a2q": "a2q", "a2q+": "a2q+", "a2q_plus": "a2q+"}


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
    try:
        if path == "-":
            # fold "\r\n" and "\r" to "\n" as read_text does, which POSIX stdin does not
            text = sys.stdin.read().replace("\r\n", "\n").replace("\r", "\n")
            # the C locale reads stdin's non-UTF-8 bytes as lone surrogates, which encode() rejects
            text.encode()
            return text
        return Path(path).read_text()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeError as exc:
        raise _InputError(f"cannot read {path}: not UTF-8 text") from exc


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
    from .epinit import project_l1_ball

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

# byte classes of the whole-file check, as bit flags: 1 ",", 2 sign, 4 digit, 8 other, 16 "\n"
_BYTE_CLASS = bytes(
    1 if ch == 44 else 2 if ch in b"+-" else 4 if 48 <= ch <= 57 else 16 if ch == 10 else 8 for ch in range(256)
)
# the classes that may not follow each byte of a strict file: "," or "\n"
# after "," or a sign, a sign after a sign or a digit, "," after "\n"
_BAD_NEXT = bytes({1: 1 | 16, 2: 1 | 2 | 16, 4: 2, 8: 0, 16: 1}[cls] for cls in _BYTE_CLASS)
_LINE_MARK = (1 << 63) - 1  # int64's top value, 19 digits long
# byte for byte json.dumps({"channel": i, **cert._asdict()}) of a Certificate,
# keyed in its field order; _cert_lines fills every field
_RECORD = "{" + ", ".join(f'"{key}": %s' for key in ("channel", *Certificate._fields)) + "}\n"
_JSON_BOOL = ("false", "true")


def _whole_file_rows(text: str) -> list[np.ndarray] | None:
    """Every channel of a file whose lines all read [+-]?[0-9]{1,18}(,[+-]?[0-9]{1,18})* or are empty, else None.

    Two byte translations check every line at once, and one np.fromstring
    parses them all, since codes of at most 18 ASCII digits fit int64.  Each
    row is a view of the flat array.
    """
    body = text.strip("\n")
    raw = body.encode()
    classes = raw.translate(_BYTE_CLASS)
    # a digit ends the text and no comma starts it; no byte is other and no token has 19 digits
    if not classes.endswith(b"\4") or classes[0] & 1 or b"\x08" in classes or b"\4" * 19 in classes:
        return None
    # no byte is followed by a class it may not precede; substring tests for
    # the seven such pairs took 0.8 ms on a 52 kB file, this test 0.06 ms
    bad_next = np.frombuffer(raw.translate(_BAD_NEXT), dtype=np.uint8)
    if (bad_next[:-1] & np.frombuffer(classes, dtype=np.uint8)[1:]).any():
        return None
    # blank lines drop out, and no strict code has 19 digits, so none can be
    # the mark that ends each line
    flat = np.fromstring(f",{_LINE_MARK},".join(filter(None, body.split("\n"))), dtype=np.int64, sep=",")
    marks = np.flatnonzero(flat == _LINE_MARK).tolist()
    return [flat[start + 1 : end] for start, end in zip([-1, *marks], [*marks, flat.size])]


def _line_rows(text: str, path: str) -> list[list[int]]:
    """Every channel of any file, code by code with int(), with errors naming the physical line."""
    rows = []
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        try:
            codes = [int(p) for p in line.split(",") if p.strip()]
        except ValueError as exc:
            raise _InputError(f"{path}:{lineno}: integer codes expected: {exc}") from exc
        if not codes:
            raise _InputError(f"{path}:{lineno}: empty channel")
        rows.append(codes)
    if not rows:
        raise _InputError(f"{path} holds no channels")
    return rows


def _cert_lines(certs) -> str:
    return "".join(
        _RECORD % (i, c.K, c.true_max, c.true_min, _JSON_BOOL[c.overflowed], _JSON_BOOL[c.exhaustive])
        for i, c in enumerate(certs)
    )


def cmd_verify(ns: argparse.Namespace) -> int:
    if ns.props:
        from .props import self_check

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
    # lines split at "\n" alone and keep their numbers in the file, blank ones
    # included; a file whose lines are all strict or empty is checked and
    # parsed whole, any other goes line by line, code by code
    text = _read_text(ns.weights)
    rows = _whole_file_rows(text)
    if rows is None:
        rows = _line_rows(text, ns.weights)
    # certify the whole file before printing, so a rejected file prints nothing,
    # then print it in one write
    certs = certify(rows, ns.N, bool(ns.signed), AccumulatorSpec(P=ns.P), exhaustive=ns.exhaustive)
    sys.stdout.write(_cert_lines(certs))
    return EXIT_VERIFY if any(cert.overflowed for cert in certs) else EXIT_OK


# ---------------------------------------------------------------- train

def _auto_P(M: int, N: int, k_star: int) -> list[int]:
    # the narrowest register no interior (M, N) layer at the sweep's fan-in
    # can overflow, then down 10 bits; the 8-bit edge layers need more
    # (min_acc_width(16, 8, 8) = 21 against min_acc_width(16, 4, 4) = 13),
    # so every auto P constrains the edges more than the interior
    p_star = min_acc_width(k_star, M, N, False)
    return sorted({max(2, p_star - i) for i in range(11)})


def _build_grid(ns: argparse.Namespace) -> list[TrainConfig]:
    from .qat import TeacherStudentSpec, TrainConfig
    from .quantizers import Variant

    variants = []
    for name in ns.variant.split(","):
        key = name.strip().lower()
        if key not in _VARIANTS:
            ns.parser.error(f"unknown variant {name!r} (choose from {sorted(_VARIANTS)})")
        variants.append(Variant(_VARIANTS[key]))
    Ms = _parse_int_list(ns.M, "--M")
    Ns = _parse_int_list(ns.N, "--N")
    seeds = _parse_int_list(ns.seed, "--seed")
    _check_seeds(seeds)
    Ps = None if ns.P == "auto" else _parse_int_list(ns.P, "--P")
    k_star = max(TeacherStudentSpec().dims()[:-1])
    # the auto P list depends on (M, N), so the widths are listed first
    widths = [(M, N, P) for M, N in itertools.product(Ms, Ns) for P in Ps or _auto_P(M, N, k_star)]
    return [
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
        for variant, (M, N, P), seed in itertools.product(variants, widths, seeds)
    ]


def cmd_train(ns: argparse.Namespace) -> int:
    from .qat import CSV_HEADER, SweepRecord, train

    try:
        configs = _build_grid(ns)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if ns.out:
        # fail before training; appending keeps an existing file's bytes
        made = not os.path.lexists(ns.out)
        try:
            open(ns.out, "a").close()
        except OSError as exc:
            raise _InputError(f"cannot write {ns.out}: {exc}") from exc
        if made:
            os.remove(ns.out)
    if ns.jobs > 1 and len(configs) > 1:
        from concurrent.futures import ProcessPoolExecutor

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
        try:
            Path(ns.out).write_text(text)
        except OSError as exc:
            raise _InputError(f"cannot write {ns.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------- analyze

def _checkpoint_rows(path: str) -> list[np.ndarray]:
    from .qat import load_checkpoint, quantize_network

    try:
        kind, payload = load_checkpoint(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the parser recurses
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
    from .qat import channel_cdf

    rows = _checkpoint_rows(ns.ckpt)
    if ns.pmin < 2 or ns.pmax < ns.pmin:
        ns.parser.error("need 2 <= pmin <= pmax")
    bits = BitWidths(M=ns.M, N=ns.N, P=max(ns.pmax, 2), act_signed=bool(ns.signed))
    try:
        curve = channel_cdf(rows, bits, p_range=range(ns.pmin, ns.pmax + 1))
    except NonFiniteInputError as exc:
        # a nonzero channel too small for its max-abs scale at M
        raise _InputError(f"bad checkpoint {ns.ckpt}: {exc}") from exc
    for P, frac in curve:
        if ns.json:
            print(json.dumps({"P": P, "fraction": frac}))
        else:
            print(f"{P} {frac:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------- pareto

def cmd_pareto(ns: argparse.Namespace) -> int:
    from .qat import CSV_HEADER, SweepRecord

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


def _add_signedness(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_mutually_exclusive_group()
    grp.add_argument("--signed", action="store_true", help="signed activations")
    grp.add_argument("--unsigned", dest="signed", action="store_false", help="unsigned activations (default)")
    sub.set_defaults(signed=False)


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
    _add_signedness(b)
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
    _add_signedness(v)
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
    _add_signedness(a)
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
