"""Command-line front end.

Subcommands: bounds (budget arithmetic), project (l1-ball projection),
verify (overflow certificates), train (sweeps of the toy trainer, CSV out),
analyze (feasibility curve of a checkpoint), pareto (the lowest-loss record
per variant and P of a sweep CSV).

Exit codes: 0 success, 2 usage, 3 bad input (an unreadable or malformed
input, weights whose l1 mass leaves float range, an unwritable --out file,
an out-of-range bit width, batch size, epoch count, --jobs count, --lr,
--weight-decay or --lambda-reg, or a negative seed) or a training run that
diverged, 4 verification failure (an overflow), 5 verify --exhaustive met a
channel past the exhaustive oracle's limits (over 2^24 input vectors, or a span
of reachable sums over 2^22).
Every subcommand is deterministic given its flags and input files.

main parses argv once: when argv[0] names a subcommand, that subcommand's own
parser reads argv[1:]. Every other argv (none, -h, an unknown name, an option
before the subcommand), and any call that leaves arguments over, goes through
the top-level parser, so help, usage and "unrecognized arguments" messages
are argparse's own. The parsers are built on the first call, not at import.
verify --weights and pareto --records read their file, or stdin for "-", as
UTF-8 bytes whatever the locale.

Each subcommand imports what it runs, inside its cmd_* function: this module
loads only accq.bounds, accq.errors and accq.intsim, which is all that bounds
and verify use, so a one-file `accq verify` never compiles the trainer.
project imports accq.epinit, train, analyze and pareto accq.qat, and
train --jobs N > 1 the process pool.
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

# one BLAS and OpenMP thread unless the caller set one: the trainer multiplies
# 16-wide matrices, which a thread pool only slows; numpy builds its pools on
# first import, so this runs before it and reaches --jobs workers too
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np

from .bounds import BitWidths, a2q_limit, a2q_plus_limit, bound_ratio, min_acc_width
from .errors import (
    DivergenceError,
    EnumerationBudgetError,
    InvalidBitWidthError,
    NonFiniteInputError,
    NonPositiveRadiusError,
)
from .intsim import AccumulatorSpec, Certificate, certify

if TYPE_CHECKING:
    from .qat import TrainConfig

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_VERIFY = 4
EXIT_BUDGET = 5

# names to quantizers.Variant values, which _build_grid turns into members
_VARIANTS = {"a2q": "a2q", "a2q+": "a2q+", "a2q_plus": "a2q+"}
# the train flags, in help order, and their types; none has a default here, TrainConfig's fields hold them
_CONFIG_FLAGS = (("lr", float), ("weight_decay", float), ("lambda_reg", float), ("epochs", int), ("batch_size", int))


class _InputError(Exception):
    """Bad input file or value: reported on stderr, exit code 3."""


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


def _read_text(path: str) -> str:
    """The file at path, or stdin for "-", as strict UTF-8 whatever the locale, "\r\n" and "\r" read as "\n"."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as f:
                data = f.read()
        text = data.decode()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeError as exc:
        raise _InputError(f"cannot read {path}: not UTF-8 text") from exc
    # a scan for "\r" costs about 1% of a rewrite that finds none
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


# ---------------------------------------------------------------- bounds

def cmd_bounds(ns: argparse.Namespace) -> int:
    if ns.ratio:
        if ns.N is None:
            ns.parser.error("--ratio needs --N")
        r = bound_ratio(ns.N, ns.signed)
        print(json.dumps({"bound_ratio": str(r)}) if ns.json else r)
        return EXIT_OK
    if ns.width:
        if ns.K is None or ns.M is None or ns.N is None:
            ns.parser.error("--width needs --K, --M and --N")
        p_star = min_acc_width(ns.K, ns.M, ns.N, ns.signed)
        print(json.dumps({"min_acc_width": p_star}) if ns.json else p_star)
        return EXIT_OK
    if ns.P is None or ns.N is None:
        ns.parser.error("need --P and --N (or --ratio / --width)")
    lim = a2q_limit(ns.P, ns.N, ns.signed)
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
        # integral floats print bare so vectors read like the integer codes they are
        print("[" + ",".join(str(int(v)) if v.is_integer() else repr(v) for v in res.v_star.tolist()) + "]")
    return EXIT_OK


# ---------------------------------------------------------------- verify

# one code per byte for the whole-file check: its low nibble is the byte's
# class, 1 ",", 2 sign, 4 digit, 8 "\n" and 0 any other; its high nibble the
# classes that may not follow it in a strict file: "," or "\n" after "," or a
# sign, a sign after a sign or a digit, "," after "\n"
_BAD_NEXT = {1: 1 | 8, 2: 1 | 2 | 8, 4: 2, 8: 1, 0: 0}
_BYTE_CODE = bytes(
    cls | _BAD_NEXT[cls] << 4
    for cls in (1 if ch == 44 else 2 if ch in b"+-" else 4 if 48 <= ch <= 57 else 8 if ch == 10 else 0 for ch in range(256))
)
_DIGIT = _BYTE_CODE[48:49]
_LINE_MARK = (1 << 63) - 1  # int64's top value, 19 digits long
# byte for byte json.dumps({"channel": i, **cert._asdict()}) of a Certificate,
# keyed in its field order; _cert_lines fills every field
_RECORD = "{" + ", ".join(f'"{key}": %s' for key in ("channel", *Certificate._fields)) + "}\n"
_JSON_BOOL = ("false", "true")


def _whole_file_rows(text: str) -> list[np.ndarray] | None:
    """Every channel of a file whose lines all read [+-]?[0-9]{1,18}(,[+-]?[0-9]{1,18})* or are empty, else None.

    One byte translation checks every line at once, and one np.fromstring
    parses them all, since codes of at most 18 ASCII digits fit int64.  Each
    row is a view of the flat array.
    """
    body = text.strip("\n")
    codes = body.encode().translate(_BYTE_CODE)
    # a digit ends the text and no comma starts it; no byte is other and no token has 19 digits
    if not codes.endswith(_DIGIT) or codes[0] & 1 or b"\0" in codes or _DIGIT * 19 in codes:
        return None
    # no byte is followed by a class it may not precede; substring tests for
    # the seven such pairs took 0.8 ms on a 52 kB file, this test 0.06 ms
    flags = np.frombuffer(codes, dtype=np.uint8)
    if ((flags[:-1] >> 4) & flags[1:]).any():
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
    # lines split at "\n" alone and keep their numbers in the file, blank ones
    # included; a file whose lines are all strict or empty is checked and
    # parsed whole, any other goes line by line, code by code
    text = _read_text(ns.weights)
    rows = _whole_file_rows(text)
    if rows is None:
        rows = _line_rows(text, ns.weights)
    # certify the whole file before printing, so a rejected file prints nothing,
    # then print it in one write
    certs = certify(rows, ns.N, ns.signed, AccumulatorSpec(P=ns.P), exhaustive=ns.exhaustive)
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
    Ps = None if ns.P == "auto" else _parse_int_list(ns.P, "--P")
    k_star = max(TeacherStudentSpec().dims()[:-1])
    # the auto P list depends on (M, N), so the widths are listed first
    widths = [(M, N, P) for M, N in itertools.product(Ms, Ns) for P in Ps or _auto_P(M, N, k_star)]
    given = {name: getattr(ns, name) for name, _ in _CONFIG_FLAGS if name in ns}
    return [
        TrainConfig(
            variant=variant,
            bits=BitWidths(M=M, N=N, P=P),
            seed=seed,
            **given,
        )
        for variant, (M, N, P), seed in itertools.product(variants, widths, seeds)
    ]


def _record_text(records: list, as_json: bool) -> str:
    """SweepRecords as train and pareto print them: JSON lines, or the CSV header and rows."""
    from .qat import CSV_HEADER

    lines = [r.to_json() for r in records] if as_json else [CSV_HEADER] + [r.csv_row() for r in records]
    return "\n".join(lines) + "\n"


def cmd_train(ns: argparse.Namespace) -> int:
    from .qat import SweepRecord, train

    if ns.jobs < 1:
        raise _InputError(f"--jobs must be at least 1, got {ns.jobs}")
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
    text = _record_text(records, ns.json)
    if ns.out:
        try:
            Path(ns.out).write_text(text)
        except OSError as exc:
            raise _InputError(f"cannot write {ns.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------- analyze

def _checkpoint_layers(path: str) -> list[np.ndarray]:
    """A checkpoint's layers as (C, K) float arrays: its weights, or a quantized one's pre-round weights."""
    from .qat import load_checkpoint, quantize_network

    try:
        kind, payload = load_checkpoint(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the parser recurses
        raise _InputError(f"bad checkpoint {path}: {exc}") from exc
    try:
        # a quantized one gives one record per fan-in group; channel_cdf only counts rows, so their order is free
        layers = payload if kind == "float" else [quant.w for quant in quantize_network(payload)]
    except OverflowError as exc:
        raise _InputError(f"bad checkpoint {path}: a norm or scale exponent leaves float range") from exc
    return layers


def cmd_analyze(ns: argparse.Namespace) -> int:
    from .qat import channel_cdf

    if ns.pmin < 2 or ns.pmax < ns.pmin:
        ns.parser.error("need 2 <= pmin <= pmax")
    bits = BitWidths(M=ns.M, N=ns.N, P=ns.pmax, act_signed=ns.signed)
    layers = _checkpoint_layers(ns.ckpt)
    try:
        curve = channel_cdf(layers, bits, p_range=range(ns.pmin, ns.pmax + 1))
    except ValueError as exc:
        # no channels, a nonzero one too small for its max-abs scale at M, or one whose l1 mass overflows
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
    best: dict[tuple[str, int], SweepRecord] = {}
    for rec in sorted(records, key=SweepRecord.sort_key):
        key = (rec.variant, rec.P)
        if key not in best or rec.final_loss < best[key].final_loss:
            best[key] = rec
    frontier = sorted(best.values(), key=lambda r: (r.P, r.variant))
    sys.stdout.write(_record_text(frontier, ns.json))
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

    v = subs.add_parser("verify", help="overflow certificates for integer channels")
    v.add_argument("--weights", required=True, help="file of channels, one comma-separated integer-code row per line")
    v.add_argument("--P", type=int, required=True, help="accumulator bits")
    v.add_argument("--N", type=int, required=True, help="activation bits")
    _add_signedness(v)
    v.add_argument("--exhaustive", action="store_true", help="force the exhaustive oracle (exit 5 past its limits)")
    # verify has no other output form; --json is accepted so every subcommand takes it
    v.add_argument("--json", action="store_true", help="no effect: verify always prints JSON lines")

    t = subs.add_parser("train", help="run toy QAT sweep points and emit SweepRecord CSV")
    t.add_argument("--variant", default="a2q", help="comma list: a2q, a2q+ (alias a2q_plus)")
    t.add_argument("--M", default="4", help="comma list of weight bit widths")
    t.add_argument("--N", default="4", help="comma list of activation bit widths")
    t.add_argument("--P", default="16", help='comma list of accumulator widths, or "auto" for P* down to P*-10')
    t.add_argument("--seed", default="0", help="comma list of seeds")
    for name, kind in _CONFIG_FLAGS:
        t.add_argument("--" + name.replace("_", "-"), type=kind, default=argparse.SUPPRESS)
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
        help="best record of a sweep CSV: per (variant, P) the lowest final loss",
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


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser by name, read from the cached top-level parser."""
    (subs,) = build_parser()._subparsers._group_actions
    return subs.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _subcommands().get(argv[0]) if argv else None
    if sub is not None:
        # the top-level parser hands a subcommand's parser exactly argv[1:]
        ns, extra = sub.parse_known_args(argv[1:], argparse.Namespace(cmd=argv[0]))
    if sub is None or extra:
        # help, usage and "unrecognized arguments" come from the top-level parse, as they always have
        ns = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a patched cmd_* module attribute is the one run
        return globals()[f"cmd_{ns.cmd}"](ns)
    except (_InputError, InvalidBitWidthError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
