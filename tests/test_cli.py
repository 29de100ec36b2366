"""CLI: frozen examples, exit codes, determinism, pareto frontier rules."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accq import cli, intsim, qat
from accq.bounds import BitWidths
from accq.errors import DivergenceError
from accq.intsim import Certificate
from accq.qat import CSV_HEADER, SweepRecord, TrainConfig, fit
from accq.quantizers import Variant

from oracles import float_baseline, save_checkpoint, save_float_checkpoint


SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN_CSV = Path(__file__).parent / "data" / "train_golden.csv"
VERIFY_CHANNELS = Path(__file__).parent / "data" / "verify_channels.txt"
VERIFY_GOLDEN = Path(__file__).parent / "data" / "verify_golden.jsonl"


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def assert_input_error(capsys, *argv) -> str:
    """Exit 3 with a single `error:` line on stderr and nothing on stdout; returns that line."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    return captured.err


# ---------------------------------------------------------------- bounds

def test_bounds_frozen_limits(capsys):
    code, out = run(capsys, "bounds", "--P", "16", "--N", "8", "--unsigned")
    assert code == 0
    assert "32767/256" in out
    assert "65534/255" in out


def test_bounds_ratio_frozen(capsys):
    code, out = run(capsys, "bounds", "--ratio", "--N", "1", "--unsigned")
    assert code == 0
    assert out.strip() == "4"


def test_bounds_width(capsys):
    code, out = run(capsys, "bounds", "--width", "--K", "16", "--M", "8", "--N", "8")
    assert code == 0
    assert out.strip() == "21"


def test_bounds_json(capsys):
    code, out = run(capsys, "bounds", "--P", "12", "--N", "8", "--json")
    assert code == 0
    assert json.loads(out) == {"a2q_limit": "2047/256", "a2q_plus_limit": "4094/255"}


def test_bounds_out_of_range_P_exits_3(capsys):
    assert_input_error(capsys, "bounds", "--P", "1", "--N", "4")


def test_bounds_missing_flags_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["bounds"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["bounds", "--ratio"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["bounds", "--width", "--M", "4", "--N", "4"])
    assert err.value.code == 2
    assert "--width needs --K, --M and --N" in capsys.readouterr().err


# ---------------------------------------------------------------- project

def test_project_frozen(capsys):
    code, out = run(capsys, "project", "--radius", "2", "--weights", "3,1")
    assert code == 0
    assert out.strip() == "[2,0]"


def test_project_json(capsys):
    code, out = run(capsys, "project", "--radius", "2", "--weights", "2,-2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["v_star"] == [1.0, -1.0]
    assert payload["active"] is True
    assert payload["theta"] == 1.0


@pytest.mark.parametrize("weights, radius", [("1e20,1", "1"), ("1e17,3", "2")])
def test_project_wide_range_weights_exit_0(capsys, weights, radius):
    code, out = run(capsys, "project", "--radius", radius, "--weights", weights, "--json")
    assert code == 0
    assert sum(abs(v) for v in json.loads(out)["v_star"]) <= float(radius)


@pytest.mark.parametrize("weights, radius, v_star", [("1e20,1", "1", [1.0, 0.0]), ("1e17,3", "2", [2.0, 0.0])])
def test_project_keeps_the_budget_when_a_magnitude_dwarfs_it(capsys, weights, radius, v_star):
    code, out = run(capsys, "project", "--radius", radius, "--weights", weights, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["v_star"] == v_star
    assert payload["active"] is True


def test_project_bad_input_is_parse_error(capsys):
    # finite weights whose l1 mass overflows: these used to print [1,1], outside the ball
    assert "l1 mass" in assert_input_error(capsys, "project", "--radius", "1", "--weights", "1e308,1e308")
    assert cli.main(["project", "--radius", "0", "--weights", "1,2"]) == 3
    assert cli.main(["project", "--radius", "1", "--weights", "a,b"]) == 3
    assert cli.main(["project", "--radius", "1", "--weights", ""]) == 3


# ---------------------------------------------------------------- verify

def test_verify_feasible_channel(tmp_path, capsys):
    path = tmp_path / "ch.csv"
    path.write_text("1,2,-3,1\n")
    code, out = run(capsys, "verify", "--weights", str(path), "--P", "12", "--N", "4")
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert report["overflowed"] is False
    assert report["exhaustive"] is True
    assert '"overflowed": false' in out


def test_verify_codes_near_2_15_take_the_reachable_sets(tmp_path, capsys, monkeypatch):
    # few input vectors but wide sums, within the oracle's span cap: both
    # rows build reachable sets
    reached, real = [], intsim._reachable
    monkeypatch.setattr(intsim, "_reachable", lambda *args: reached.append(args) or real(*args))
    path = tmp_path / "wide_codes.csv"
    path.write_text("32768,32768,32768\n-32768,0,32767\n")
    code, out = run(capsys, "verify", "--weights", str(path), "--P", "24", "--N", "4")
    assert (code, len(reached)) == (0, 2)
    assert out == (
        '{"channel": 0, "K": 3, "true_max": 1474560, "true_min": 0, "overflowed": false, "exhaustive": true}\n'
        '{"channel": 1, "K": 3, "true_max": 491505, "true_min": -491520, "overflowed": false, "exhaustive": true}\n'
    )


def test_verify_overflow_exits_4(tmp_path, capsys):
    path = tmp_path / "hot.csv"
    path.write_text("100,100,100,100,100,100,100,100\n")
    code, out = run(capsys, "verify", "--weights", str(path), "--P", "8", "--N", "4")
    assert code == 4
    assert json.loads(out.splitlines()[0])["overflowed"] is True


def test_verify_forced_exhaustive_over_budget_exits_5(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text(",".join(["1"] * 8) + "\n")
    code = cli.main(
        ["verify", "--weights", str(path), "--P", "32", "--N", "8", "--exhaustive"]
    )
    assert code == 5


def test_verify_over_budget_prints_no_records(tmp_path, capsys):
    # the first channel, within the budget, must not be reported before the wide one fails
    path = tmp_path / "mixed.csv"
    path.write_text("1,2\n" + ",".join(["1"] * 9) + "\n")
    code, out = run(capsys, "verify", "--weights", str(path), "--P", "16", "--N", "4", "--exhaustive")
    assert code == 5
    assert out == ""


def test_verify_row_past_the_span_cap(tmp_path, capsys):
    # 139811 at N = 4 unsigned spans 2 * 15 * 139811 = 4194330, past the
    # oracle's cap of 2^22: forced, the file exits 5 and prints no record;
    # unforced, that row keeps the closed form alone
    path = tmp_path / "past_cap.csv"
    path.write_text("1,2\n139811\n")
    argv = ["verify", "--weights", str(path), "--P", "24", "--N", "4"]
    code = cli.main([*argv, "--exhaustive"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (5, "")
    assert captured.err == "error: span 4194330 of the reachable sums exceeds cap 4194304\n"
    assert run(capsys, *argv) == (0, (
        '{"channel": 0, "K": 2, "true_max": 45, "true_min": 0, "overflowed": false, "exhaustive": true}\n'
        '{"channel": 1, "K": 1, "true_max": 2097165, "true_min": 0, "overflowed": false, "exhaustive": false}\n'
    ))


def test_verify_bad_later_line_prints_no_records(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,x\n")
    assert_input_error(capsys, "verify", "--weights", str(path), "--P", "8", "--N", "2")


def test_verify_matches_golden_file(capsys):
    # each line: the flags of one run over VERIFY_CHANNELS, its exit code and its exact stdout;
    # verify always prints JSON lines, so dropping --json changes nothing
    for line in VERIFY_GOLDEN.read_text().splitlines():
        want = json.loads(line)
        for flags in (want["flags"], [f for f in want["flags"] if f != "--json"]):
            code, out = run(capsys, "verify", "--weights", str(VERIFY_CHANNELS), *flags)
            assert (code, out) == (want["exit"], want["stdout"]), flags


@pytest.mark.parametrize("raw", ["abc", "0", "2"])
def test_verify_ignores_the_environment(monkeypatch, capsys, raw):
    # the enumeration budget is fixed, so no value of the variable that once
    # set it changes a byte or an exit code of any golden run
    golden = [json.loads(line)["flags"] for line in VERIFY_GOLDEN.read_text().splitlines()]
    argvs = [["verify", "--weights", str(VERIFY_CHANNELS), *flags] for flags in golden]
    monkeypatch.delenv("ACCQ_ENUM_BUDGET", raising=False)
    unset = [(cli.main(argv), capsys.readouterr()) for argv in argvs]
    monkeypatch.setenv("ACCQ_ENUM_BUDGET", raw)
    assert [(cli.main(argv), capsys.readouterr()) for argv in argvs] == unset


def test_verify_missing_file_exits_3(capsys):
    assert cli.main(["verify", "--weights", "/nonexistent.csv", "--P", "8", "--N", "2"]) == 3


def test_verify_garbage_codes_exits_3(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,x,3\n")
    assert cli.main(["verify", "--weights", str(path), "--P", "8", "--N", "2"]) == 3


def test_verify_out_of_range_P_exits_3(tmp_path, capsys):
    path = tmp_path / "ch.csv"
    path.write_text("1,2,-3,1\n")
    assert_input_error(capsys, "verify", "--weights", str(path), "--P", "300", "--N", "4")


@pytest.mark.parametrize("N", ["0", "70"])
def test_verify_out_of_range_N_exits_3(N, tmp_path, capsys):
    path = tmp_path / "ch.csv"
    path.write_text("1,2,-3,1\n")
    err = assert_input_error(capsys, "verify", "--weights", str(path), "--P", "16", "--N", N)
    assert err == f"error: N must be in [1, 64], got {N}\n"


# exit code, stdout and stderr of lines that are not a plain list of at most
# 18-digit ASCII codes (the fast parse's pattern), or that sit on its edge,
# as recorded from the int()-per-token parser that predates the fast parse;
# the last two, recorded once lines split at "\n" alone and kept their
# physical numbers, are the ones that parser reported otherwise
_VERIFY_PARITY = [
    ('space', ' 3\n', 0, '{"channel": 0, "K": 1, "true_max": 45, "true_min": 0, "overflowed": false, "exhaustive": true}\n', ''),
    ('plus', '+4\n', 0, '{"channel": 0, "K": 1, "true_max": 60, "true_min": 0, "overflowed": false, "exhaustive": true}\n', ''),
    ('minus_zero', '-0\n', 0, '{"channel": 0, "K": 1, "true_max": 0, "true_min": 0, "overflowed": false, "exhaustive": true}\n', ''),
    ('underscore', '1_0\n', 0, '{"channel": 0, "K": 1, "true_max": 150, "true_min": 0, "overflowed": false, "exhaustive": true}\n', ''),
    ('double_comma', '1,,2\n', 0, '{"channel": 0, "K": 2, "true_max": 45, "true_min": 0, "overflowed": false, "exhaustive": true}\n', ''),
    ('trailing_comma', '1,2,\n', 0, '{"channel": 0, "K": 2, "true_max": 45, "true_min": 0, "overflowed": false, "exhaustive": true}\n', ''),
    ('arabic_indic', '٣\n', 0, '{"channel": 0, "K": 1, "true_max": 45, "true_min": 0, "overflowed": false, "exhaustive": true}\n', ''),
    ('crlf', '1,-2\r\n3,4\r\n', 0, '{"channel": 0, "K": 2, "true_max": 15, "true_min": -30, "overflowed": false, "exhaustive": true}\n{"channel": 1, "K": 2, "true_max": 105, "true_min": 0, "overflowed": false, "exhaustive": true}\n', ''),
    ('digits_19', '1234567890123456789\n', 4, '{"channel": 0, "K": 1, "true_max": 18518518351851851835, "true_min": 0, "overflowed": true, "exhaustive": false}\n', ''),
    ('int64_max_plus_1', '9223372036854775808\n', 4, '{"channel": 0, "K": 1, "true_max": 138350580552821637120, "true_min": 0, "overflowed": true, "exhaustive": false}\n', ''),
    ('digits_18', '-999999999999999999,999999999999999999\n', 4, '{"channel": 0, "K": 2, "true_max": 14999999999999999985, "true_min": -14999999999999999985, "overflowed": true, "exhaustive": false}\n', ''),
    ('mixed', '1,2,3,4,5,6,7,8\n 9,-9,9,-9,9,-9,9,-9\n-7,+7,007,0,0,0,0,0\n', 0, '{"channel": 0, "K": 8, "true_max": 540, "true_min": 0, "overflowed": false, "exhaustive": false}\n{"channel": 1, "K": 8, "true_max": 540, "true_min": -540, "overflowed": false, "exhaustive": false}\n{"channel": 2, "K": 8, "true_max": 210, "true_min": -105, "overflowed": false, "exhaustive": false}\n', ''),
    ('exponent', '1e3\n', 3, '', "error: {path}:1: integer codes expected: invalid literal for int() with base 10: '1e3'\n"),
    ('letter', 'x\n', 3, '', "error: {path}:1: integer codes expected: invalid literal for int() with base 10: 'x'\n"),
    ('bad_later_line', '1,2\n3,x\n', 3, '', "error: {path}:2: integer codes expected: invalid literal for int() with base 10: 'x'\n"),
    ('blank_line_counts', '1,2\n\n3,x\n', 3, '', "error: {path}:3: integer codes expected: invalid literal for int() with base 10: 'x'\n"),
    ('form_feed_is_no_newline', '1,2\x0c3,4\n', 3, '', "error: {path}:1: integer codes expected: invalid literal for int() with base 10: '2\\x0c3'\n"),
]


@pytest.mark.parametrize(
    "text, code, out, err", [case[1:] for case in _VERIFY_PARITY], ids=[case[0] for case in _VERIFY_PARITY]
)
def test_verify_lenient_lines_keep_their_output(tmp_path, capsys, text, code, out, err):
    path = tmp_path / "channels.txt"
    path.write_bytes(text.encode())
    got = cli.main(["verify", "--weights", str(path), "--P", "16", "--N", "4"])
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, out, err.replace("{path}", str(path)))


_STRICT_LINE = re.compile(r"[+-]?[0-9]{1,18}(,[+-]?[0-9]{1,18})*")
_DIGITS = "0123456789"
# stray characters: strict bytes, a blank, a letter, a form feed, a NUL, a tab,
# a two-byte letter and the Arabic-Indic three, which int() reads as 3
_STRAY = _DIGITS + ",+-\n x\x0c\0\té\u0663"


@st.composite
def _channel_files(draw):
    # lines of codes, some with 17 to 20 digits, some blank, with or without
    # a final newline, then up to two stray bytes that may make a blank line
    # or break a token
    token = st.builds(
        str.__add__,
        st.sampled_from(["", "+", "-"]),
        st.one_of(st.text(_DIGITS, min_size=1, max_size=3), st.text(_DIGITS, min_size=17, max_size=20)),
    )
    line = st.one_of(st.lists(token, min_size=1, max_size=4).map(",".join), st.just(""))
    lines = draw(st.lists(line, min_size=1, max_size=5))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:at] + draw(st.sampled_from(_STRAY)) + text[at:]
    return text


def _outcome(argv: list[str]) -> tuple[int, str, str]:
    """cli.main's exit code, argparse's included, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _verify_outcome(path: str) -> tuple[int, str, str]:
    return _outcome(["verify", "--weights", path, "--P", "24", "--N", "4", "--signed"])


@given(text=st.one_of(_channel_files(), st.text(_STRAY, max_size=30)))
@example(text="1\n,2\n")
@example(text="1,\n2")
@example(text="1+\n\n2")
@example(text="\n\n-1,2\n\n\n3\n\n")
@settings(max_examples=300, deadline=None)
def test_verify_whole_file_path_matches_line_by_line(text):
    # the whole-file check takes exactly the files with a line of codes and
    # every line strict or empty
    lines = [line for line in text.split("\n") if line]
    rows = cli._whole_file_rows(text)
    assert (rows is not None) == bool(lines and all(_STRICT_LINE.fullmatch(line) for line in lines))
    if rows is not None:
        assert [row.tolist() for row in rows] == [[int(p) for p in line.split(",")] for line in lines]
    # and on any file, the forced line-by-line path prints and exits the same
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        path = os.path.join(tmp, "channels.txt")
        Path(path).write_bytes(text.encode())
        monkeypatch.setattr(intsim, "ENUM_BUDGET", 1 << 12)
        whole = _verify_outcome(path)
        monkeypatch.setattr(cli, "_whole_file_rows", lambda text: None)
        assert _verify_outcome(path) == whole


@pytest.mark.parametrize(
    "data",
    [b"1,2\n3\n", b"1,2\r\n3\r\n", b"1,2\r3", b"1\r\n2\r3\n4", b"1,2\r", b"1\r\r\n2", b"", b"\r"],
    ids=["LF only", "CRLF", "lone CR", "mixed", "trailing CR", "CR CRLF", "empty", "CR alone"],
)
@pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
def test_read_text_reads_every_line_break_as_lf(tmp_path, monkeypatch, data, from_stdin):
    path = tmp_path / "channels.txt"
    path.write_bytes(data)
    if from_stdin:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert cli._read_text("-" if from_stdin else str(path)) == data.decode().replace("\r\n", "\n").replace("\r", "\n")


@pytest.mark.parametrize("signed", [False, True])
def test_verify_a_crlf_file_prints_what_its_lf_copy_prints(tmp_path, capsys, signed):
    # a file of verify_wide's shape: 64 rows of 8-bit codes, K from 64 to 512
    rng = np.random.default_rng(7)
    text = "".join(
        ",".join(map(str, rng.integers(-128, 128, size=K).tolist())) + "\n" for K in rng.permutation([64, 128, 256, 512] * 16)
    )
    outcomes = []
    for name, body in (("lf.txt", text), ("crlf.txt", text.replace("\n", "\r\n"))):
        (tmp_path / name).write_bytes(body.encode())
        outcomes.append(run(capsys, "verify", "--weights", str(tmp_path / name), "--P", "24", "--N", "8", *["--signed"] * signed))
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][1].splitlines()) == 64


def test_verify_stdin_reads_line_breaks_as_a_file_does(tmp_path, monkeypatch, capsys):
    text = "1,-2\r\n3,4\r5,6\n"
    path = tmp_path / "channels.txt"
    path.write_bytes(text.encode())
    from_file = run(capsys, "verify", "--weights", str(path), "--P", "16", "--N", "4")
    # a real stdin: text over a byte buffer, which _read_text reads
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    assert run(capsys, "verify", "--weights", "-", "--P", "16", "--N", "4") == from_file
    assert len(from_file[1].splitlines()) == 3


def test_verify_record_template_is_json_dumps():
    certs = [
        Certificate(K=3, true_max=2**70, true_min=-(2**65), overflowed=True, exhaustive=False),
        Certificate(K=1, true_max=0, true_min=-5, overflowed=False, exhaustive=True),
    ]
    want = "".join(json.dumps({"channel": i, **cert._asdict()}) + "\n" for i, cert in enumerate(certs))
    assert cli._cert_lines(certs) == want
    # the template has a key for every field of a Certificate, in field order
    filled = cli._RECORD % ((0,) * cli._RECORD.count("%s"))
    assert tuple(json.loads(filled)) == ("channel", *Certificate._fields)


def test_verify_props_and_seed_are_unknown_flags(capsys):
    for argv in (["verify", "--props"], ["verify", "--weights", "f", "--P", "8", "--N", "4", "--seed", "1"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("missing", ["--weights", "--P", "--N"])
def test_verify_missing_required_flag_is_usage_error(missing, capsys):
    flags = {"--weights": str(VERIFY_CHANNELS), "--P": "12", "--N": "4"}
    argv = ["verify"] + [tok for flag, value in flags.items() if flag != missing for tok in (flag, value)]
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"the following arguments are required: {missing}" in captured.err


# ---------------------------------------------------------------- train

TRAIN_FAST = ["--epochs", "1", "--batch-size", "256"]


def test_train_single_point_byte_identical(capsys):
    args = ["train", "--variant", "a2q+", "--M", "4", "--N", "4", "--P", "12", "--seed", "0", *TRAIN_FAST]
    code_a, out_a = run(capsys, *args)
    code_b, out_b = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    header, row = out_a.strip().splitlines()
    assert header == CSV_HEADER
    rec = SweepRecord.from_csv_row(row)
    assert (rec.variant, rec.M, rec.N, rec.P, rec.seed) == ("a2q+", 4, 4, 12, 0)
    assert rec.min_slack >= 0


def test_train_grid_is_sorted_and_jobs_invariant(capsys):
    base = [
        "train", "--variant", "a2q,a2q+", "--M", "4", "--N", "3,4",
        "--P", "12,16", "--seed", "0,1", *TRAIN_FAST,
    ]
    code_a, serial = run(capsys, *base, "--jobs", "1")
    code_b, parallel = run(capsys, *base, "--jobs", "4")
    assert code_a == code_b == 0
    assert serial == parallel
    rows = [SweepRecord.from_csv_row(ln) for ln in serial.strip().splitlines()[1:]]
    assert len(rows) == 16
    keys = [r.sort_key() for r in rows]
    assert keys == sorted(keys)


def test_train_json_lines(tmp_path, capsys):
    args = ["train", "--M", "4", "--N", "4", "--P", "16", "--seed", "0", *TRAIN_FAST]
    code, out = run(capsys, *args, "--json")
    assert code == 0
    payload = json.loads(out.strip())
    assert list(payload) == CSV_HEADER.split(",")
    assert payload["variant"] == "a2q"
    assert 0.0 <= payload["sparsity"] <= 1.0
    # pareto --json prints the same record in the same shape and key order
    csv_path = tmp_path / "sweep.csv"
    assert run(capsys, *args, "--out", str(csv_path))[0] == 0
    code, frontier = run(capsys, "pareto", "--records", str(csv_path), "--json")
    assert code == 0
    assert frontier == out


def test_train_out_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out = run(
        capsys, "train", "--M", "4", "--N", "4", "--P", "16", "--seed", "0",
        "--out", str(out_path), *TRAIN_FAST,
    )
    assert code == 0
    assert out == ""
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 2


def _train_must_not_run(monkeypatch):
    def fail(config):
        raise AssertionError("train ran before the --out path was checked")

    monkeypatch.setattr(qat, "train", fail)


@pytest.mark.parametrize("where", ["missing dir", "a directory"])
def test_train_unwritable_out_exits_3_before_training(where, tmp_path, capsys, monkeypatch):
    _train_must_not_run(monkeypatch)
    out = "/nonexistent-dir/x.csv" if where == "missing dir" else str(tmp_path)
    err = assert_input_error(capsys, "train", "--M", "4", "--N", "4", "--P", "12", "--out", out)
    assert f"cannot write {out}" in err


def test_train_out_check_leaves_the_path_as_it_was(tmp_path, capsys, monkeypatch):
    # a run that fails after the check neither truncates an existing file nor
    # leaves a new one behind
    def diverge(config):
        raise DivergenceError("non-finite loss at epoch 0")

    monkeypatch.setattr(qat, "train", diverge)
    old = tmp_path / "old.csv"
    old.write_text("kept\n")
    new = tmp_path / "new.csv"
    for path in (old, new):
        assert_input_error(capsys, "train", "--M", "4", "--N", "4", "--P", "12", "--out", str(path))
    assert old.read_text() == "kept\n"
    assert not new.exists()


def test_train_auto_P_spans_eleven_widths(capsys):
    code, out = run(
        capsys, "train", "--M", "4", "--N", "4", "--P", "auto", "--seed", "0", *TRAIN_FAST
    )
    assert code == 0
    rows = [SweepRecord.from_csv_row(ln) for ln in out.strip().splitlines()[1:]]
    assert [r.P for r in rows] == list(range(3, 14))  # P* = 13 for K*=16 at (4,4)


def test_train_unknown_variant_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["train", "--variant", "a3q", "--M", "4", "--N", "4", "--P", "12"])
    assert err.value.code == 2


def test_train_bad_bits_is_parse_error():
    assert cli.main(["train", "--M", "0", "--N", "4", "--P", "12", *TRAIN_FAST]) == 3


def test_train_negative_seed_exits_3(capsys):
    assert_input_error(capsys, "train", "--M", "4", "--N", "4", "--P", "12", "--seed", "-1", *TRAIN_FAST)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--batch-size", "0"), ("--batch-size", "-4"), ("--epochs", "-1"),
        # the hinge runs only for lambda_reg > 0: NaN and -1 used to train as 0
        ("--lambda-reg", "nan"), ("--lambda-reg", "-1"), ("--lambda-reg", "inf"),
        # a negative lr or decay used to train (ascent, anti-decay); NaN and inf
        # were reported as a divergence
        ("--lr", "nan"), ("--lr", "-0.1"), ("--lr", "0"), ("--lr", "inf"),
        ("--weight-decay", "-1"), ("--weight-decay", "nan"), ("--weight-decay", "inf"),
    ],
)
def test_train_out_of_range_schedule_exits_3(flag, value, capsys):
    err = assert_input_error(capsys, "train", "--M", "4", "--N", "4", "--P", "12", *TRAIN_FAST, flag, value)
    assert flag.removeprefix("--").replace("-", "_") in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--M", "4,x", "--M wants comma-separated integers: invalid literal for int() with base 10: 'x'"),
        ("--seed", ",", "--seed is empty"),
    ],
)
def test_train_malformed_integer_list_exits_3_before_training(flag, value, message, capsys, monkeypatch):
    _train_must_not_run(monkeypatch)
    args = {"--M": "4", "--N": "4", "--P": "12", flag: value}
    err = assert_input_error(capsys, "train", *(tok for item in args.items() for tok in item))
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_train_jobs_below_1_exits_3_before_training(jobs, capsys, monkeypatch):
    # these used to exit 0 after a serial run
    _train_must_not_run(monkeypatch)
    err = assert_input_error(capsys, "train", "--M", "4", "--N", "4", "--P", "12", "--jobs", jobs)
    assert f"--jobs must be at least 1, got {jobs}" in err


def test_train_csv_matches_golden_file(capsys):
    # the file pins the CSV bytes across refactors of the quantizer and trainer
    code, out = run(
        capsys, "train", "--variant", "a2q,a2q+", "--M", "4", "--N", "4", "--P", "12,32",
        "--seed", "0,1", "--epochs", "4",
    )
    assert code == 0
    assert out.encode() == GOLDEN_CSV.read_bytes()


def test_train_too_wide_weights_exits_3(capsys):
    assert_input_error(capsys, "train", "--M", "53", "--N", "4", "--P", "12", *TRAIN_FAST)


@pytest.mark.parametrize(
    "lr, epochs, reason",
    [("1e6", "2", "parameter overflow at epoch 0")],
)
def test_train_divergence_exits_3(lr, epochs, reason, capsys):
    with np.errstate(all="ignore"):
        err = assert_input_error(capsys, "train", "--M", "4", "--N", "4", "--P", "12", "--epochs", epochs, "--lr", lr)
    assert reason in err


def run_python(*argv, stdin=None, **env_vars) -> subprocess.CompletedProcess:
    """python argv in a child process, with src/ importable; stdin is a file object or None."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)
    env.update(env_vars)
    return subprocess.run(
        [sys.executable, *argv], stdin=stdin, capture_output=True, text=True, env=env, timeout=300
    )


def run_shell(module: str, *argv, stdin=None, **env_vars) -> subprocess.CompletedProcess:
    """python -m module argv in a child process, with src/ importable; stdin is a file object or None."""
    return run_python("-m", module, *argv, stdin=stdin, **env_vars)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
def test_cli_import_leaves_one_thread():
    # with no thread count in the environment, importing the CLI (and numpy
    # through it) starts no BLAS or OpenMP worker threads
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    script = "import os, accq.cli, numpy; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "1\n")


def test_python_m_accq_runs_the_cli():
    proc = run_shell("accq", "bounds", "--ratio", "--N", "4")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "32/15\n", "")


def test_train_standing_grid_is_pinned():
    """The standing grid, both variants at W4A4 over every auto P and three seeds, hashes to its pinned CSV.

    The digest is a fact of OpenBLAS's SkylakeX kernel, not of the seeds
    alone: under another kernel the matmuls round differently and some
    final_loss digits move (ROADMAP item 3).
    """
    proc = run_shell(
        "accq", "train", "--variant", "a2q,a2q+", "--M", "4", "--N", "4", "--P", "auto",
        "--seed", "0,1,2", "--epochs", "40", "--jobs", "2",
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "f3c4f5afaac7c66698906c6b904722ba870c8ae0eb72257bf6cfda1873bc7792"


# what a fresh interpreter holds after import accq.cli, one bounds run and one
# verify run, whose small channels also take the exhaustive oracle
LOADED_BY_VERIFY = """
import json, sys
from accq import cli
codes = [
    cli.main(["bounds", "--width", "--K", "16", "--M", "4", "--N", "4"]),
    cli.main(["verify", "--weights", sys.argv[1], "--P", "16", "--N", "4"]),
]
print(json.dumps({
    "codes": codes,
    "accq": sorted(m for m in sys.modules if m == "accq" or m.startswith("accq.")),
    "pools": sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules),
}))
"""


def test_verify_and_bounds_load_only_the_certificate(tmp_path):
    # each subcommand imports what it runs, so the certificate path never
    # loads the trainer, the quantizers, the projection or a process pool
    path = tmp_path / "channels.txt"
    path.write_text("1,2,-3,1\n7,-8,0,5\n")
    proc = run_python("-c", LOADED_BY_VERIFY, str(path))
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {
        "codes": [0, 0],
        "accq": ["accq", "accq.bounds", "accq.cli", "accq.errors", "accq.intsim"],
        "pools": [],
    }


def assert_shell_input_error(argv, stdin=None, **env_vars) -> str:
    """Like assert_input_error, from a child process; returns the error line.

    A child process shows the stderr a shell user sees: numpy warnings and
    tracebacks are not captured there, so any stray one would show up.
    """
    proc = run_shell("accq.cli", *argv, stdin=stdin, **env_vars)
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    return lines[0]


@pytest.mark.parametrize("lr", ["nan", "1e6"])
def test_train_divergence_prints_one_line_from_a_shell(lr):
    assert_shell_input_error(["train", "--M", "4", "--N", "4", "--P", "12", "--epochs", "2", "--lr", lr])


NOT_UTF8 = b"1,2\n\xff\xfe,3\n"
# the C locale with UTF-8 mode and locale coercion off, where Python's own
# text reads are ASCII; the id suffixes keep the default locale's test ids
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
LOCALES = {"": {}, "-C": C_LOCALE}
VERIFY_FILE = ["verify", "--P", "12", "--N", "4", "--weights"]


@pytest.mark.parametrize(
    "cmd, env",
    [
        pytest.param(cmd, env, id=f"cmd{i}{suffix}")
        for suffix, env in LOCALES.items()
        for i, cmd in enumerate([VERIFY_FILE, ["pareto", "--records"]])
    ],
)
def test_non_utf8_file_exits_3_from_a_shell(cmd, env, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(NOT_UTF8)
    assert "not UTF-8" in assert_shell_input_error([*cmd, str(path)], **env)


# stdin is read as bytes, so neither its text encoding nor the locale changes the verdict
@pytest.mark.parametrize(
    "io_encoding, env",
    [
        pytest.param(io_encoding, env, id=f"{io_encoding}{suffix}")
        for suffix, env in LOCALES.items()
        for io_encoding in [None, "utf-8:strict"]
    ],
)
def test_non_utf8_stdin_exits_3_from_a_shell(io_encoding, env, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(NOT_UTF8)
    env = dict(env, PYTHONIOENCODING=io_encoding) if io_encoding else env
    with path.open("rb") as stdin:
        err = assert_shell_input_error([*VERIFY_FILE, "-"], stdin=stdin, **env)
    assert "not UTF-8" in err


@pytest.mark.parametrize("source", ["verify-file", "verify-stdin", "pareto-file"])
def test_utf8_input_reads_the_same_in_the_c_locale_from_a_shell(source, tmp_path):
    # valid UTF-8 with a no-break space, which int() and float() skip as they
    # do any space; the C locale once refused it as "not UTF-8 text"
    path = tmp_path / "nbsp.txt"
    if source == "pareto-file":
        path.write_bytes(f"{CSV_HEADER}\na2q,4,4,12,0,\xa00.5,0.25,1/2\n".encode())
        argv = ["pareto", "--records", str(path)]
    else:
        path.write_bytes("1,\xa02\n".encode())
        argv = [*VERIFY_FILE, "-" if source == "verify-stdin" else str(path)]
    outcomes = []
    for env in LOCALES.values():
        with path.open("rb") as stdin:
            proc = run_shell("accq.cli", *argv, stdin=stdin, **env)
        outcomes.append((proc.returncode, proc.stdout, proc.stderr))
    assert outcomes[0][0] == 0 and outcomes[0][1] and not outcomes[0][2]
    assert outcomes[1] == outcomes[0]


def test_train_unwritable_out_exits_3_from_a_shell(tmp_path):
    out = tmp_path / "missing" / "x.csv"
    err = assert_shell_input_error(["train", "--M", "4", "--N", "4", "--P", "12", "--epochs", "1", "--out", str(out)])
    assert str(out) in err


def test_analyze_deeply_nested_checkpoint_exits_3_from_a_shell(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert_shell_input_error(["analyze", "--ckpt", str(path), "--M", "4", "--N", "4"])


# ---------------------------------------------------------------- analyze

@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    cfg = TrainConfig(variant=Variant.A2Q, bits=BitWidths(M=4, N=4, P=12), seed=0, epochs=1)
    net, _ = fit(cfg)
    qpath = root / "quant.json"
    save_checkpoint(qpath, net)
    fpath = root / "float.json"
    save_float_checkpoint(fpath, float_baseline(cfg).weights)
    return qpath, fpath


# analyze --json's full default curve on the quantized fixture: of its 36
# channels, one fits at P = 10 and every one from P = 11
QUANT_CURVE = (
    "".join(f'{{"P": {P}, "fraction": 0.0}}\n' for P in range(2, 10))
    + '{"P": 10, "fraction": 0.027777777777777776}\n'
    + "".join(f'{{"P": {P}, "fraction": 1.0}}\n' for P in range(11, 33))
)


def test_analyze_quantized_checkpoint(checkpoints, capsys):
    qpath, _ = checkpoints
    code, out = run(capsys, "analyze", "--ckpt", str(qpath), "--M", "4", "--N", "4", "--json")
    assert code == 0
    curve = [json.loads(ln) for ln in out.splitlines()]
    fracs = [pt["fraction"] for pt in curve]
    assert all(a <= b for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == 1.0


def test_analyze_float_checkpoint(checkpoints, capsys):
    _, fpath = checkpoints
    code, out = run(capsys, "analyze", "--ckpt", str(fpath), "--M", "8", "--N", "8", "--pmin", "2", "--pmax", "24")
    assert code == 0
    assert len(out.splitlines()) == 23


def _on_budget_rows(K: int) -> list[list[float]]:
    # per P in 8..13 a row of 7s topped up to the unsigned A2Q budget
    # (2^{P-1} - 1) / 16 at N = 4: its max-abs scale at M = 4 is 1, so its
    # scaled mass is that budget, exactly
    rows = []
    for P in range(8, 14):
        limit = ((1 << (P - 1)) - 1) / 16
        sevens = int(limit // 7)
        rows.append([7.0] * sevens + [limit - 7 * sevens] + [0.0] * (K - sevens - 1))
    return rows


def test_analyze_curves_are_pinned(checkpoints, tmp_path, capsys):
    # rows on their budgets fit at that P and not below; a row of mass 32, a
    # sixteenth over the P = 10 budget 511/16, fits from P = 11; a zero row fits
    # everywhere; and a second layer, of another K, has mass 21 and fits from P = 10
    over = [7.0] * 4 + [4.0] + [0.0] * 35
    layers = [_on_budget_rows(40) + [over, [0.0] * 40], [[7.0, -7.0, 7.0]]]
    path = tmp_path / "budget.json"
    path.write_text(json.dumps({"kind": "float", "layers": [{"channels": [{"w": w} for w in W]} for W in layers]}))
    code, out = run(capsys, "analyze", "--ckpt", str(path), "--M", "4", "--N", "4", "--pmin", "7", "--pmax", "14", "--json")
    assert code == 0
    assert out == "".join(
        json.dumps({"P": P, "fraction": frac}) + "\n"
        for P, frac in zip(range(7, 15), [1 / 9, 2 / 9, 3 / 9, 5 / 9, 7 / 9, 8 / 9, 1.0, 1.0])
    )
    code, out = run(capsys, "analyze", "--ckpt", str(checkpoints[0]), "--M", "4", "--N", "4", "--json")
    assert code == 0
    assert out == QUANT_CURVE


def test_analyze_out_of_range_M_exits_3(checkpoints, capsys):
    # the bit widths are checked before the checkpoint is read, so a missing one reports M too
    qpath, _ = checkpoints
    for ckpt in (str(qpath), "/missing.json"):
        err = assert_input_error(capsys, "analyze", "--ckpt", ckpt, "--M", "1", "--N", "4")
        assert err.startswith("error: M must be in [2, ")


def test_analyze_too_wide_weights_exits_3(checkpoints, capsys):
    qpath, _ = checkpoints
    assert_input_error(capsys, "analyze", "--ckpt", str(qpath), "--M", "53", "--N", "4")


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2],
        {"kind": "float", "layers": 5},
        # a quantized checkpoint naming the unbudgeted variant, which no longer exists
        {
            "kind": "quantized",
            "variant": "standard",
            "layers": [
                {
                    "bits": {"M": 4, "N": 4, "P": 12, "act_signed": False},
                    "act_exp": 0.0,
                    "bias": [0.0],
                    "channels": [{"v": [1.0, -1.0], "t": 1.0, "d": 0.0}],
                }
            ],
        },
        # well-formed but without a single channel to put on the curve
        {"kind": "float", "layers": []},
        {"kind": "float", "layers": [{"channels": []}]},
        {"kind": "quantized", "variant": "a2q", "layers": []},
        # a quantized channel whose norm 2^t leaves float range
        {
            "kind": "quantized",
            "variant": "a2q",
            "layers": [
                {
                    "bits": {"M": 4, "N": 4, "P": 12, "act_signed": False},
                    "act_exp": 0.0,
                    "bias": [0.0],
                    "channels": [{"v": [1.0, -1.0], "t": 5000.0, "d": 0.0}],
                }
            ],
        },
        # float channels that are empty, non-finite or not one row of weights
        {"kind": "float", "layers": [{"channels": [{"w": []}]}]},
        {"kind": "float", "layers": [{"channels": [{"w": [1.0, float("nan")]}]}]},
        {"kind": "float", "layers": [{"channels": [{"w": [[1.0, 2.0], [3.0, 4.0]]}]}]},
        # a float layer whose channels differ in length, as a ragged quantized layer
        {"kind": "float", "layers": [{"channels": [{"w": [1.0, 2.0]}, {"w": [3.0]}]}]},
        # finite weights whose l1 mass overflows
        {"kind": "float", "layers": [{"channels": [{"w": [1e308, 1e308]}]}]},
        # a finite direction row whose l1 mass overflows, which the quantizer divides by
        {
            "kind": "quantized",
            "variant": "a2q",
            "layers": [
                {
                    "bits": {"M": 4, "N": 4, "P": 12, "act_signed": False},
                    "act_exp": 0.0,
                    "bias": [0.0],
                    "channels": [{"v": [1e308, 1e308], "t": 1.0, "d": 0.0}],
                }
            ],
        },
    ],
)
def test_analyze_malformed_checkpoint_exits_3(payload, tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(payload))
    err = assert_input_error(capsys, "analyze", "--ckpt", str(path), "--M", "4", "--N", "4")
    if "l1 mass" in err:
        # the error names the field the checkpoint holds: w in a float one, v in a quantized one
        field = "v" if payload["kind"] == "quantized" else "w"
        assert err == f"error: bad checkpoint {path}: {field} must be finite, and so must its l1 mass\n"


def _quantized_checkpoint(channels) -> dict:
    return {
        "kind": "quantized",
        "variant": "a2q",
        "layers": [
            {
                "bits": {"M": 4, "N": 4, "P": 12, "act_signed": False},
                "act_exp": 0.0,
                "bias": [0.0] * len(channels),
                "channels": channels,
            }
        ],
    }


@pytest.mark.parametrize(
    "channels",
    [
        [{"v": [1.0, -1.0], "t": 1.0, "d": 0.0}, {"v": [1.0], "t": 1.0, "d": 0.0}],
        [{"v": [], "t": 1.0, "d": 0.0}],
        [{"v": [[1.0, -1.0], [2.0, 0.5]], "t": 1.0, "d": 0.0}],
        [{"v": [1.0, float("nan")], "t": 1.0, "d": 0.0}],
        [{"v": [1.0, -1.0], "t": float("nan"), "d": 0.0}],
        [{"v": [1.0, -1.0], "t": 1.0, "d": "x"}],
        [],
    ],
    ids=["ragged v", "empty v", "2-d v", "nan in v", "nan t", "d not a number", "no channels"],
)
def test_analyze_malformed_quantized_layer_exits_3(channels, tmp_path, capsys):
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(_quantized_checkpoint(channels)))
    err = assert_input_error(capsys, "analyze", "--ckpt", str(path), "--M", "4", "--N", "4")
    assert err.startswith(f"error: bad checkpoint {path}")


def _one_channel_layer(**fields) -> dict:
    payload = _quantized_checkpoint([{"v": [1.0, -1.0], "t": 1.0, "d": 0.0}])
    payload["layers"][0].update(fields)
    return payload


@pytest.mark.parametrize(
    "fields",
    [
        {"bias": [0.0, 0.0]},
        {"bias": []},
        {"bias": [float("nan")]},
        {"act_exp": float("nan")},
    ],
    ids=["bias longer than the layer", "empty bias", "nan bias", "nan act_exp"],
)
def test_analyze_malformed_bias_or_act_exp_exits_3(fields, tmp_path):
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(_one_channel_layer(**fields)))
    err = assert_shell_input_error(["analyze", "--ckpt", str(path), "--M", "4", "--N", "4"])
    assert err.startswith(f"error: bad checkpoint {path}")


@pytest.mark.parametrize(
    "bits, message",
    [
        ({"M": 4.7, "N": 4, "P": 12, "act_signed": False}, "M must be an integer, got 4.7"),
        ({"M": 4, "N": 4, "P": 12, "act_signed": "false"}, "act_signed must be a bool, got 'false'"),
    ],
    ids=["fractional M", "string act_signed"],
)
def test_analyze_checkpoint_bit_widths_are_not_coerced(bits, message, tmp_path, capsys):
    # neither M = 4.7 read as 4 nor "false" read as True
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(_one_channel_layer(bits=bits)))
    err = assert_input_error(capsys, "analyze", "--ckpt", str(path), "--M", "4", "--N", "4")
    assert err == f"error: bad checkpoint {path}: {message}\n"


def test_analyze_checkpoint_act_exp_is_not_coerced(tmp_path, capsys):
    # the string "0.5" read as the exponent 0.5
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(_one_channel_layer(act_exp="0.5")))
    err = assert_input_error(capsys, "analyze", "--ckpt", str(path), "--M", "4", "--N", "4")
    assert err == f"error: bad checkpoint {path}: act_exp must be a real number, got '0.5'\n"


@pytest.mark.parametrize(
    "channel, bias, message",
    [
        ({"t": "1.5"}, [0.0], "t must be a real number, got '1.5'"),
        ({"d": True}, [0.0], "d must be a real number, got True"),
        ({}, [True], "bias must be a real number, got True"),
        ({"v": [True, 0.5]}, [0.0], "V must be a real number, got True"),
        ({"v": ["1", "-1"]}, [0.0], "V must be a real number, got '1'"),
        ({"t": 10**400}, [0.0], "t must be an array of floats: int too large to convert to float"),
    ],
    ids=["string t", "bool d", "bool bias", "bool and float v", "string v", "int past float range"],
)
def test_analyze_checkpoint_arrays_are_not_coerced(tmp_path, capsys, channel, bias, message):
    # numpy read "1.5" as 1.5 and true, even beside a float, as 1.0, and an
    # int past float range escaped as an OverflowError
    payload = _quantized_checkpoint([{"v": [1.0, -1.0], "t": 1.0, "d": 0.0, **channel}])
    payload["layers"][0]["bias"] = bias
    path = tmp_path / "layer.json"
    path.write_text(json.dumps(payload))
    err = assert_input_error(capsys, "analyze", "--ckpt", str(path), "--M", "4", "--N", "4")
    assert err == f"error: bad checkpoint {path}: {message}\n"


def test_analyze_float_checkpoint_weights_are_not_coerced(tmp_path, capsys):
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"kind": "float", "layers": [{"channels": [{"w": ["0.5", -1.0]}]}]}))
    err = assert_input_error(capsys, "analyze", "--ckpt", str(path), "--M", "4", "--N", "4")
    assert err == f"error: bad checkpoint {path}: w must be a real number, got '0.5'\n"


def test_analyze_subnormal_float_channel_exits_3(tmp_path):
    # its max-abs scale at M = 4 underflows to 0, which the mass is divided by
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"kind": "float", "layers": [{"channels": [{"w": [5e-324, 0.0]}]}]}))
    err = assert_shell_input_error(["analyze", "--ckpt", str(path), "--M", "4", "--N", "4"])
    assert err.startswith(f"error: bad checkpoint {path}") and "underflows" in err


def test_analyze_bad_checkpoint_exits_3(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert cli.main(["analyze", "--ckpt", str(path), "--M", "4", "--N", "4"]) == 3
    assert cli.main(["analyze", "--ckpt", "/nope.json", "--M", "4", "--N", "4"]) == 3


@pytest.mark.parametrize("pmin, pmax", [("9", "3"), ("1", "8")])
def test_analyze_bad_p_range_is_usage_error_before_reading(pmin, pmax, checkpoints, monkeypatch):
    # the flags are checked before the checkpoint is read, so a missing file
    # exits 2 (not 3) and a real one is never loaded
    def fail(path):
        raise AssertionError("the checkpoint was read before the P range was checked")

    for ckpt in ("/missing.json", str(checkpoints[0])):
        monkeypatch.setattr(qat, "load_checkpoint", fail)
        with pytest.raises(SystemExit) as err:
            cli.main(["analyze", "--ckpt", ckpt, "--M", "4", "--N", "4", "--pmin", pmin, "--pmax", pmax])
        assert err.value.code == 2


# ---------------------------------------------------------------- pareto

def _csv(rows):
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def test_pareto_single_record_is_the_frontier(tmp_path, capsys):
    path = tmp_path / "one.csv"
    row = "a2q,4,4,12,0,0.5,0.25,1/2"
    path.write_text(_csv([row]))
    code, out = run(capsys, "pareto", "--records", str(path))
    assert code == 0
    assert out.strip().splitlines() == [CSV_HEADER, "a2q,4,4,12,0,0.5,0.25,1/2"]


def test_pareto_picks_lower_loss_per_variant_P(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text(
        _csv(
            [
                "a2q,4,4,12,0,0.5,0.25,1/2",
                "a2q,8,4,12,1,0.3,0.5,3/4",
                "a2q,4,4,16,0,0.9,0.1,2",
            ]
        )
    )
    code, out = run(capsys, "pareto", "--records", str(path))
    assert code == 0
    rows = out.strip().splitlines()[1:]
    recs = [SweepRecord.from_csv_row(r) for r in rows]
    assert [r.P for r in recs] == [12, 16]  # sorted by P ascending
    assert recs[0].final_loss == 0.3


def test_pareto_empty_or_malformed_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert cli.main(["pareto", "--records", str(empty)]) == 3
    header_only = tmp_path / "h.csv"
    header_only.write_text(CSV_HEADER + "\n")
    assert cli.main(["pareto", "--records", str(header_only)]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    assert cli.main(["pareto", "--records", str(bad)]) == 3
    # a zero denominator used to end in a ZeroDivisionError traceback, and a
    # NaN loss that sorts first used to win the frontier
    for row in ["a2q,4,4,12,0,0.5,0.25,1/0", "a2q,4,4,12,0,nan,0.25,1/2", "a2q,4,4,12,0,inf,0.25,1/2"]:
        odd = tmp_path / "odd.csv"
        odd.write_text(_csv([row, "a2q,4,4,12,1,0.5,0.25,1/2"]))
        err = assert_shell_input_error(["pareto", "--records", str(odd)])
        assert row in err
    # rows fit never writes used to print as frontier points, with exit 0
    capsys.readouterr()
    for row, field in [
        ("foo,0,-3,999,-1,0.5,nan,-1/2", "variant"),
        ("a2q,0,4,12,0,0.5,0.25,1/2", "M"),
        ("a2q,4,-3,12,0,0.5,0.25,1/2", "N"),
        ("a2q,4,4,999,0,0.5,0.25,1/2", "P"),
        ("a2q,4,4,12,-1,0.5,0.25,1/2", "seed"),
        ("a2q,4,4,12,0,-0.5,0.25,1/2", "final_loss"),
        ("a2q,4,4,12,0,0.4,1.5,3", "sparsity"),
        ("a2q,4,4,12,0,0.4,-0.25,3", "sparsity"),
        ("a2q,4,4,12,0,0.4,nan,3", "sparsity"),
        ("a2q,4,4,12,0,0.5,0.25,-1/2", "min_slack"),
    ]:
        odd = tmp_path / "odd.csv"
        odd.write_text(_csv([row, "a2q,4,4,12,1,0.5,0.25,1/2"]))
        err = assert_input_error(capsys, "pareto", "--records", str(odd))
        assert err.startswith(f"error: {odd}: {field} ") and repr(row) in err


def test_pareto_json(tmp_path, capsys):
    path = tmp_path / "a.csv"
    path.write_text(_csv(["a2q+,4,4,12,0,0.25,0.4,7/8"]))
    code, out = run(capsys, "pareto", "--records", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "a2q+" and payload["min_slack"] == "7/8"


# ---------------------------------------------------------------- dispatch

VERIFY_OK = [*VERIFY_FILE, str(VERIFY_CHANNELS)]
# argvs main parses on the subcommand's parser alone or hands to the top-level
# parser; "{ckpt}" and "{records}" stand for files the test supplies
DISPATCH_ARGVS = {
    "empty": [],
    "help": ["-h"],
    "unknown": ["nope"],
    "verify-bare": ["verify"],
    "verify-help": ["verify", "-h"],
    "trailing-unknown": [*VERIFY_OK, "--bogus"],
    "double-dash": [*VERIFY_OK, "--", "x"],
    "both-signs": [*VERIFY_OK, "--signed", "--unsigned"],
    "abbreviation": ["verify", "--wei", str(VERIFY_CHANNELS), "--P", "12", "--N", "4"],
    "bad-int": ["verify", "--weights", str(VERIFY_CHANNELS), "--P", "x", "--N", "4"],
    "bounds-extra": ["bounds", "--ratio", "--N", "4", "extra"],
    "option-first": ["--json", *VERIFY_OK],
    "pareto-bare": ["pareto"],
    "negative-epochs": ["train", "--epochs", "-1"],
    "bounds": ["bounds", "--P", "16", "--N", "4", "--json"],
    "project": ["project", "--weights", "3,1", "--radius", "2"],
    "verify": [*VERIFY_OK, "--signed"],
    "train": ["train", *TRAIN_FAST],
    "analyze": ["analyze", "--ckpt", "{ckpt}", "--M", "4", "--N", "4"],
    "pareto": ["pareto", "--records", "{records}"],
}


@pytest.mark.parametrize("argv", DISPATCH_ARGVS.values(), ids=DISPATCH_ARGVS.keys())
def test_dispatch_matches_the_top_level_parse(argv, checkpoints, tmp_path, monkeypatch):
    records = tmp_path / "records.csv"
    records.write_text(_csv(["a2q,4,4,12,0,0.5,0.25,1/2"]))
    argv = [{"{ckpt}": str(checkpoints[0]), "{records}": str(records)}.get(arg, arg) for arg in argv]
    direct = _outcome(argv)
    # no subcommand found: every argv takes the top-level parse
    monkeypatch.setattr(cli, "_subcommands", lambda: {})
    assert _outcome(argv) == direct


def test_a_valid_call_skips_the_top_level_parse(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(cli.build_parser(), "parse_args", refuse)
    code, out = run(capsys, *VERIFY_OK, "--signed")
    assert code == 4 and out.startswith('{"channel": 0, ')
    assert run(capsys, "bounds", "--ratio", "--N", "4") == (0, "32/15\n")


# how often a fresh interpreter has built the parser: after import accq.cli,
# then after each of two main calls
PARSERS_BUILT = """
from accq import cli
built = [cli.build_parser.cache_info().currsize]
for _ in range(2):
    cli.main(["bounds", "--ratio", "--N", "4"])
    built.append(cli.build_parser.cache_info().misses)
print(built)
"""


def test_import_builds_no_parser_and_main_builds_it_once():
    proc = run_python("-c", PARSERS_BUILT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 1, 1]"
