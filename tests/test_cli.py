"""CLI: frozen examples, exit codes, determinism, pareto frontier rules."""

import contextlib
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

from accq import cli, qat
from accq.bounds import BitWidths
from accq.errors import DivergenceError
from accq.intsim import Certificate
from accq.qat import (
    CSV_HEADER,
    SweepRecord,
    TrainConfig,
    fit,
    float_baseline,
    save_checkpoint,
    save_float_checkpoint,
)
from accq.quantizers import Variant


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
    # the enumerable first channel must not be reported before the wide one fails
    path = tmp_path / "mixed.csv"
    path.write_text("1,2\n" + ",".join(["1"] * 9) + "\n")
    code, out = run(capsys, "verify", "--weights", str(path), "--P", "16", "--N", "4", "--exhaustive")
    assert code == 5
    assert out == ""


def test_verify_bad_later_line_prints_no_records(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,x\n")
    assert_input_error(capsys, "verify", "--weights", str(path), "--P", "8", "--N", "2")


def test_verify_matches_golden_file(monkeypatch, capsys):
    # each line: the flags of one run over VERIFY_CHANNELS, its exit code and its exact stdout;
    # verify always prints JSON lines, so dropping --json changes nothing
    monkeypatch.delenv("ACCQ_ENUM_BUDGET", raising=False)
    for line in VERIFY_GOLDEN.read_text().splitlines():
        want = json.loads(line)
        for flags in (want["flags"], [f for f in want["flags"] if f != "--json"]):
            code, out = run(capsys, "verify", "--weights", str(VERIFY_CHANNELS), *flags)
            assert (code, out) == (want["exit"], want["stdout"]), flags


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
    ('digits_19', '1234567890123456789\n', 4, '{"channel": 0, "K": 1, "true_max": 18518518351851851835, "true_min": 0, "overflowed": true, "exhaustive": true}\n', ''),
    ('int64_max_plus_1', '9223372036854775808\n', 4, '{"channel": 0, "K": 1, "true_max": 138350580552821637120, "true_min": 0, "overflowed": true, "exhaustive": true}\n', ''),
    ('digits_18', '-999999999999999999,999999999999999999\n', 4, '{"channel": 0, "K": 2, "true_max": 14999999999999999985, "true_min": -14999999999999999985, "overflowed": true, "exhaustive": true}\n', ''),
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
        text = text[:at] + draw(st.sampled_from(_DIGITS + ",+-\n x\x0c")) + text[at:]
    return text


def _verify_outcome(path: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--weights", path, "--P", "24", "--N", "4", "--signed"])
    return code, out.getvalue(), err.getvalue()


@given(text=st.one_of(_channel_files(), st.text(_DIGITS + ",+-\n x\x0c", max_size=30)))
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
        monkeypatch.setenv("ACCQ_ENUM_BUDGET", str(1 << 12))
        whole = _verify_outcome(path)
        monkeypatch.setattr(cli, "_whole_file_rows", lambda text: None)
        assert _verify_outcome(path) == whole


def test_verify_stdin_reads_line_breaks_as_a_file_does(tmp_path, monkeypatch, capsys):
    text = "1,-2\r\n3,4\r5,6\n"
    path = tmp_path / "channels.txt"
    path.write_bytes(text.encode())
    from_file = run(capsys, "verify", "--weights", str(path), "--P", "16", "--N", "4")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
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


def test_verify_props_self_checks(capsys):
    code, out = run(capsys, "verify", "--props")
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert lines and all(entry["ok"] for entry in lines)
    names = {entry["check"] for entry in lines}
    assert "zero_sum_identities" in names


def test_verify_props_negative_seed_exits_3(capsys):
    assert_input_error(capsys, "verify", "--props", "--seed", "-1")


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


@pytest.mark.parametrize("flag, value", [("--batch-size", "0"), ("--batch-size", "-4"), ("--epochs", "-1")])
def test_train_out_of_range_schedule_exits_3(flag, value, capsys):
    err = assert_input_error(capsys, "train", "--M", "4", "--N", "4", "--P", "12", *TRAIN_FAST, flag, value)
    assert flag.removeprefix("--").replace("-", "_") in err


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
    [("1e6", "2", "parameter overflow at epoch 0"), ("nan", "1", "non-finite loss at epoch 0")],
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


def test_python_m_accq_runs_the_cli():
    proc = run_shell("accq", "bounds", "--ratio", "--N", "4")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "32/15\n", "")


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


@pytest.mark.parametrize("raw", ["abc", "1.5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--weights", str(VERIFY_CHANNELS), "--P", "12", "--N", "4"],
        ["train", "--M", "4", "--N", "4", "--P", "12", "--epochs", "1"],
    ],
    ids=["verify", "train"],
)
def test_malformed_enum_budget_exits_3_from_a_shell(argv, raw):
    err = assert_shell_input_error(argv, ACCQ_ENUM_BUDGET=raw)
    assert "ACCQ_ENUM_BUDGET" in err and repr(raw) in err


NOT_UTF8 = b"1,2\n\xff\xfe,3\n"


@pytest.mark.parametrize("cmd", [["verify", "--P", "12", "--N", "4", "--weights"], ["pareto", "--records"]])
def test_non_utf8_file_exits_3_from_a_shell(cmd, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(NOT_UTF8)
    assert "not UTF-8" in assert_shell_input_error([*cmd, str(path)])


# the C locale reads stdin's bad bytes as lone surrogates; strict decoding raises on them
@pytest.mark.parametrize("io_encoding", [None, "utf-8:strict"])
def test_non_utf8_stdin_exits_3_from_a_shell(io_encoding, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(NOT_UTF8)
    env = {"PYTHONIOENCODING": io_encoding} if io_encoding else {}
    with path.open("rb") as stdin:
        err = assert_shell_input_error(["verify", "--P", "12", "--N", "4", "--weights", "-"], stdin=stdin, **env)
    assert "not UTF-8" in err


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


def test_analyze_out_of_range_M_exits_3(checkpoints, capsys):
    qpath, _ = checkpoints
    assert_input_error(capsys, "analyze", "--ckpt", str(qpath), "--M", "1", "--N", "4")


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
    ],
)
def test_analyze_malformed_checkpoint_exits_3(payload, tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(payload))
    assert_input_error(capsys, "analyze", "--ckpt", str(path), "--M", "4", "--N", "4")


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


def test_pareto_empty_or_malformed_exits_3(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert cli.main(["pareto", "--records", str(empty)]) == 3
    header_only = tmp_path / "h.csv"
    header_only.write_text(CSV_HEADER + "\n")
    assert cli.main(["pareto", "--records", str(header_only)]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    assert cli.main(["pareto", "--records", str(bad)]) == 3


def test_pareto_json(tmp_path, capsys):
    path = tmp_path / "a.csv"
    path.write_text(_csv(["a2q+,4,4,12,0,0.25,0.4,7/8"]))
    code, out = run(capsys, "pareto", "--records", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "a2q+" and payload["min_slack"] == "7/8"
