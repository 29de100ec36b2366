"""README's CLI examples, run as written, and its library layout.

Each text block of README.md that holds `$ ...` lines is one session, run in
a fresh directory: `$ accq ...` runs the CLI and its stdout must equal the
lines printed under it, byte for byte; `$ printf '...' > FILE` writes FILE and
`$ echo $?` checks the last exit code.  A session whose output README cuts
short with `...`, or that reads a file README does not write, is skipped.
The library-layout table must list exactly the package's modules.
"""

from __future__ import annotations

import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import accq
from accq import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _sessions() -> list[list[tuple[list[str], list[str]]]]:
    """Per text block with commands, its (argv, expected stdout lines) in order."""
    sessions = []
    for block in re.findall(r"```text\n(.*?)```", README.read_text(), re.S):
        steps: list[tuple[list[str], list[str]]] = []
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((shlex.split(line[2:]), []))
            elif steps:
                steps[-1][1].append(line)
        if steps:
            sessions.append(steps)
    return sessions


def _skip_reason(steps) -> str | None:
    written = {argv[3] for argv, _ in steps if argv[0] == "printf"}
    for argv, expected in steps:
        if "..." in expected:
            return "README truncates the output"
        unseen = [a for a in argv if re.search(r"\.(json|txt|csv)$", a) and a not in written]
        if argv[0] == "accq" and unseen:
            return f"README does not show {unseen[0]}"
    return None


SESSIONS = _sessions()


def test_readme_has_runnable_sessions():
    runnable = [steps for steps in SESSIONS if _skip_reason(steps) is None]
    commands = {argv[1] for steps in runnable for argv, _ in steps if argv[0] == "accq"}
    assert {"bounds", "project", "verify", "train", "analyze", "pareto"} <= commands


@pytest.mark.parametrize(
    "steps", SESSIONS, ids=[f"{i}-{next(a[1] for a, _ in s if a[0] == 'accq')}" for i, s in enumerate(SESSIONS)]
)
def test_readme_session(steps, tmp_path, monkeypatch, capsys):
    reason = _skip_reason(steps)
    if reason:
        pytest.skip(reason)
    monkeypatch.chdir(tmp_path)
    code = None
    for argv, expected in steps:
        want = "".join(line + "\n" for line in expected)
        if argv[0] == "printf":
            assert argv[2] == ">" and len(argv) == 4 and not expected
            Path(argv[3]).write_text(argv[1].encode().decode("unicode_escape"))
        elif argv == ["echo", "$?"]:
            assert f"{code}\n" == want
        else:
            assert argv[0] == "accq"
            code = cli.main(argv[1:])
            assert capsys.readouterr().out == want, shlex.join(argv)


def test_library_layout_lists_every_module():
    section = README.read_text().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `accq\.(\w+)` \|", section, re.M)
    shipped = [mod.name for mod in pkgutil.iter_modules(accq.__path__) if mod.name != "__main__"]
    assert sorted(listed) == sorted(shipped)
