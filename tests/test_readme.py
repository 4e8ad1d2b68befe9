"""README's code blocks still run and say what they claim."""

import re
import shlex
from pathlib import Path

import pytest

from wild11.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading, lang):
    """Body of the first ```lang block under the '## heading' section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.S)
    assert match, f"no {lang} block under {heading!r}"
    return match.group(1)


def test_library_example_prints_its_comment(capsys):
    exec(_block("Library example", "python"), {})
    assert capsys.readouterr().out == "2 10\n"


@pytest.mark.parametrize(
    "line", [ln for ln in _block("Command line", "sh").splitlines() if ln.strip()]
)
def test_command_line_example_exits_zero(capsys, line):
    argv = shlex.split(line, comments=True)
    assert argv[0] == "wild11"
    assert main(argv[1:]) == EXIT_OK
    assert capsys.readouterr().out
