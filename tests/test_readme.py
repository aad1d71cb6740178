"""The README's examples run as documented: the library quick start prints
the values its comments state, and every `pseudoprob` invocation of the CLI
section exits 0."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from pseudoprob import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading: str, lang: str) -> str:
    """The first fenced block of `lang` under the README's `## heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def cli_invocations() -> list:
    lines = code_block("CLI", "sh").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("pseudoprob ")]


def test_library_quick_start_prints_documented_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code_block("Library quick start", "python"), {})
    entry, negativity, negatives, blocks = out.getvalue().splitlines()
    assert abs(float(entry) + 1 / 16) <= 1e-12
    assert abs(float(negativity) - 0.125) <= 1e-12
    negatives = ast.literal_eval(negatives)
    assert sorted(t for t, _ in negatives) == [(-1, -1, -1), (1, 1, 1)]
    assert all(abs(v + 1 / 16) <= 1e-12 for _, v in negatives)
    assert int(blocks) == 6


def test_readme_lists_every_subcommand():
    commands = {argv[0] for argv in cli_invocations()}
    assert commands == {"scheme", "scan-negativity", "classical-region", "spectrum", "entanglement"}


@pytest.mark.parametrize("argv", cli_invocations(), ids=" ".join)
def test_cli_invocation_exits_zero(argv, capsys):
    assert cli.main(argv + ["--deterministic"]) == 0
    captured = capsys.readouterr()
    assert captured.out
    assert not captured.err
