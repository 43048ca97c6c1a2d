"""The README's examples run as written: its library example and each
``fxcorr`` line of its CLI block, with ``snap.json`` read as the golden
``world.json`` and ``payoff.json`` as the golden ``basket.json``."""

import re
import shlex
from pathlib import Path

import pytest

from fxcorr import cli

README = (Path(__file__).parent.parent / "README.md").read_text()
GOLDEN = Path(__file__).parent / "data" / "golden"
FILES = {"snap.json": str(GOLDEN / "world.json"), "payoff.json": str(GOLDEN / "basket.json")}


def fenced_block(heading: str, language: str) -> str:
    """The first fenced block of a language in the README section under a heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [
    shlex.split(line, comments=True)
    for line in fenced_block("CLI", "bash").replace("\\\n", " ").splitlines()
    if line.startswith("fxcorr ")
]


def test_cli_block_has_every_subcommand():
    assert len(CLI_LINES) == 7
    assert {argv[1] for argv in CLI_LINES} == {
        "validate", "implied-vol", "corr", "corr-matrix", "bootstrap", "price",
    }


@pytest.mark.parametrize("argv", CLI_LINES, ids=[f"{n}-{argv[1]}" for n, argv in enumerate(CLI_LINES)])
def test_cli_line_exits_0(argv, capsys):
    code = cli.main([FILES.get(arg, arg) for arg in argv[1:]])
    assert code == 0, capsys.readouterr().err


def test_library_example_runs(capsys):
    source = fenced_block("Library example", "python")
    assert '"snap.json"' in source
    exec(compile(source.replace('"snap.json"', repr(FILES["snap.json"])), "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2
