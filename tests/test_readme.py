"""The examples in README.md: the library session and the command lines."""

from __future__ import annotations

import doctest
import json
import re
import shlex
from pathlib import Path

import pytest

from laddercrystal.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang: str) -> list[str]:
    """The bodies of the fenced code blocks in the given language.

    Taking the bodies keeps the closing fence out of the last example's
    expected output, which doctest.testfile would read into it.
    """
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), re.M | re.S)


def _command_examples() -> list[tuple[str, list[str]]]:
    """Each "$ laddercrystal ..." line with the output lines shown after it."""
    examples: list[tuple[str, list[str]]] = []
    for block in _blocks("sh"):
        shown = None  # lines before the block's first "$" are not output
        for line in block.splitlines():
            if line.startswith("$ laddercrystal "):
                shown = []
                examples.append((line[2:], shown))
            elif shown is not None and line:
                shown.append(line)
    return examples


def test_library_session():
    (session,) = [block for block in _blocks("python") if ">>>" in block]
    test = doctest.DocTestParser().get_doctest(session, {}, "README", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
    assert len(test.examples) >= 10


COMMANDS = _command_examples()


def test_every_command_example_is_collected():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("command,shown", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_command_example(command, shown, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # an example may write files
    argv = shlex.split(command)[1:]
    redirected = ">" in argv
    if redirected:  # the README shows no output; stdout goes to a JSON file
        argv = argv[: argv.index(">")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if redirected:
        assert not shown
        json.loads(out)
    else:
        assert out.splitlines() == shown
    if "--dot" in argv:
        assert (tmp_path / argv[argv.index("--dot") + 1]).read_text().startswith("digraph")
