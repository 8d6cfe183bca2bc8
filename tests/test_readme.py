"""The examples in README.md: the library session and the command lines;
and the tests and private names that README.md and the package's
docstrings cite."""

from __future__ import annotations

import ast
import doctest
import json
import re
import shlex
from pathlib import Path

import pytest

from laddercrystal.cli import main

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
PACKAGE = TESTS.parent / "src" / "laddercrystal"


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


def test_cited_tests_exist_and_oracles_live_in_one_module():
    # every test_... name in README.md or a package docstring names a test
    # function or a test module, and each oracle lives in tests/oracles.py,
    # not in a private helper of the module that uses it
    modules = {path.stem: path.read_text() for path in TESTS.glob("*.py")}
    defined = set(modules) | {name for text in modules.values() for name in re.findall(r"^def (test_\w+)", text, re.M)}
    docs = [README, *PACKAGE.glob("*.py")]
    cited = {name for path in docs for name in re.findall(r"\btest_\w+", path.read_text())}
    assert cited and cited <= defined, sorted(cited - defined)
    private = re.compile(r"^\s*def (_reference_\w*|_parent_\w*|_random_partition)\b", re.M)
    assert not {name: private.findall(text) for name, text in modules.items() if private.search(text)}


def test_cited_private_names_are_defined():
    # every _name or module._name in README.md or a package docstring names
    # a function, class or module constant of the package (of that module,
    # when one is named), so a deleted helper leaves no citation behind
    defined, docs = {}, [README.read_text()]
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        assigned = [target for node in tree.body if isinstance(node, ast.Assign) for target in node.targets]
        names = {target.id for target in assigned if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)) and ast.get_docstring(node):
                docs.append(ast.get_docstring(node))
        defined[path.stem] = names
    anywhere = set().union(*defined.values())
    private = re.compile(r"(?:\b(\w+)\.)?(?<![\w'])(_[A-Za-z]\w*)")  # not lam'_b, lam_r or __slots__
    cited = {match.groups() for doc in docs for match in private.finditer(doc)}
    assert {name for _, name in cited} >= {"_beads", "_runners"}
    assert not sorted((module, name) for module, name in cited if name not in defined.get(module, anywhere))
