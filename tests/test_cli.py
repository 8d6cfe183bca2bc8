"""Partition string handling and the command line surface."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import pytest
from hypothesis import given

from laddercrystal.cli import _report_exit, build_parser, main
from laddercrystal.graph import VerificationReport
from laddercrystal.strings import format_partition, parse_partition

from strategies import partitions


def test_parse_golden():
    assert parse_partition("3,2^2,1^5") == (3, 2, 2, 1, 1, 1, 1, 1)
    assert parse_partition("empty") == ()
    assert parse_partition("") == ()
    assert parse_partition("10,8,3") == (10, 8, 3)
    assert parse_partition(" 4 , 1 ") == (4, 1)


def test_parse_rejects_garbage():
    for bad in ["x", "3,,1", "1,2", "2^", "-3", "1^2^3", "3^0"]:
        with pytest.raises(ValueError):
            parse_partition(bad)


def test_format_golden():
    assert format_partition(()) == "empty"
    assert format_partition((3, 2, 2, 1, 1, 1, 1, 1)) == "3,2,2,1,1,1,1,1"


@given(partitions())
def test_parse_format_round_trip(lam):
    assert parse_partition(format_partition(lam)) == lam


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


def test_jm_check_json(capsys):
    status, out = run_cli(capsys, "jm", "check", "--ell", "3", "10,8,3,2^2,1^5")
    assert status == 0
    payload = json.loads(out)
    assert payload["is_jm"] is True
    assert payload["generalized"] is True
    assert payload["witness"] is None


def test_jm_check_reports_witness(capsys):
    status, out = run_cli(capsys, "jm", "check", "--ell", "3", "3,1,1,1")
    assert status == 0
    payload = json.loads(out)
    assert payload["is_jm"] is False
    assert payload["witness"] == {
        "base": [1, 1],
        "row_mate": [1, 2],
        "col_mate": [3, 1],
    }


def test_regularize_emits_bare_string(capsys):
    status, out = run_cli(capsys, "regularize", "--ell", "3", "2,2,2,1,1,1")
    assert status == 0
    assert out == '"3,3,2,1"\n'
    status, out = run_cli(capsys, "regularize", "--ell", "3", "2,2,2,1,1,1", "--plain")
    assert out == "3,3,2,1\n"


def test_deregularize_and_mullineux(capsys):
    _, out = run_cli(capsys, "deregularize", "--ell", "3", "3,2,1", "--plain")
    assert out == "2,1,1,1,1\n"
    _, out = run_cli(capsys, "mullineux", "--ell", "3", "3,2,1", "--plain")
    assert out == "5,1\n"


def test_regclass_json_and_plain(capsys):
    status, out = run_cli(capsys, "regclass", "--ell", "3", "2,2,2,1,1,1")
    assert status == 0
    assert json.loads(out) == {
        "partition": "2,2,2,1,1,1",
        "ell": 3,
        "representative": "3,3,2,1",
        "members": ["2,2,2,1,1,1", "2,2,2,2,1", "3,2,1,1,1,1", "3,2,2,2", "3,3,1,1,1", "3,3,2,1"],
    }
    status, out = run_cli(capsys, "regclass", "--ell", "3", "2,2,2,1,1,1", "--plain")
    assert status == 0
    assert out == "2,2,2,1,1,1\n2,2,2,2,1\n3,2,1,1,1,1\n3,2,2,2\n3,3,1,1,1\n3,3,2,1\n"


def test_jm_count_emits_bare_number(capsys):
    status, out = run_cli(capsys, "jm", "count", "--ell", "3", "--core", "3,1", "--weight", "3")
    assert status == 0
    assert out == "6\n"


def test_jm_enumerate(capsys):
    _, out = run_cli(
        capsys, "jm", "enumerate", "--ell", "3", "--core", "3,1", "--weight", "3", "--plain"
    )
    assert out.splitlines() == [
        "12,1",
        "9,4",
        "9,1,1,1,1",
        "6,4,1,1,1",
        "6,1,1,1,1,1,1,1",
        "3,1,1,1,1,1,1,1,1,1,1",
    ]


# Output of the former scripts/jm_census.py for the same arguments.
CENSUS_PLAIN = """\
core empty        w=1:2 w=2:2 w=3:2 w=4:2
core 1            w=1:2 w=2:3 w=3:4 w=4:5
core 2            w=1:2 w=2:4 w=3:5 w=4:7
core 1,1          w=1:2 w=2:4 w=3:5 w=4:7
core 3,1          w=1:2 w=2:4 w=3:6 w=4:9
core 2,1,1        w=1:2 w=2:4 w=3:6 w=4:9
core 3,1,1        w=1:2 w=2:5 w=3:8 w=4:13
core 4,2          w=1:2 w=2:4 w=3:7 w=4:10
core 2,2,1,1      w=1:2 w=2:4 w=3:7 w=4:10
total JM partitions counted: 174
"""

CENSUS_LIST_PLAIN = """\
core empty        w=1:2 w=2:2
    w=1: 3, 1,1,1
    w=2: 6, 1,1,1,1,1,1
core 1            w=1:2 w=2:3
    w=1: 4, 1,1,1,1
    w=2: 7, 4,1,1,1, 1,1,1,1,1,1,1
core 2            w=1:2 w=2:4
    w=1: 5, 2,1,1,1
    w=2: 8, 5,3, 5,1,1,1, 2,1,1,1,1,1,1
core 1,1          w=1:2 w=2:4
    w=1: 4,1, 1,1,1,1,1
    w=2: 7,1, 4,1,1,1,1, 2,2,2,1,1, 1,1,1,1,1,1,1,1
total JM partitions counted: 21
"""


def test_jm_census_plain_golden(capsys):
    census = ["jm", "census", "--ell", "3", "--max-core", "6", "--max-weight", "4", "--plain"]
    assert run_cli(capsys, *census) == (0, CENSUS_PLAIN)
    listed = ["jm", "census", "--ell", "3", "--max-core", "3", "--max-weight", "2", "--list", "--plain"]
    assert run_cli(capsys, *listed) == (0, CENSUS_LIST_PLAIN)


def test_jm_census_json(capsys):
    status, out = run_cli(capsys, "jm", "census", "--ell", "3", "--max-core", "6", "--max-weight", "4")
    assert status == 0
    payload = json.loads(out)
    assert payload["total"] == 174
    assert payload["weights"] == [1, 2, 3, 4]
    assert payload["cores"][6] == {"core": "3,1,1", "counts": [2, 5, 8, 13]}
    assert sum(sum(entry["counts"]) for entry in payload["cores"]) == 174
    _, out = run_cli(capsys, "jm", "census", "--ell", "3", "--max-core", "1", "--max-weight", "1", "--list")
    assert json.loads(out)["cores"] == [
        {"core": "empty", "counts": [2], "partitions": [["3", "1,1,1"]]},
        {"core": "1", "counts": [2], "partitions": [["4", "1,1,1,1"]]},
    ]
    assert main(["jm", "census", "--ell", "3", "--max-weight", "-1"]) == 2
    capsys.readouterr()


def test_jm_decompose(capsys):
    _, out = run_cli(capsys, "jm", "decompose", "--ell", "3", "15,10,8,6,2^5,1^5", "--plain")
    assert out == "mu=1 r=3 s=2 rho=2,1,1,1 sigma=2,1\n"
    _, out = run_cli(capsys, "jm", "decompose", "--ell", "3", "15,10,8,6,2^5,1^5")
    payload = json.loads(out)
    assert payload["mu"] == "1"
    assert payload["r"] == 3
    assert payload["s"] == 2


def test_core_subcommand(capsys):
    _, out = run_cli(capsys, "core", "--ell", "3", "3,2,1", "--plain")
    assert out == "empty 2\n"


def test_info_maps_weak_error_to_note(capsys):
    _, out = run_cli(capsys, "info", "--ell", "3", "2,2,2,1,1,1")
    payload = json.loads(out)
    assert payload["regular"] is False
    assert payload["weak"] is False
    assert payload["weak_note"] == "not 3-regular"
    assert payload["ladder_node"] is True


def test_crystal_build_writes_dot(capsys, tmp_path):
    target = tmp_path / "graph.dot"
    status, out = run_cli(
        capsys, "crystal", "build", "--ell", "3", "--depth", "2", "--dot", str(target)
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["level_sizes"] == [1, 1, 2]
    assert payload["edges"] == [["empty", "1", 0], ["1", "2", 1], ["1", "1,1", 2]]
    text = target.read_text(encoding="utf-8")
    assert text.startswith("digraph classical_crystal {")
    assert text.endswith("}\n")


def test_crystal_build_to_an_unwritable_dot_path_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "graph.dot"
    assert main(["crystal", "build", "--ell", "3", "--depth", "2", "--dot", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not target.exists()


def test_crystal_verify_and_suite_exit_zero(capsys):
    status, _ = run_cli(capsys, "crystal", "verify", "--ell", "3", "--depth", "4")
    assert status == 0
    status, _ = run_cli(capsys, "suite", "--ell", "3", "--nmax", "5")
    assert status == 0


def test_failing_report_exits_one(capsys):
    report = VerificationReport(suite="demo", ell=3, params={})
    report.check(False, (2, 1), 0, "a", "b")
    assert _report_exit(report, plain=False) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["failures"]


def test_usage_errors_exit_two(capsys):
    assert main(["regularize", "--ell", "3", "bogus"]) == 2
    assert main(["mullineux", "--ell", "2", "2,1"]) == 2
    assert main(["jm", "check", "--ell", "2", "2,1"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


HUGE = "99999999999999999999"  # past 2**63, so no list or range can be that long
# Below 2**63, but each command below asks for a list of more than 2**62
# bytes, which the allocator refuses at once.
UNALLOCATABLE = "999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [
        ["info", HUGE],
        ["regularize", HUGE],
        ["deregularize", HUGE],
        ["regclass", HUGE],
        ["jm", "check", HUGE],
        ["jm", "decompose", HUGE],
        ["jm", "count", "--core", "1", "--weight", HUGE],
        ["mullineux", HUGE],
        ["info", UNALLOCATABLE],
        ["regularize", UNALLOCATABLE],
        ["deregularize", UNALLOCATABLE],
        ["regclass", UNALLOCATABLE],
        ["jm", "check", UNALLOCATABLE],
        ["jm", "decompose", UNALLOCATABLE],
    ],
    ids=lambda argv: " ".join(arg for arg in argv if arg != HUGE),
)
def test_oversized_input_is_a_usage_error(capsys, argv):
    # these raised OverflowError or MemoryError and exited 1 with a traceback, and mullineux never returned
    assert main([*argv, "--ell", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_suite_rejects_negative_nmax(capsys):
    assert main(["suite", "--ell", "3", "--nmax", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_jm_check_at_weight_1000(capsys):
    status, out = run_cli(capsys, "jm", "check", "--ell", "3", "3000")
    assert status == 0
    payload = json.loads(out)
    assert payload["is_jm"] is True
    assert payload["generalized"] is True


def test_info_at_weight_1000(capsys):
    status, out = run_cli(capsys, "info", "--ell", "3", "3000")
    assert status == 0
    payload = json.loads(out)
    assert payload["core"] == "empty"
    assert payload["weight"] == 1000
    assert payload["ell_partition"] is True
    assert payload["jm"] is True


# At ell = 3, a core of 8 rows of difference 2 with horizontal hooks
# 2*(9, ..., 1) on its rows: 342 boxes, hooks on nine rows at once.
MULTI_ROW = "70,62,54,46,38,30,22,14,6"


def test_jm_check_with_hooks_on_many_rows(capsys):
    status, out = run_cli(capsys, "jm", "check", "--ell", "3", MULTI_ROW)
    assert status == 0
    assert json.loads(out) == {
        "partition": MULTI_ROW,
        "ell": 3,
        "is_jm": True,
        "generalized": True,
        "witness": None,
    }


def test_info_with_hooks_on_many_rows(capsys):
    status, out = run_cli(capsys, "info", "--ell", "3", MULTI_ROW)
    assert status == 0
    payload = json.loads(out)
    assert payload["size"] == 342
    assert (payload["core"], payload["weight"]) == ("16,14,12,10,8,6,4,2", 90)
    for key in ("regular", "star", "ell_partition", "jm", "L_partition", "weak", "ladder_node"):
        assert payload[key] is True, key


def test_mullineux_at_size_1001(capsys):
    status, out = run_cli(capsys, "mullineux", "--ell", "3", "1000,1")
    assert status == 0
    image = parse_partition(json.loads(out))
    assert sum(image) == 1001


def test_identical_runs_emit_identical_bytes(capsys):
    args = ["crystal", "build", "--ell", "3", "--depth", "6", "--model", "ladder"]
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "laddercrystal", "core", "--ell", "3", "3,2,1", "--plain"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "empty 2\n"


LEAF_COMMANDS = [
    ["info"],
    ["core"],
    ["jm", "check"],
    ["jm", "count"],
    ["jm", "enumerate"],
    ["jm", "census"],
    ["jm", "decompose"],
    ["crystal", "build"],
    ["crystal", "verify"],
    ["regularize"],
    ["deregularize"],
    ["regclass"],
    ["mullineux"],
    ["suite"],
]


@pytest.mark.parametrize("command", LEAF_COMMANDS, ids=" ".join)
def test_every_subcommand_documents_ell_and_plain(capsys, command):
    assert main(command + ["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--ell ELL modulus (>= 2; JM needs >= 3)" in text
    assert "--plain plain text instead of JSON" in text
    parser = build_parser()
    for name in command:
        parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[name]
    for action in parser._actions:
        assert action.help, f"{' '.join(command)} {action.option_strings or action.dest} has no help"
    if command[0] in ("regularize", "deregularize", "mullineux"):
        # one partition string: a JSON string in JSON, bare with --plain
        argv = command + ["--ell", "3", "4,2,1,1"]
        assert main(argv) == 0
        as_json = json.loads(capsys.readouterr().out)
        assert main(argv + ["--plain"]) == 0
        assert capsys.readouterr().out == as_json + "\n"
