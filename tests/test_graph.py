"""Crystal graphs: construction, node sets, DOT export, verification suites."""

from __future__ import annotations

import hashlib
import importlib

import pytest

from laddercrystal import crystal
from laddercrystal.crystal import (
    LADDER,
    ReducedWord,
    e_hat,
    epsilon,
    f_hat,
    ladder_epsilon,
    ladder_phi,
    reduced_word,
)
from laddercrystal.graph import (
    CrystalGraph,
    VerificationReport,
    _ClassTable,
    _string_end_checks,
    _weak_table,
    build_crystal,
    export_dot,
    theorem_suite,
    verify_isomorphism,
)
from laddercrystal.jm import _is_jm, is_jm
from laddercrystal.partitions import all_partitions, hook_grid, is_regular, residue, size, transpose
from laddercrystal.regular import _mullineux, deregularize, is_weak_ell_partition, regularize

from helpers import ladder_node_levels, regular_counts


REGULAR_COUNTS_3 = [1, 1, 2, 2, 4, 5, 7, 9, 13, 16, 22]


def test_level_sizes_match_regular_partition_counts():
    assert regular_counts(3, 10) == REGULAR_COUNTS_3
    for model in ("classical", "ladder"):
        graph = build_crystal(3, 6, model)
        assert [len(level) for level in graph.levels] == REGULAR_COUNTS_3[:7]


def test_depth_zero_graph():
    graph = build_crystal(3, 0, "classical")
    assert graph.levels == (((),),)
    assert graph.edges == ()
    assert export_dot(graph) == (
        'digraph classical_crystal {\n'
        '  rankdir=TB;\n'
        '  node [shape=box];\n'
        '  { rank=same; "empty"; }\n'
        '}\n'
    )


def test_classical_nodes_are_regular_partitions():
    graph = build_crystal(3, 7, "classical")
    for n, level in enumerate(graph.levels):
        expected = sorted(lam for lam in all_partitions(n) if is_regular(lam, 3))
        assert list(level) == expected


def test_ladder_nodes_are_deregularizations():
    graph = build_crystal(3, 7, "ladder")
    expected_levels = ladder_node_levels(3, 7)
    for n, level in enumerate(graph.levels):
        expected = sorted(
            {
                deregularize(lam, 3)
                for lam in all_partitions(n)
                if is_regular(lam, 3)
            }
        )
        assert list(level) == expected
        assert set(level) == expected_levels[n]


@pytest.mark.parametrize("model", ["classical", "ladder"])
def test_edges_add_one_box_of_the_labeled_residue(model):
    graph = build_crystal(3, 6, model)
    for src, dst, i in graph.edges:
        assert size(dst) == size(src) + 1
        added = set(
            (a + 1, b + 1)
            for a, row in enumerate(dst)
            for b in range(row)
        ) - set(
            (a + 1, b + 1)
            for a, row in enumerate(src)
            for b in range(row)
        )
        assert len(added) == 1
        assert residue(added.pop(), 3) == i


@pytest.mark.parametrize("model", ["classical", "ladder"])
def test_in_edges_realize_epsilon_support(model):
    graph = build_crystal(3, 6, model)
    counter = epsilon if model == "classical" else ladder_epsilon
    in_edges: dict = {}
    for src, dst, i in graph.edges:
        in_edges.setdefault(dst, []).append(i)
    for n, level in enumerate(graph.levels):
        for lam in level:
            labels = in_edges.get(lam, [])
            assert len(labels) == len(set(labels)), "at most one in-edge per residue"
            if n > 0:
                assert labels, "every non-root node is reachable"
            for i in range(3):
                assert (i in labels) == (counter(lam, i, 3) >= 1)


def test_dot_export_golden():
    graph = build_crystal(3, 2, "classical")
    assert len(graph.nodes) == 4
    assert len(graph.edges) == 3
    assert export_dot(graph) == (
        'digraph classical_crystal {\n'
        '  rankdir=TB;\n'
        '  node [shape=box];\n'
        '  { rank=same; "empty"; }\n'
        '  { rank=same; "1"; }\n'
        '  { rank=same; "1,1"; "2"; }\n'
        '  "empty" -> "1" [label="0"];\n'
        '  "1" -> "2" [label="1"];\n'
        '  "1" -> "1,1" [label="2"];\n'
        '}\n'
    )


def test_dot_export_is_deterministic():
    first = export_dot(build_crystal(3, 5, "ladder"))
    second = export_dot(build_crystal(3, 5, "ladder"))
    assert first == second
    assert first.endswith("\n")
    assert "\r" not in first


def test_ladder_two_string_is_a_five_node_path():
    graph = build_crystal(3, 17, "ladder")
    start = (5, 3, 1, 1, 1, 1, 1)
    assert start in graph.levels[13]
    string_edges = [
        (src, dst) for src, dst, i in graph.edges if i == 2
    ]
    path = [start]
    while True:
        nxt = [dst for src, dst in string_edges if src == path[-1]]
        if not nxt:
            break
        path.append(nxt[0])
    assert len(path) == 5
    assert path[-1] == (6, 4, 2, 1, 1, 1, 1, 1)
    assert not [src for src, dst in string_edges if dst == start]


def test_verify_isomorphism_passes():
    report = verify_isomorphism(3, 6)
    assert report.passed
    assert not report.failures
    # four identities per node and residue
    node_count = sum(REGULAR_COUNTS_3[:7])
    assert report.checks == 4 * 3 * node_count


@pytest.mark.parametrize("ell,depth,checks", [(3, 18, 7776), (4, 14, 5424)])
def test_verify_isomorphism_check_counts(ell, depth, checks):
    report = verify_isomorphism(ell, depth)
    assert report.checks == checks
    assert not report.failures


@pytest.mark.parametrize(
    "model,digest",
    [
        ("classical", "5ceb51d55e1e549199c69d3ee4a2849d394cf978c7106c0e750aa51d45b57059"),
        ("ladder", "6b2b8cdb509146075024f423d800869e8f750692e5147246afacc690828be752"),
    ],
)
def test_dot_export_digest_at_depth_22(model, digest):
    text = export_dot(build_crystal(3, 22, model))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("sweep", [build_crystal, verify_isomorphism])
def test_graph_sweeps_reject_bad_depths(sweep):
    for depth in (2.5, "3", -1, None):
        with pytest.raises(ValueError):
            sweep(3, depth)


def test_theorem_suite_passes():
    report = theorem_suite(3, 8)
    assert report.passed
    assert report.checks > 0
    assert report.to_dict()["suite"] == "crystal-theorems"


@pytest.mark.parametrize("ell,nmax,checks", [(3, 20, 14054), (4, 18, 10774), (5, 16, 9377)])
def test_theorem_suite_check_counts(ell, nmax, checks):
    report = theorem_suite(ell, nmax)
    assert report.checks == checks
    assert not report.failures


def test_theorem_suite_leaves_the_mullineux_cache_alone():
    # emptied first: an earlier test may have filled it for every input
    _mullineux.cache_clear()
    assert theorem_suite(3, 12).passed
    assert _mullineux.cache_info().currsize == 0


def test_sweeps_read_no_process_wide_cache():
    # the public caches serve outside callers; a sweep keeps its tables for the call only
    caches = (transpose, hook_grid, regularize, all_partitions)
    for cache in caches:
        cache.cache_clear()
    assert theorem_suite(3, 10).passed
    assert verify_isomorphism(3, 8).passed
    assert all(cache.cache_info().hits + cache.cache_info().misses == 0 for cache in caches)


def test_build_crystal_rejects_an_unknown_model():
    with pytest.raises(ValueError):
        build_crystal(3, 2, "nope")


def test_string_end_checks_skip_steps_that_can_stay_in_class():
    # f^(phi-1) and e^1 are not checked, because class members occur there:
    # at ell=3, (2) has ladder phi_2 = 2 and f_hat_2(2) = (3) is JM, and
    # (3,1) has ladder epsilon_2 = 2 and e_hat_2(3,1) = (3) is JM.
    assert is_jm((2,), 3) and is_jm((3, 1), 3) and is_jm((3,), 3)
    assert ladder_phi((2,), 2, 3) == 2 and f_hat((2,), 2, 3) == (3,)
    assert ladder_epsilon((3, 1), 2, 3) == 2 and e_hat((3, 1), 2, 3) == (3,)
    for lam in ((2,), (3, 1)):
        report = VerificationReport(suite="demo", ell=3, params={})
        _string_end_checks(report, lam, 2, 3, "jm", is_jm, reduced_word(lam, 2, 3, LADDER))
        # both steps checked defined and the end checked in the class; step 1 unchecked
        assert report.checks == 3
        assert report.passed


@pytest.mark.parametrize(
    "lam,word,expected",
    [
        # (2,) has ladder plus boxes (1,3), (2,1) for residue 2; (2,2) is not addable to (3,)
        ((2,), ReducedWord([(2, 2), (1, 3)], []), "jm: f^2 adds an addable box"),
        ((2,), ReducedWord([(1, 4)], []), "jm: f^1 adds an addable box"),
        ((2, 2), ReducedWord([(2, 3)], []), "jm: f^1 adds an addable box"),
        # (3,1) has ladder minus boxes (2,1), (1,3); (1,2) is not removable from (3,)
        ((3, 1), ReducedWord([], [(2, 1), (1, 2)]), "jm: e^2 removes a removable box"),
        ((2, 2), ReducedWord([], [(1, 2)]), "jm: e^1 removes a removable box"),
        ((2, 2), ReducedWord([], [(3, 1)]), "jm: e^1 removes a removable box"),
    ],
)
def test_string_end_checks_record_a_corrupted_word(lam, word, expected):
    report = VerificationReport(suite="demo", ell=3, params={})
    _string_end_checks(report, lam, 2, 3, "jm", is_jm, word)
    assert not report.passed
    assert [f["expected"] for f in report.failures] == [expected]


def test_theorem_suite_rejects_negative_nmax():
    # a sweep over no partitions would run zero checks and report a pass
    with pytest.raises(ValueError):
        theorem_suite(3, -1)
    assert theorem_suite(3, 0).checks > 0


@pytest.mark.parametrize("nmax", [2.5, True, False, "3", None])
def test_theorem_suite_rejects_non_integer_nmax(nmax):
    with pytest.raises(ValueError):
        theorem_suite(3, nmax)


@pytest.mark.parametrize("sweep", [build_crystal, verify_isomorphism])
def test_graph_sweeps_reject_a_bool_depth(sweep):
    with pytest.raises(ValueError):
        sweep(3, True)


def test_theorem_suite_reads_one_word_per_node_and_model(monkeypatch):
    # one all-residue read per walked node and model, plus two per regular
    # partition for the Mullineux levels (2,216 in all); a read per string
    # step gave 10,151, and a one-residue read per residue tried for the
    # Mullineux levels 2,825
    calls = 0
    signatures = crystal._signatures

    def counted(*args):
        nonlocal calls
        calls += 1
        return signatures(*args)

    monkeypatch.setattr(crystal, "_signatures", counted)
    assert theorem_suite(3, 16).checks == 6197
    assert theorem_suite(4, 14).checks == 4685
    assert 0 < calls <= 2500


def test_theorem_suite_makes_no_checked_regularity_calls(monkeypatch):
    # the sweep tests regularity unchecked (its Mullineux table's keys are
    # the regular partitions of the level); it made 5,045 public calls
    calls = 0

    def counted(lam, ell):
        nonlocal calls
        calls += 1
        return is_regular(lam, ell)

    for name in ("partitions", "jm", "regular", "graph"):
        module = importlib.import_module(f"laddercrystal.{name}")
        if hasattr(module, "is_regular"):
            monkeypatch.setattr(module, "is_regular", counted)
    assert theorem_suite(3, 16).checks == 6197
    assert theorem_suite(4, 14).checks == 4685
    assert calls == 0


@pytest.mark.parametrize("ell", [3, 4])
def test_weak_membership_through_the_jm_table(ell):
    # the sweep's weak table answers from its JM table, at the size of lam
    jm_table = _ClassTable(_is_jm)
    weak_table = _weak_table(jm_table)
    for n in range(17):
        for lam in all_partitions(n):
            if is_regular(lam, ell):
                weak = weak_table(lam, ell)
                assert weak == is_weak_ell_partition(lam, ell), lam
                assert jm_table._by_size[n][deregularize(lam, ell)] == weak


def test_report_schema_and_failure_path():
    report = VerificationReport(suite="demo", ell=3, params={"depth": 1})
    report.check(True, (2, 1), 0, "x", "x")
    assert report.passed
    report.check(False, (2, 1), 1, "x", "y")
    assert not report.passed
    payload = report.to_dict()
    assert list(payload) == ["suite", "ell", "params", "checks", "failures"]
    assert payload["checks"] == 2
    assert payload["failures"] == [
        {"input": "2,1", "residue": 1, "expected": "x", "actual": "y"}
    ]
