"""Crystal graphs: construction, node sets, DOT export, verification suites."""

from __future__ import annotations

import hashlib
import importlib
import random
from collections import Counter

import pytest

from laddercrystal import crystal, graph, regular
from laddercrystal.cli import _cores
from laddercrystal.crystal import (
    CLASSICAL,
    LADDER,
    ReducedWord,
    e_hat,
    epsilon,
    f_hat,
    ladder_epsilon,
    ladder_phi,
    reduced_word,
    reduced_words,
)
from laddercrystal.graph import (
    VerificationReport,
    build_crystal,
    export_dot,
    theorem_suite,
    verify_isomorphism,
)
from laddercrystal.jm import _is_jm, fayers_witness, is_ell_partition, is_jm
from laddercrystal.partitions import (
    _hook_grid,
    add_box,
    addable_corners,
    all_partitions,
    is_regular,
    ladder_index,
    residue,
    size,
    transpose,
)
from laddercrystal.regular import (
    _add_at,
    _add_to_ladder,
    _is_L_partition,
    _ladder_end,
    _mullineux_symbol,
    _regularize,
    _remove_from_ladder,
    deregularize,
    is_weak_ell_partition,
    ladder_counts,
)
from laddercrystal.rimhooks import _ell_core, _is_core

import oracles
from oracles import regular_counts, string_end_checks_by_records, theorem_suite_by_records, verify_isomorphism_by_graph


REGULAR_COUNTS_3 = [1, 1, 2, 2, 4, 5, 7, 9, 13, 16, 22]


def test_level_sizes_match_regular_partition_counts():
    assert regular_counts(3, 10) == REGULAR_COUNTS_3
    for model in ("classical", "ladder"):
        graph = build_crystal(3, 6, model)
        assert [len(level) for level in graph.levels] == REGULAR_COUNTS_3[:7]


@pytest.mark.parametrize("ell,depth,count", [(3, 20, 101), (4, 18, 152), (5, 16, 187)])
def test_ladder_crystal_blocks_have_the_weight_multiplicities_of_the_basic_representation(ell, depth, count):
    # a node's ell-core c and weight w fix its weight Lambda_0 - sum c_i alpha_i,
    # so block (c, w) holds as many nodes as that weight space of B(Lambda_0)
    # has dimensions: the coefficient of q^w in prod_k (1 - q^k)^-(ell-1)
    # (Kac ch. 12, Frenkel-Kac).  Every block with |c| + ell w <= depth
    # occurs, and no other; neither R nor D is used.
    multiplicity = [1] + [0] * (depth // ell)
    for _ in range(ell - 1):
        for k in range(1, len(multiplicity)):
            for w in range(k, len(multiplicity)):
                multiplicity[w] += multiplicity[w - k]
    expected = {
        (core, w): multiplicity[w] for core in _cores(ell, depth) for w in range((depth - sum(core)) // ell + 1)
    }
    assert len(expected) == count
    assert Counter(_ell_core(lam, ell) for lam in build_crystal(ell, depth, LADDER).nodes) == expected


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
    # the paper's description of B(Lambda_0): ladder level n is
    # {D(rho) : rho ell-regular of size n}, in sorted order
    for ell in (3, 4, 5):
        levels = build_crystal(ell, 16, "ladder").levels
        for n, level in enumerate(levels):
            assert list(level) == sorted({deregularize(rho, ell) for rho in all_partitions(n) if is_regular(rho, ell)})


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


@pytest.mark.parametrize("ell,depth,checks", [(2, 16, 1352), (3, 18, 7776), (4, 14, 5424), (5, 12, 4460)])
def test_verify_isomorphism_check_counts(ell, depth, checks):
    # at ell = 2 a ladder step is one row down and one column left
    report = verify_isomorphism(ell, depth)
    assert report.checks == checks
    assert not report.failures
    assert report.to_dict() == verify_isomorphism_by_graph(ell, depth).to_dict()


def test_verify_isomorphism_reads_one_word_per_node_and_model(monkeypatch):
    # one ladder read per node and one classical read per image, and no
    # built crystal, whose build would read the ladder words a second time
    calls = 0
    read = crystal._read

    def counted(*args):
        nonlocal calls
        calls += 1
        return read(*args)

    def refuse(*args):
        raise AssertionError("verify_isomorphism walks the ladder crystal itself")

    monkeypatch.setattr(crystal, "_read", counted)
    monkeypatch.setattr(graph, "build_crystal", refuse)
    nodes = sum(regular_counts(3, 12))
    assert verify_isomorphism(3, 12).checks == 4 * 3 * nodes
    assert calls == 2 * nodes == 290


def test_verify_isomorphism_holds_at_most_two_levels_of_regularizations(monkeypatch):
    # the walk holds R for the levels n and n + 1 only: an f-move looks up
    # or files its target's R in level n + 1, and an e-move walks down from
    # R(lam) without keeping level n - 1.  Every image past the root is
    # built by _add_at, and the spy hands each one out as an Image that
    # counts itself out of *live* when the walk lets it go.  Every ladder
    # walk and build starts from the walk's level n, never a finished one,
    # and at every step the images still alive lie on levels n and n + 1.
    live: Counter = Counter()
    held = []
    level = 0

    class Image(tuple):
        def __del__(self):
            live[sum(self)] -= 1

    def watched(rho):
        nonlocal level
        assert sum(rho) >= level, (rho, level)
        level = sum(rho)
        sizes = {size for size, count in live.items() if count}
        assert sizes <= {level, level + 1}, (level, sorted(sizes))
        held.append(sizes)

    def walk(rho, box, ell):
        watched(rho)
        return _ladder_end(rho, box, ell)

    def build(rho, end):
        watched(rho)
        live[level + 1] += 1
        return Image(_add_at(rho, end))

    monkeypatch.setattr(graph, "_ladder_end", walk)
    monkeypatch.setattr(graph, "_add_at", build)
    assert verify_isomorphism(3, 20).passed
    assert level == 20 and max(map(len, held)) == 2


def _ladder_walks(monkeypatch):
    """Record each ladder walk of verify_isomorphism as (rho, box, image), per direction.

    The walk reads the ladder words of each node lam and then goes down a
    ladder of rho = R(lam) once per f-move, with a box addable to lam, and
    once per e-move, with a box removable from lam.  An up walk stands for
    R(lam + box), rho with one box more on the box's ladder, and a down
    walk for R(lam - box).  The spies wrap graph.reduced_words as it is when
    this is called, so a test that corrupts the words patches them first.
    """
    walks = {"up": [], "down": []}
    node = [()]
    read = graph.reduced_words

    def words(lam, ell, model):
        if model == LADDER:
            node[0] = lam
        return read(lam, ell, model)

    def walk(rho, box, ell):
        lam = node[0]
        row, col = box
        if row > len(lam) or lam[row - 1] < col:
            walks["up"].append((rho, box, _add_to_ladder(rho, box, ell)))
        else:
            walks["down"].append((rho, box, _remove_from_ladder(rho, box, ell)))
        return _ladder_end(rho, box, ell)

    monkeypatch.setattr(graph, "reduced_words", words)
    monkeypatch.setattr(graph, "_ladder_end", walk)
    return walks


def _moves(ell, depth):
    """The f- and e-moves of the ladder crystal through depth: its (node,
    residue) pairs with phi > 0 ("up") and with epsilon > 0 ("down")."""
    words = [word for lam in build_crystal(ell, depth, LADDER).nodes for word in reduced_words(lam, ell, LADDER)]
    return {"up": sum(1 for word in words if word.plus), "down": sum(1 for word in words if word.minus)}


def test_verify_isomorphism_steps_up_to_each_node_once(monkeypatch):
    # R is built once for every node the walk reaches past the root, the
    # f_hat targets of level 12 included: 188 nodes through level 13.  The
    # walk starts from R(()) = (), every f_hat target's R is one walk up a
    # ladder from R(lam), and it is built (_add_at) only the first time the
    # walk meets the target; R maps ladder nodes one to one, so distinct
    # images are distinct nodes.  Every move walks its ladder once, and an
    # e-move whose boxes agree builds nothing and looks up no level below;
    # graph has no full regularization to call.
    walks = _ladder_walks(monkeypatch)
    built = []

    def build(rho, end):
        built.append(_add_at(rho, end))
        return built[-1]

    def refuse(*args):
        raise AssertionError("a passing e check builds no partition")

    monkeypatch.setattr(graph, "_add_at", build)
    monkeypatch.setattr(graph, "_remove_from_ladder", refuse)
    assert verify_isomorphism(3, 12).passed
    assert not hasattr(graph, "_regularize")
    assert len(built) == len(set(built)) == sum(regular_counts(3, 13)) - 1 == 188
    assert set(built) == {image for _, _, image in walks["up"]}
    assert {side: len(moves) for side, moves in walks.items()} == _moves(3, 12)


def test_sweep_steps_match_regularize_of_their_keys(monkeypatch):
    # theorem_suite: every level the child rule grows lists the partitions
    # of its size in reverse lexicographic order, and each child's image,
    # one step up from its parent's, is its R.  verify_isomorphism: every
    # ladder walk stands for an ell-regular partition with rho's ladder
    # counts and one box more (less) on the box's ladder, which by James is
    # R(lam + box) (R(lam - box)) for rho = R(lam).
    levels = []
    stepped = []
    children = graph._children

    def listed(level, max_rows=None):
        levels.append([])
        for mu, lam, box in children(level, max_rows):
            levels[-1].append(lam)
            yield mu, lam, box

    def grown(rho, box, ell):
        stepped.append((levels[-1][-1], _add_to_ladder(rho, box, ell), ell))
        return stepped[-1][1]

    monkeypatch.setattr(graph, "_children", listed)
    monkeypatch.setattr(graph, "_add_to_ladder", grown)
    for ell in (3, 4, 5, 6):
        assert theorem_suite(ell, 14).passed
    assert [len(level) for level in levels] == [len(all_partitions(n)) for n in range(1, 15)] * 4
    for level in levels:
        assert level == list(oracles.partitions(sum(level[0]), sum(level[0])))
    assert len(stepped) == sum(map(len, levels))
    for lam, image, ell in stepped:
        assert image == _regularize(lam, ell), (lam, ell)

    walks = _ladder_walks(monkeypatch)
    assert verify_isomorphism(3, 14).passed
    for sign, side in ((1, "up"), (-1, "down")):
        for rho, box, moved in walks[side]:
            counts = ladder_counts(rho, 3)
            k = ladder_index(box, 3)
            counts[k] = counts.get(k, 0) + sign
            assert is_regular(moved, 3), (rho, box)
            assert ladder_counts(moved, 3) == {k: c for k, c in counts.items() if c}, (rho, box)
    assert {side: len(moves) for side, moves in walks.items()} == _moves(3, 14)


def _minus_reversed(rho, ell, model):
    # ladder words whose minus boxes come last first: e_hat removes the
    # wrong box, and its target leaves the crystal
    words = reduced_words(rho, ell, model)
    return [ReducedWord(word.plus, word.minus[::-1]) for word in words] if model == LADDER else words


@pytest.mark.parametrize("ell,depth", [(3, 10), (4, 8)])
def test_verify_isomorphism_regularizes_an_e_move_off_the_level_below(monkeypatch, ell, depth):
    # a wrong lowering operator leaves the crystal: its targets are not
    # nodes of the level below, and the walk still goes one ladder down
    # from R(lam) per e-move, finds their R as full regularization does, and
    # records the failures as the built-crystal loop does
    monkeypatch.setattr(graph, "reduced_words", _minus_reversed)
    monkeypatch.setattr(oracles, "reduced_words", _minus_reversed)
    walks = _ladder_walks(monkeypatch)
    report = verify_isomorphism(ell, depth)
    assert {side: len(moves) for side, moves in walks.items()} == _moves(ell, depth)
    assert report.failures
    assert report.to_dict() == verify_isomorphism_by_graph(ell, depth).to_dict()


def _transposed_at_size_five(rho, ell, model):
    # the classical words of a wrong image, R(lam)', at one level
    return reduced_words(transpose(rho) if model == CLASSICAL and sum(rho) == 5 else rho, ell, model)


def _identity_words(rho, ell, model):
    # the classical words of the ladder node itself, as if R were the
    # identity: deregularization sends R(lam) back to the node lam
    return reduced_words(deregularize(rho, ell) if model == CLASSICAL else rho, ell, model)


@pytest.mark.parametrize("wrong", [_transposed_at_size_five, _identity_words], ids=["one-level", "identity"])
@pytest.mark.parametrize("ell,depth", [(3, 10), (4, 8)])
def test_verify_isomorphism_records_failures_like_the_built_crystal_loop(monkeypatch, wrong, ell, depth):
    # a fault both walks read, in the classical words, fails operator checks
    # and string-length checks alike; the records, their order and the check
    # count match the oracle's.  The ladder words stay, so both walks reach
    # the same nodes.
    monkeypatch.setattr(graph, "reduced_words", wrong)
    monkeypatch.setattr(oracles, "reduced_words", wrong)
    report = verify_isomorphism(ell, depth).to_dict()
    assert report == verify_isomorphism_by_graph(ell, depth).to_dict()
    lengths = [failure for failure in report["failures"] if failure["expected"].startswith(("phi ", "epsilon "))]
    assert {failure["expected"].split()[0] for failure in lengths} == {"phi", "epsilon"}
    assert 0 < len(lengths) < len(report["failures"])


def _good_box_moved_to(box):
    """Classical words in which the good 1-box (3, 1) of (2, 1, 1) at ell = 3 is moved to box."""

    def words(rho, ell, model):
        words = reduced_words(rho, ell, model)
        if model == CLASSICAL and rho == (2, 1, 1):
            words[1] = ReducedWord([], [box, (1, 2)])
        return words

    return words


@pytest.mark.parametrize(
    "box,failures", [((2, 1), []), ((1, 2), ["(1, 1, 1)"])], ids=["same-partition", "other-partition"]
)
def test_verify_isomorphism_compares_partitions_where_the_boxes_differ(monkeypatch, box, failures):
    # the node (2, 1, 1) is its own image; e_hat_1 walks the ladder of its
    # good box (1, 2) in R down to the last box (3, 1), and e_tilde_1 takes
    # off the moved good box instead.  (2, 1) differs from (3, 1), but both
    # leave (2, 1), so that check passes as the built-crystal loop's does;
    # (1, 2) leaves (1, 1, 1) and fails with the loop's record.
    monkeypatch.setattr(graph, "reduced_words", _good_box_moved_to(box))
    monkeypatch.setattr(oracles, "reduced_words", _good_box_moved_to(box))
    assert reduced_words((2, 1, 1), 3, LADDER)[1].minus[0] == (1, 2)
    assert _remove_from_ladder((2, 1, 1), (1, 2), 3) == (2, 1)
    report = verify_isomorphism(3, 6).to_dict()
    assert report == verify_isomorphism_by_graph(3, 6).to_dict()
    assert report["checks"] == 4 * 3 * sum(REGULAR_COUNTS_3[:7])
    assert [failure["expected"] for failure in report["failures"]] == failures


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


def _package_caches():
    """Every lru_cache defined in the six modules, found by their namespaces as perfbench's tracer finds them."""
    caches = {}
    for name in ("partitions", "rimhooks", "jm", "crystal", "regular", "graph"):
        module = importlib.import_module(f"laddercrystal.{name}")
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches[f"{name}.{attr}"] = obj
    return caches


def test_sweeps_read_no_process_wide_cache():
    # the public caches serve outside callers; a sweep keeps its tables for the call only
    caches = _package_caches()
    assert len(caches) == 9, sorted(caches)
    for cache in caches.values():
        cache.cache_clear()
    assert theorem_suite(3, 10).passed
    assert verify_isomorphism(3, 8).passed
    used = {name: info for name, cache in caches.items() if (info := cache.cache_info()).hits or info.misses}
    assert not used, used


def test_build_crystal_rejects_an_unknown_model():
    with pytest.raises(ValueError):
        build_crystal(3, 2, "nope")


def _walk_string(report, lam, i, ell, member, in_class, word):
    """Run graph._string_end_checks for the class that in_class(lam, ell)
    decides, each f-step check decided as soon as the walk hands it on."""

    class Members:
        def __contains__(self, cur):
            return in_class(cur, ell)

    classes = {member: Members()}

    def at_once(check):
        graph._end_checks(report, [check], classes)

    graph._string_end_checks(report, lam, i, member, classes[member], word, at_once)


def test_string_end_checks_skip_steps_that_can_stay_in_class():
    # f^(phi-1) and e^1 are not checked, because class members occur there:
    # at ell=3, (2) has ladder phi_2 = 2 and f_hat_2(2) = (3) is JM, and
    # (3,1) has ladder epsilon_2 = 2 and e_hat_2(3,1) = (3) is JM.
    assert is_jm((2,), 3) and is_jm((3, 1), 3) and is_jm((3,), 3)
    assert ladder_phi((2,), 2, 3) == 2 and f_hat((2,), 2, 3) == (3,)
    assert ladder_epsilon((3, 1), 2, 3) == 2 and e_hat((3, 1), 2, 3) == (3,)
    for lam in ((2,), (3, 1)):
        report = VerificationReport(suite="demo", ell=3, params={})
        _walk_string(report, lam, 2, 3, "jm", is_jm, reduced_word(lam, 2, 3, LADDER))
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
    _walk_string(report, lam, 2, 3, "jm", is_jm, word)
    assert not report.passed
    assert [f["expected"] for f in report.failures] == [expected]
    oracle = VerificationReport(suite="demo", ell=3, params={})
    string_end_checks_by_records(oracle, lam, 2, 3, "jm", is_jm, word)
    assert report == oracle


@pytest.mark.parametrize("ell", [3, 4])
def test_string_end_checks_match_the_record_per_check_oracle(ell):
    # passing checks are counted, and only a failed one builds its record:
    # with each f-step check decided as soon as the walk hands it on, the
    # count and the records, in order, are those of one report.check per
    # check, for the class itself and for predicates that fail every kind of check
    classes = {"jm": _is_jm, "everything": lambda lam, ell: True, "nothing": lambda lam, ell: False}
    failed = dict.fromkeys(classes, 0)
    for n in range(13):
        for lam in all_partitions(n):
            if not _is_jm(lam, ell):
                continue
            for model in (LADDER, CLASSICAL):
                for i, word in enumerate(reduced_words(lam, ell, model)):
                    for member, in_class in classes.items():
                        report = VerificationReport(suite="demo", ell=ell, params={})
                        oracle = VerificationReport(suite="demo", ell=ell, params={})
                        _walk_string(report, lam, i, ell, member, in_class, word)
                        string_end_checks_by_records(oracle, lam, i, ell, member, in_class, word)
                        assert report == oracle, (lam, model, i, member)
                        failed[member] += len(report.failures)
    assert failed["everything"] and failed["nothing"], failed


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
    # one all-residue read per walked node and model (732 in all); building
    # the Mullineux images on the crystal added two per regular partition
    # (2,216), and a read per string step gave 10,151
    calls = 0
    read = crystal._read

    def counted(*args):
        nonlocal calls
        calls += 1
        return read(*args)

    monkeypatch.setattr(crystal, "_read", counted)
    assert theorem_suite(3, 16).checks == 6197
    assert theorem_suite(4, 14).checks == 4685
    assert 0 < calls <= 800


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


def test_theorem_suite_builds_no_hook_grid(monkeypatch):
    # JM membership, the ell-partition test and the L-partition test all
    # read James's abacus; the L-partition check built one grid per
    # partition (272 for n <= 12) before it moved there
    calls = 0

    def counted(lam):
        nonlocal calls
        calls += 1
        return _hook_grid(lam)

    for name in ("regular", "jm", "partitions"):
        module = importlib.import_module(f"laddercrystal.{name}")
        monkeypatch.setattr(module, "_hook_grid", counted, raising=False)  # regular no longer imports it
    assert theorem_suite(3, 16).checks == 6197
    assert theorem_suite(4, 14).checks == 4685
    assert calls == 0
    fayers_witness((2, 2), 3)  # the witness scan still reads the grid, so the patch counts
    assert calls == 1


@pytest.mark.parametrize("ell", [3, 4])
def test_weak_membership_through_the_jm_table(monkeypatch, ell):
    # once level n is checked, its weak members are read from the JM members
    # of the same size: an ell-regular lam of size n is weak exactly when
    # D(lam) is in the JM set, as is_weak_ell_partition decides it
    checked = []
    check_level = graph._check_level

    def recorded(report, n, reg, ell, classes, queued):
        check_level(report, n, reg, ell, classes, queued)
        for lam in all_partitions(n):
            if is_regular(lam, ell):
                weak = lam in classes["weak"]
                assert weak == (deregularize(lam, ell) in classes["jm"]), lam
                assert weak == is_weak_ell_partition(lam, ell), lam
            else:
                assert lam not in classes["weak"], lam
        checked.append(n)

    monkeypatch.setattr(graph, "_check_level", recorded)
    assert theorem_suite(ell, 14).passed
    assert checked == list(range(15))


@pytest.mark.parametrize("ell", [3, 4])
def test_theorem_suite_keeps_finished_levels_as_members(monkeypatch, ell):
    # once level n is checked, the sets that the e-steps read and the queued
    # f-steps of size n are decided against hold exactly the JM,
    # ell-partition and weak members of sizes 0..n, as the public predicates
    # decide them (the weak class is the ell-regular lam with D(lam) JM),
    # and the JM predicate is never asked about a finished size again
    expected = {"jm": set(), "ell-partition": set(), "weak": set()}
    checked = []
    check_level = graph._check_level

    def recorded(report, n, reg, ell, classes, queued):
        check_level(report, n, reg, ell, classes, queued)
        for lam in all_partitions(n):
            if is_jm(lam, ell):
                expected["jm"].add(lam)
            if is_regular(lam, ell):
                if is_ell_partition(lam, ell):
                    expected["ell-partition"].add(lam)
                if is_weak_ell_partition(lam, ell):
                    expected["weak"].add(lam)
        assert classes == expected, n
        checked.append(n)

    def asked(lam, ell):
        assert sum(lam) not in checked, lam
        return _is_jm(lam, ell)

    monkeypatch.setattr(graph, "_check_level", recorded)
    monkeypatch.setattr(graph, "_is_jm", asked)
    assert theorem_suite(ell, 14).passed
    assert checked == list(range(15))
    assert all(expected.values())


@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7])
def test_sweep_predicates_agree_on_conjugates(ell):
    # the theorem sweep decides JM, core and L-partition membership once per
    # conjugate pair {lam, lam'}: hooks are kept, arm and leg swap
    predicates = (_is_jm, _is_core, _is_L_partition)
    for n in range(19):
        for lam in all_partitions(n):
            conj = transpose(lam)
            if lam <= conj:
                assert [p(lam, ell) for p in predicates] == [p(conj, ell) for p in predicates], lam
    rng = random.Random(8600 + ell)
    seen = set()
    for lam in oracles.large_jm_partitions(ell, rng, 6):
        for nu in [lam] + oracles.one_box_away(lam):
            answers = [p(nu, ell) for p in predicates]
            assert answers == [p(transpose(nu), ell) for p in predicates], nu
            seen.add(answers[0])
    assert seen == {True, False}


@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7])
def test_core_implies_jm_implies_L_partition(ell):
    # the sweep asks JM only of L-partitions and core only of JM partitions.
    # A core has no hook divisible by ell, so no Fayers witness: core => JM.
    # In a JM partition a box with a divisible hook h has a row or a column
    # of divisible hooks, distinct multiples of ell, so h >= ell * (arm + 1)
    # or h >= ell * (leg + 1), and h / ell <= min(arm, leg) fails: JM => L.
    # So only four (jm, core, L-partition) triples occur
    def triple(lam):
        jm, core, balanced = oracles.jm(lam, ell), oracles.core(lam, ell)[1] == 0, oracles.L_partition(lam, ell)
        assert (not core or jm) and (not jm or balanced), lam
        return jm, core, balanced

    seen = {triple(lam) for n in range(19) for lam in all_partitions(n)}
    rng = random.Random(8700 + ell)
    for lam in oracles.large_jm_partitions(ell, rng, 6):
        seen |= {triple(nu) for nu in [lam] + oracles.one_box_away(lam)}
    assert seen == {(True, True, True), (True, False, True), (False, False, True), (False, False, False)}


def test_theorem_suite_decides_each_conjugate_pair_once(monkeypatch):
    # JM, core and L-partition membership are decided once per pair
    # {lam, lam'} of a level, in the order core => JM => L-partition: the L
    # test on each of the 740 pairs (one per partition made 1,423), JM only
    # on the 295 L-pairs and core only on the 196 JM pairs.  Up to nmax the
    # string walks and the ell-partition and weak classes read the levels'
    # members, and D is read off each level, so only the f-steps past nmax
    # decide more: 215 JM partitions and 209 deregularizations, each
    # distinct partition once.  JM tables asked by the walks made 1,159 JM
    # decisions and 953 deregularizations.
    calls = {"core": 0, "L": 0, "jm": 0}
    deregularized = []

    def counted(name, predicate):
        def count(lam, ell):
            calls[name] += 1
            return predicate(lam, ell)

        return count

    def spied(lam, ell):
        deregularized.append(sum(lam))
        return deregularize(lam, ell)

    monkeypatch.setattr(graph, "_is_core", counted("core", _is_core))
    monkeypatch.setattr(graph, "_is_L_partition", counted("L", _is_L_partition))
    monkeypatch.setattr(graph, "_is_jm", counted("jm", _is_jm))
    monkeypatch.setattr(graph, "_deregularize", spied)
    pairs = []
    for ell, nmax, checks in ((3, 16, 6197), (4, 14, 4685)):
        start = len(deregularized)
        assert theorem_suite(ell, nmax).checks == checks
        assert min(deregularized[start:]) > nmax
        for n in range(nmax + 1):
            pairs += [(lam, ell) for lam in {min(lam, transpose(lam)) for lam in all_partitions(n)}]
    balanced = [pair for pair in pairs if oracles.L_partition(*pair)]
    jm = [pair for pair in balanced if oracles.jm(*pair)]
    assert calls == {"L": len(pairs), "jm": len(balanced) + 215, "core": len(jm)}
    assert calls == {"L": 740, "jm": 295 + 215, "core": 196}
    assert len(deregularized) == 209


def test_theorem_suite_reads_each_mullineux_pair_once_and_makes_no_lock_test(monkeypatch):
    # a ladder node is the last member of its fibre, so the sweep makes no
    # lock-prefix test (563 when it did); m is an involution, so Mullineux's
    # symbol is read once per pair {rho, m(rho)}: 402 reads, where one per
    # ell-regular partition made 744
    assert not hasattr(graph, "_is_ladder_node")
    locks = 0
    read = []
    lock_test = regular._is_ladder_node

    def counted(lam, ell):
        nonlocal locks
        locks += 1
        return lock_test(lam, ell)

    def spied(rho, ell):
        read.append(rho)
        return _mullineux_symbol(rho, ell)

    monkeypatch.setattr(regular, "_is_ladder_node", counted)
    monkeypatch.setattr(graph, "_mullineux_symbol", spied)
    regulars = 0
    for ell, nmax, checks in ((3, 16, 6197), (4, 14, 4685)):
        start = len(read)
        assert theorem_suite(ell, nmax).checks == checks
        pairs = [frozenset((rho, _mullineux_symbol(rho, ell))) for rho in read[start:]]
        members = [rho for n in range(nmax + 1) for rho in all_partitions(n) if is_regular(rho, ell)]
        assert len(set(pairs)) == len(pairs)
        assert set().union(*pairs) == set(members)
        regulars += len(members)
    assert locks == 0
    assert (len(read), regulars) == (402, 744)


def test_theorem_suite_reports_a_wrong_mullineux_image(monkeypatch):
    # a symbol read is filed under its own key, and fills its partner's
    # entry only while that is empty, so a wrong or non-involutive image of
    # a partition the sweep reads fails every check that a sweep reading
    # each image would fail (the record-per-check sweep, given the same
    # wrong map).  A partition whose image is filed from its partner's read
    # is not asked.
    ell, nmax = 3, 7
    read = []

    def spied(rho, ell):
        read.append(rho)
        return _mullineux_symbol(rho, ell)

    monkeypatch.setattr(graph, "_mullineux_symbol", spied)
    assert theorem_suite(ell, nmax).passed
    caught = 0
    for rho in read:
        if sum(rho) < 5:
            continue
        image = _mullineux_symbol(rho, ell)
        others = [sigma for sigma in all_partitions(sum(rho)) if is_regular(sigma, ell) and sigma not in (rho, image)]
        for wrong in ([rho] if rho != image else []) + others[:1]:

            def symbol(mu, ell, rho=rho, wrong=wrong):
                return wrong if mu == rho else _mullineux_symbol(mu, ell)

            monkeypatch.setattr(graph, "_mullineux_symbol", symbol)
            monkeypatch.setattr(regular, "mullineux", symbol)
            report = theorem_suite(ell, nmax)
            oracle = theorem_suite_by_records(ell, nmax, is_jm)
            assert report.checks == oracle.checks
            records = Counter(tuple(failure.values()) for failure in report.failures)
            expected = Counter(tuple(failure.values()) for failure in oracle.failures)
            assert not expected - records, (rho, wrong)
            caught += bool(expected)
    assert caught == 20


def test_theorem_suite_records_ladder_nodes_that_are_not_fibre_last(monkeypatch):
    # with R((1, 1)) stepped to (2,), (1, 1) follows (2,) in its fibre, so
    # (2,), a 3-core and so JM and an L-partition, is no longer a node
    def stepped(rho, box, ell):
        image = _add_to_ladder(rho, box, ell)
        return (2,) if image == (1, 1) else image

    monkeypatch.setattr(graph, "_add_to_ladder", stepped)
    report = theorem_suite(3, 2)
    nodes = [failure for failure in report.failures if failure["expected"].endswith(" are ladder nodes")]
    assert nodes == [
        {"input": "2", "residue": None, "expected": f"{kind} are ladder nodes", "actual": "not a node"}
        for kind in ("JM partitions", "cores", "L-partitions")
    ]


def test_theorem_suite_decides_past_nmax_classes_on_regular_partitions_only(monkeypatch):
    # a classical f-step keeps a partition ell-regular, so only a corrupted
    # word lands past nmax on a partition that is JM and not ell-regular:
    # there the ell-partition and weak decisions must say "outside class"
    # (JM alone says inside, and so does D, which fixes the partition)
    ell, nmax = 3, 8
    found = [
        (lam, box)
        for lam in all_partitions(nmax)
        if is_ell_partition(lam, ell) and is_weak_ell_partition(lam, ell)
        for box in addable_corners(lam)
        if is_jm(cur := add_box(lam, box), ell) and not is_regular(cur, ell)
    ]
    assert found == [((4, 2, 1, 1), (5, 1))]
    lam, box = found[0]
    i = residue(box, ell)
    words = graph.reduced_words

    def corrupted(mu, ell, model):
        found_words = words(mu, ell, model)
        if mu == lam and model == CLASSICAL:
            found_words[i] = ReducedWord([box], found_words[i].minus)
        return found_words

    monkeypatch.setattr(graph, "reduced_words", corrupted)
    report = theorem_suite(ell, nmax)
    assert report.failures == [
        {"input": "4,2,1,1", "residue": i, "expected": f"{member} after f^phi", "actual": "outside class"}
        for member in ("ell-partition", "weak")
    ]


@pytest.mark.parametrize("wrong,checks,failures", [(7, 1382, 83), (12, 1470, 41)])
def test_theorem_suite_failure_records_match_the_record_per_check_sweep(monkeypatch, wrong, checks, failures):
    # a JM test that is wrong on one size, inside nmax (7) or past it (12),
    # reached only by f-steps: the count and the failure records are those
    # of a sweep with one report.check per check and the public predicates.
    # The f-step checks are decided once their size is known, so only their
    # records may come in another order
    monkeypatch.setattr(graph, "_is_jm", lambda lam, ell: _is_jm(lam, ell) != (sum(lam) == wrong))
    report = theorem_suite(3, 10)
    oracle = theorem_suite_by_records(3, 10, lambda lam, ell: is_jm(lam, ell) != (sum(lam) == wrong))
    assert (report.checks, len(report.failures)) == (checks, failures)
    assert report.checks == oracle.checks
    records = [tuple(failure.values()) for failure in report.failures]
    assert Counter(records) == Counter(tuple(failure.values()) for failure in oracle.failures)

    def in_order(report):
        return [failure for failure in report.failures if " after f^" not in failure["expected"]]

    assert in_order(report) == in_order(oracle)


@pytest.mark.parametrize(
    "kernel,lam,failures",
    [("_is_L_partition", (7,), 17), ("_is_jm", (5, 1), 5)],
    ids=["L false on the JM partition 7", "JM true on the L-partition 5,1"],
)
def test_theorem_suite_catches_a_wrong_kernel_in_its_order(monkeypatch, kernel, lam, failures):
    # JM is asked only of L-partitions and core only of JM partitions, so a
    # wrong L answer on the JM partition (7) hides its JM answer too, and a
    # wrong JM answer counts only where the L test passes, as on (5, 1).
    # The suite still fails, with the records of a sweep with one
    # report.check per check given the same wrong kernel on the conjugate
    # pair (the suite asks once per pair)
    assert (_is_jm((7,), 3), _is_L_partition((7,), 3), _is_jm((5, 1), 3), _is_L_partition((5, 1), 3)) == (
        True, True, False, True
    )
    pair = {lam, transpose(lam)}
    right = getattr(graph, kernel)

    def wrong(lam, ell):
        return right(lam, ell) != (lam in pair)

    monkeypatch.setattr(graph, kernel, wrong)
    asked_jm = wrong if kernel == "_is_jm" else is_jm
    if kernel == "_is_L_partition":
        monkeypatch.setattr(regular, "is_L_partition", wrong)
    report, oracle = theorem_suite(3, 12), theorem_suite_by_records(3, 12, asked_jm)
    assert (report.checks, len(report.failures)) == (oracle.checks, failures)
    records = Counter(tuple(failure.values()) for failure in report.failures)
    assert records == Counter(tuple(failure.values()) for failure in oracle.failures)


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
