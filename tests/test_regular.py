"""Regularization, locked boxes, deregularization, Mullineux."""

from __future__ import annotations

import importlib
import random
import time

import pytest
from hypothesis import given

from laddercrystal.partitions import (
    EQUAL,
    GREATER,
    LESS,
    add_box,
    addable_corners,
    all_partitions,
    boxes,
    dominance_compare,
    _children,
    is_regular,
    partitions_of,
    removable_corners,
    remove_box,
    size,
    transpose,
)
from laddercrystal.jm import is_generalized_ell_partition, is_jm
from laddercrystal import crystal
from laddercrystal.rimhooks import ell_core
from laddercrystal.regular import (
    LOCKED_I,
    LOCKED_II,
    UNLOCKED,
    NotRegularError,
    RegClass,
    deregularize,
    is_L_partition,
    is_ladder_node,
    is_weak_ell_partition,
    ladder_counts,
    lock_labels,
    mullineux,
    _add_rims,
    _add_to_ladder,
    _blocking,
    _deregularize,
    _ladder_tally,
    _regularize,
    _remove_from_ladder,
    _mullineux,
    _mullineux_symbol,
    _peel_rims,
    reg_class,
    regularize,
)

import oracles
from strategies import partitions, moduli, jm_moduli


def _assert_postconditions(lam, ell):
    """What regularize and deregularize guarantee by construction and no call
    re-checks: both give partitions with lam's ladder counts, the first
    ell-regular and the second a ladder node by the hook rule."""
    counts = oracles.ladder_counts(lam, ell)
    reg, dereg = regularize(lam, ell), deregularize(lam, ell)
    for mu in (reg, dereg):
        assert all(part > 0 for part in mu) and list(mu) == sorted(mu, reverse=True), (lam, mu)
        assert oracles.ladder_counts(mu, ell) == counts, (lam, mu)
    assert is_regular(reg, ell), lam
    assert oracles.ladder_node(dereg, ell), lam


def _assert_matches_the_oracles(lam, ell):
    assert ladder_counts(lam, ell) == oracles.ladder_counts(lam, ell), lam
    assert regularize(lam, ell) == oracles.regularize(lam, ell), lam
    assert lock_labels(lam, ell) == oracles.lock_labels(lam, ell), lam
    assert deregularize(lam, ell) == oracles.deregularize(lam, ell), lam


@pytest.mark.parametrize("ell,nmax", [(2, 14), (3, 16), (4, 16), (5, 16)])
def test_ladder_arithmetic_matches_reference(ell, nmax):
    for n in range(nmax + 1):
        for lam in all_partitions(n):
            _assert_matches_the_oracles(lam, ell)


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_ladder_arithmetic_matches_reference_on_large_partitions(ell):
    rng = random.Random(20090 + ell)
    for _ in range(12):
        lam = oracles.random_partition(rng.randint(100, 800), rng)
        _assert_matches_the_oracles(lam, ell)
        _assert_postconditions(lam, ell)


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_deregularize_matches_the_prefix_list_oracle(ell):
    # every partition of n <= 16, ladder nodes (returned as they are) included
    for n in range(17):
        for lam in all_partitions(n):
            assert _deregularize(lam, ell) == oracles.deregularize(lam, ell), lam


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_deregularize_matches_the_prefix_list_oracle_on_large_images(ell):
    # lam, R(lam) and R(lam') of 300 to 3,000 boxes
    rng = random.Random(29000 + ell)
    for n in (300, 1000, 2048, 3000):
        lam = oracles.random_partition(n, rng)
        for mu in (lam, _regularize(lam, ell), _regularize(transpose(lam), ell)):
            assert _deregularize(mu, ell) == oracles.deregularize(mu, ell), (n, mu[:8])


def _assert_matches_the_box_oracles(lam, ell):
    """The per-class ladder counts and slide against the ladder counts and
    the fill of each ladder from the top, box by box."""
    counts = oracles.ladder_counts(lam, ell)
    tally = _ladder_tally(lam, ell)
    assert tally == [counts.get(k, 0) for k in range(len(tally))] and sum(tally) == sum(lam), (lam, ell)
    assert ladder_counts(lam, ell) == counts, (lam, ell)
    image = oracles.regularize(lam, ell)
    assert _regularize(lam, ell) == image and regularize(lam, ell) == image, (lam, ell)


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6, 7])
def test_class_ladders_match_the_box_oracles(ell):
    for n in range(19):
        for lam in all_partitions(n):
            _assert_matches_the_box_oracles(lam, ell)


@pytest.mark.parametrize("ell", [3, 4, 5, 11])
def test_class_ladders_match_the_box_oracles_on_large_partitions(ell):
    rng = random.Random(25000 + ell)
    for _ in range(4):
        lam = oracles.random_partition(rng.randint(500, 5000), rng)
        for mu in (lam, transpose(lam)):
            _assert_matches_the_box_oracles(mu, ell)


@pytest.mark.parametrize(
    "lam",
    [(), (1,), (7,), (40,), (1,) * 7, (1,) * 40, (3, 1), (9, 9), (5, 5, 5)],
    ids=["empty", "1", "row-7", "row-40", "column-7", "column-40", "3-1", "9-9", "5-5-5"],
)
def test_class_ladders_match_the_box_oracles_on_edge_shapes(lam):
    # single rows and columns; at ell = 5, 7 and 11 the short ones have
    # fewer rows than ell - 1, so some row classes are empty
    for ell in (2, 3, 4, 5, 7, 11):
        _assert_matches_the_box_oracles(lam, ell)


def _assert_one_box_step(lam, box, ell):
    """R(lam + box) one step up the box's ladder from R(lam), as _regularize gives it."""
    grown = _add_to_ladder(_regularize(lam, ell), box, ell)
    assert grown == _regularize(add_box(lam, box), ell), (lam, box, ell)


def _assert_one_box_step_down(lam, box, ell):
    """R(lam - box) one step down the box's ladder from R(lam), as _regularize gives it."""
    shrunk = _remove_from_ladder(_regularize(lam, ell), box, ell)
    assert shrunk == _regularize(remove_box(lam, box), ell), (lam, box, ell)


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_add_to_ladder_matches_regularize_on_every_addable_box(ell):
    for n in range(15):
        for lam in all_partitions(n):
            for box in addable_corners(lam):
                _assert_one_box_step(lam, box, ell)


_LARGE_DIAGRAMS = pytest.mark.parametrize(
    "lam",
    [(2000,) * 2000, (10**5,), (1,) * 10**5],
    ids=["square-2000", "row-100000", "column-100000"],
)


@_LARGE_DIAGRAMS
@pytest.mark.parametrize("ell", [3, 7])
def test_add_to_ladder_matches_regularize_on_large_diagrams(lam, ell):
    for box in addable_corners(lam):
        _assert_one_box_step(lam, box, ell)


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_remove_from_ladder_matches_regularize_on_every_removable_box(ell):
    for n in range(17):
        for lam in all_partitions(n):
            for box in removable_corners(lam):
                _assert_one_box_step_down(lam, box, ell)


@_LARGE_DIAGRAMS
@pytest.mark.parametrize("ell", [3, 7])
def test_remove_from_ladder_matches_regularize_on_large_diagrams(lam, ell):
    for box in removable_corners(lam):
        _assert_one_box_step_down(lam, box, ell)


@pytest.mark.parametrize("ell,nmax,reach", [(2, 16, 16), (3, 20, 25), (4, 18, 22), (5, 18, 19)])
def test_regularize_and_deregularize_keep_their_postconditions(ell, nmax, reach):
    # every partition up to nmax, as theorem_suite, the equivalence sweep and
    # the reference and class scans see them, and the ell-regular ones up to
    # reach, which theorem_suite's string walks deregularize past its nmax
    for n in range(reach + 1):
        for lam in all_partitions(n):
            if n <= nmax or is_regular(lam, ell):
                _assert_postconditions(lam, ell)
    if ell == 3:  # the CLI's 342-box partition with hooks on nine rows
        _assert_postconditions((70, 62, 54, 46, 38, 30, 22, 14, 6), ell)


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_reg_class_matches_the_partition_scan(ell):
    # every partition of n grouped by its regularization
    for n in range(17):
        classes = {}
        for mu in all_partitions(n):
            classes.setdefault(oracles.regularize(mu, ell), []).append(mu)
        for image, members in classes.items():
            for lam in members:
                assert reg_class(lam, ell) == RegClass(image, tuple(sorted(members))), lam


@pytest.mark.parametrize(
    "lam",
    [(14, 13, 13), tuple(range(11, 0, -1))],
    ids=["14-13-13", "staircase-11"],
)
def test_reg_class_of_large_partitions(lam):
    # the staircase has 1024 members; a scan would regularize p(66) partitions
    _assert_postconditions(lam, 3)
    cls = reg_class(lam, 3)
    assert list(cls.members) == sorted(set(cls.members))
    assert all(regularize(mu, 3) == cls.representative for mu in cls.members)
    for mu in (lam, regularize(lam, 3), deregularize(lam, 3)):
        assert mu in cls.members
    if lam == tuple(range(11, 0, -1)):
        assert len(cls.members) == 1024


def test_reg_class_of_a_long_row_costs_linear_time():
    # a row of N boxes takes 2N search states for its one member; a state
    # holds only its open columns, so the call is linear in N (with a copy of
    # every column's end per state, N = 8,000 took about 2.3 s)
    start = time.perf_counter()
    assert reg_class((20000,), 3) == RegClass((20000,), ((20000,),))
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("lam", [(3000,), (1,) * 3000], ids=["row-3000", "column-3000"])
def test_deregularize_at_size_3000(lam):
    for mu in (lam, regularize(lam, 3)):
        _assert_postconditions(mu, 3)
    dereg = deregularize(regularize(lam, 3), 3)
    assert ladder_counts(dereg, 3) == ladder_counts(lam, 3)
    assert is_ladder_node(dereg, 3)


@pytest.mark.parametrize("bad", [(1, 2), (2, 0, 1), (2, -1)])
@pytest.mark.parametrize(
    "fn",
    [ladder_counts, regularize, deregularize, lock_labels, reg_class, is_ladder_node, is_L_partition],
)
def test_public_boundary_rejects_non_partitions(fn, bad):
    with pytest.raises(ValueError):
        fn(bad, 3)


def test_regularize_accepts_a_list():
    assert regularize([2, 1], 3) == (2, 1)
    assert regularize([1, 1, 1], 3) == (2, 1)
    assert regularize.cache_info().currsize > 0


def test_cached_boundary_takes_keyword_arguments():
    assert regularize((2, 1), ell=3) == (2, 1)
    assert regularize(lam=[1, 1, 1], ell=3) == (2, 1)
    assert ell_core((4, 2), ell=3) == ell_core((4, 2), 3)
    assert is_generalized_ell_partition(lam=[4, 1], ell=3)
    with pytest.raises(ValueError):
        regularize(lam=[1, 2], ell=3)


def test_regularize_checks_a_tuple_before_the_cache():
    # every call is checked before the cache, so a bad tuple never reaches it
    regularize((4, 2), 3)
    hits = regularize.cache_info().hits
    assert regularize((4, 2), 3) == (4, 2)
    assert regularize.cache_info().hits == hits + 1
    with pytest.raises(ValueError):
        regularize((2, 4), 3)


def test_regularize_golden():
    assert regularize((2, 2, 2, 1, 1, 1), 3) == (3, 3, 2, 1)
    assert regularize((1, 1, 1), 3) == (2, 1)
    assert regularize((5, 4, 1), 3) == (5, 4, 1)
    assert regularize((), 3) == ()


def test_reg_class_golden():
    cls = reg_class((2, 2, 2, 1, 1, 1), 3)
    assert cls.representative == (3, 3, 2, 1)
    assert cls.members == (
        (2, 2, 2, 1, 1, 1),
        (2, 2, 2, 2, 1),
        (3, 2, 1, 1, 1, 1),
        (3, 2, 2, 2),
        (3, 3, 1, 1, 1),
        (3, 3, 2, 1),
    )


def test_same_class_example():
    assert regularize((3, 3, 1, 1, 1), 3) == regularize((2, 2, 2, 2, 1), 3)


@given(partitions(), moduli())
def test_regularize_properties(lam, ell):
    _assert_postconditions(lam, ell)
    reg = regularize(lam, ell)
    assert is_regular(reg, ell)
    assert size(reg) == size(lam)
    assert regularize(reg, ell) == reg
    if is_regular(lam, ell):
        assert reg == lam
    assert ladder_counts(reg, ell) == ladder_counts(lam, ell)


def test_lock_map_golden():
    # locked boxes of (6,5,4,3,1,1) at ell = 3, as rows of L/U flags
    labels = lock_labels((6, 5, 4, 3, 1, 1), 3)
    picture = [
        "".join(
            "U" if labels[(row, col)] == UNLOCKED else "L"
            for col in range(1, width + 1)
        )
        for row, width in enumerate((6, 5, 4, 3, 1, 1), start=1)
    ]
    assert picture == ["LLLUUU", "LLLUU", "LLUU", "LLU", "L", "L"]
    for label in labels.values():
        assert label in (LOCKED_I, LOCKED_II, UNLOCKED)


@given(partitions(), moduli())
def test_locked_boxes_sit_under_locked_boxes(lam, ell):
    labels = lock_labels(lam, ell)
    for (row, col), label in labels.items():
        if label != UNLOCKED and row > 1:
            assert labels[(row - 1, col)] != UNLOCKED


def test_deregularize_golden():
    assert deregularize((6, 5, 4, 3, 1, 1), 3) == (3, 3, 2, 2, 2, 2, 2, 1, 1, 1, 1)
    assert deregularize((3, 2, 1), 3) == (2, 1, 1, 1, 1)
    assert deregularize((), 4) == ()


@given(partitions(max_part=7, max_len=7), moduli())
def test_deregularize_properties(lam, ell):
    _assert_postconditions(lam, ell)
    dereg = deregularize(lam, ell)
    assert size(dereg) == size(lam)
    assert regularize(dereg, ell) == regularize(lam, ell)
    assert deregularize(dereg, ell) == dereg
    assert deregularize(regularize(lam, ell), ell) == dereg


@pytest.mark.parametrize("ell", [3, 4])
def test_extremes_of_each_class(ell):
    for n in range(0, 11):
        for lam in all_partitions(n):
            cls = reg_class(lam, ell)
            top = regularize(lam, ell)
            bottom = deregularize(lam, ell)
            assert top in cls.members
            assert bottom in cls.members
            for member in cls.members:
                assert dominance_compare(top, member) in (GREATER, EQUAL)
                assert dominance_compare(bottom, member) in (LESS, EQUAL)


@pytest.mark.parametrize("ell,nmax", [(2, 19), (3, 22), (4, 22), (5, 22), (6, 22), (7, 22)])
def test_deregularization_is_the_last_member_of_each_fibre(ell, nmax):
    # theorem_suite reads D off its levels: grown by the child rule, a level
    # lists the partitions of n in reverse-lex order with their R, and the
    # last lam with R(lam) = rho is D(rho), since D(rho) is the
    # dominance-least, so lex-least, member of the class; the fibres are
    # exactly the ell-regular partitions of n.  The ladder nodes are the
    # D(rho), so the sweep decides a node as least[R(lam)] is lam
    reg = {(): ()}
    for n in range(nmax + 1):
        if n:
            reg = {lam: _add_to_ladder(reg[mu], box, ell) for mu, lam, box in _children(reg)}
        least = {rho: lam for lam, rho in reg.items()}
        assert set(least) == {lam for lam in reg if is_regular(lam, ell)}, n
        for rho, lam in least.items():
            assert lam == _deregularize(rho, ell), rho
        for lam, image in reg.items():
            assert (least[image] is lam) == is_ladder_node(lam, ell), lam


@pytest.mark.parametrize("ell", [3, 4])
def test_ladder_node_triple_equivalence(ell):
    for n in range(0, 11):
        for lam in all_partitions(n):
            node = is_ladder_node(lam, ell)
            all_locked = all(
                label != UNLOCKED for label in lock_labels(lam, ell).values()
            )
            fixed = deregularize(lam, ell) == lam
            assert node == all_locked == fixed


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_ladder_node_matches_the_hook_rule(ell):
    for n in range(19):
        for lam in all_partitions(n):
            assert is_ladder_node(lam, ell) == oracles.ladder_node(lam, ell), lam
    # large diagrams and their deregularizations, which are all nodes
    rng = random.Random(8100 + ell)
    for _ in range(40):
        lam = oracles.random_partition(rng.randint(200, 4000), rng)
        for mu in (lam, deregularize(lam, ell)):
            assert is_ladder_node(mu, ell) == oracles.ladder_node(mu, ell), mu
        _assert_postconditions(lam, ell)


@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7])
def test_blocking_matches_the_column_scan(ell):
    for n in range(17):
        for lam in partitions_of(n):
            assert _blocking(lam, ell) == oracles.blocking(lam, ell), lam
    rng = random.Random(8500 + ell)
    large = [(1,) * 3000, (3000,), tuple(range(400, 0, -1))]
    for lam in large + oracles.large_jm_partitions(ell, rng, 6):
        for mu in (lam, transpose(lam)):
            assert _blocking(mu, ell) == oracles.blocking(mu, ell), mu


def test_L_partition_golden():
    assert is_L_partition((3,), 3)
    assert not is_L_partition((2, 1), 3)
    assert is_L_partition((2, 2, 2, 1, 1, 1), 3)
    assert is_L_partition((), 3)


@given(partitions(max_part=7, max_len=7), jm_moduli())
def test_L_partition_two_definitions(lam, ell):
    # arm/leg inequalities versus the hook-quotient bound
    from laddercrystal.partitions import arm, boxes, hook_length, leg

    by_inequalities = True
    for box in boxes(lam):
        h = hook_length(lam, box)
        if h % ell:
            continue
        a, g = arm(lam, box), leg(lam, box)
        if a < (ell - 1) * g and g < (ell - 1) * a:
            by_inequalities = False
            break
    assert is_L_partition(lam, ell) == by_inequalities


@pytest.mark.parametrize("ell,nmax", [(3, 20), (4, 20), (5, 17), (6, 17), (7, 17)])
def test_L_partition_on_the_abacus_matches_the_hook_grid(ell, nmax):
    for n in range(nmax + 1):
        for lam in partitions_of(n):
            assert is_L_partition(lam, ell) == oracles.L_partition(lam, ell), lam


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_L_partition_on_the_abacus_matches_the_hook_grid_on_large_jm_partitions(ell):
    # composed JM partitions of 600 boxes or more, their conjugates and
    # their one-box neighbours; both answers occur
    rng = random.Random(8300 + ell)
    seen = set()
    for lam in oracles.large_jm_partitions(ell, rng, 6, hooks=(100, 300)):
        assert size(lam) >= 500
        for mu in (lam, transpose(lam)):
            for nu in [mu] + oracles.one_box_away(mu):
                balanced = is_L_partition(nu, ell)
                assert balanced == oracles.L_partition(nu, ell), nu
                seen.add(balanced)
    assert seen == {True, False}


def test_L_partition_on_long_rows_and_columns():
    # only gaps less than ell * len(lam) below a bead are read, so a row of
    # 10**18 - 1 boxes costs what a short row costs; its hook grid could not
    # be allocated
    start = time.perf_counter()
    assert is_L_partition((10**18 - 1,), 3)
    assert is_L_partition((10**18 - 1, 1), 3)
    assert is_L_partition((1,) * 3000, 3)
    assert not is_L_partition((10**18, 10**18), 3)  # box (1, 10**18 - 1): hook 3, arm 1, leg 1
    assert time.perf_counter() - start < 1


def test_L_partition_at_a_modulus_past_every_hook(monkeypatch):
    # a modulus above lam_1 + len(lam) - 1, the longest hook, divides no
    # hook, so no bead is read and no list of ell runners is built; at the
    # longest hook itself (5, 3, 1) has the hook 7 at (1, 1), arm 4, leg 2
    for lam in [(), (1,), (5, 3, 1)]:
        for ell in range(3, 12):
            assert is_L_partition(lam, ell) == oracles.L_partition(lam, ell), (lam, ell)
    assert not is_L_partition((5, 3, 1), 7) and is_L_partition((5, 3, 1), 8)

    def forbidden(*args):
        raise AssertionError("is_L_partition read the beads")

    monkeypatch.setattr(importlib.import_module("laddercrystal.regular"), "_beads", forbidden)
    for lam in [(), (1,), (5, 3, 1)]:
        assert is_L_partition(lam, 10**30), lam


def test_L_partition_rejects_small_ell():
    with pytest.raises(ValueError):
        is_L_partition((2, 1), 2)


def test_weak_golden():
    # (9,4) is itself a JM partition, hence weak; (3,3,2,1) deregularizes to
    # (2,2,2,1,1,1), whose first column mixes divisible and non-divisible hooks
    assert is_weak_ell_partition((9, 4), 3)
    assert not is_weak_ell_partition((3, 3, 2, 1), 3)
    with pytest.raises(NotRegularError):
        is_weak_ell_partition((1, 1, 1), 3)


@pytest.mark.parametrize("ell", [3, 4])
def test_weak_means_class_contains_jm(ell):
    for n in range(0, 11):
        for lam in all_partitions(n):
            if not is_regular(lam, ell):
                continue
            expected = any(is_jm(mu, ell) for mu in reg_class(lam, ell).members)
            assert is_weak_ell_partition(lam, ell) == expected


def test_mullineux_golden():
    assert mullineux((), 3) == ()
    assert mullineux((1,), 3) == (1,)
    assert mullineux((2,), 3) == (1, 1)
    assert mullineux((3,), 3) == (2, 1)
    assert mullineux((2, 1), 3) == (3,)
    assert mullineux((3, 2, 1), 3) == (5, 1)


def test_mullineux_rejects_bad_input():
    with pytest.raises(NotRegularError):
        mullineux((1, 1, 1), 3)
    with pytest.raises(ValueError):
        mullineux((2, 1), 2)


@pytest.mark.parametrize("ell", [3, 4])
def test_mullineux_involution_and_choice_independence(ell):
    for n in range(0, 11):
        for lam in all_partitions(n):
            if not is_regular(lam, ell):
                continue
            image = mullineux(lam, ell)
            assert size(image) == n
            assert is_regular(image, ell)
            assert mullineux(image, ell) == lam
            assert oracles.mullineux(lam, ell, order=range(ell)) == image == oracles.mullineux(lam, ell)


def _regular_partitions(ell, nmax):
    return [lam for n in range(nmax + 1) for lam in all_partitions(n) if is_regular(lam, ell)]


@pytest.mark.parametrize("ell,nmax", [(3, 18), (4, 16), (5, 16)])
def test_mullineux_matches_one_box_reference(ell, nmax):
    # the crystal twist, peeled by the largest live residue and by the smallest
    for lam in _regular_partitions(ell, nmax):
        assert mullineux(lam, ell) == oracles.mullineux(lam, ell) == oracles.mullineux(lam, ell, order=range(ell)), lam


@pytest.mark.parametrize("ell", [3, 4, 5, 7])
def test_mullineux_matches_one_box_reference_on_large_partitions(ell):
    for lam in oracles.large_regular_partitions(ell):
        assert is_regular(lam, ell) and 300 < size(lam) <= 4096, lam
        assert mullineux(lam, ell) == oracles.mullineux(lam, ell), lam


@pytest.mark.parametrize("ell", [3, 4, 5, 7])
def test_peeled_rim_is_the_ell_rim_and_adding_it_back_restores_lam(ell):
    # the oracle symbol walks each ell-rim box by box (oracles.ell_rim)
    for lam in _regular_partitions(ell, 20) + oracles.large_regular_partitions(ell):
        symbol = oracles.mullineux_symbol(lam, ell)
        assert _peel_rims(lam, ell) == symbol, lam
        assert _add_rims(symbol, ell) == lam, lam


def test_mullineux_reads_no_signatures(monkeypatch):
    def forbidden(*args):
        raise AssertionError("mullineux read a crystal signature")

    monkeypatch.setattr(crystal, "_read", forbidden)
    _mullineux.cache_clear()
    assert mullineux((3, 2, 1), 3) == (5, 1)
    for lam in oracles.large_regular_partitions(3):
        assert mullineux(mullineux(lam, 3), 3) == lam


def test_mullineux_symbol_golden():
    # the 3-rim of (3,2,1) is (1,3),(1,2),(2,2) then (3,1); (1,1) is left
    assert oracles.mullineux_symbol((3, 2, 1), 3) == [(4, 3), (2, 2)]
    assert oracles.mullineux_image_symbol((3, 2, 1), 3) == [(4, 2), (2, 1)]
    assert oracles.mullineux_symbol((5, 1), 3) == [(4, 2), (2, 1)]
    assert oracles.mullineux_symbol((), 3) == []


@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7])
def test_mullineux_symbol_kernel_is_an_involution(ell):
    # theorem_suite reads the symbol once per pair {rho, m(rho)} and files
    # rho as the image of m(rho)
    for rho in _regular_partitions(ell, 18):
        image = _mullineux_symbol(rho, ell)
        assert size(image) == size(rho) and is_regular(image, ell), rho
        assert _mullineux_symbol(image, ell) == rho, rho


@pytest.mark.parametrize("ell", [3, 4])
def test_mullineux_symbol_determines_the_partition(ell):
    seen = {}
    for lam in _regular_partitions(ell, 14):
        symbol = tuple(oracles.mullineux_symbol(lam, ell))
        assert seen.setdefault(symbol, lam) == lam, (lam, seen[symbol])


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_mullineux_matches_the_symbol_oracle(ell):
    # the sizes at which test_mullineux_matches_one_box_reference holds mullineux to the crystal
    for lam in _regular_partitions(ell, 18 if ell == 3 else 16):
        assert oracles.mullineux_symbol(mullineux(lam, ell), ell) == oracles.mullineux_image_symbol(lam, ell), lam


@pytest.mark.parametrize("ell", [3, 4])
def test_mullineux_matches_the_symbol_oracle_on_large_partitions(ell):
    for lam in oracles.large_regular_partitions(ell):
        assert oracles.mullineux_symbol(mullineux(lam, ell), ell) == oracles.mullineux_image_symbol(lam, ell), lam


def test_mullineux_involution_and_symbol_at_size_4096():
    lam = oracles.random_regular_partition(4096, 3, random.Random(4097))
    assert size(lam) == 4038 and len(lam) == 89
    image = mullineux(lam, 3)
    assert oracles.mullineux_symbol(image, 3) == oracles.mullineux_image_symbol(lam, 3)
    assert mullineux(image, 3) == lam


def test_mullineux_involution_on_a_staircase_of_size_990():
    # peeling and replaying 990 boxes needs no recursion depth
    staircase = tuple(range(44, 0, -1))
    image = mullineux(staircase, 3)
    assert size(image) == 990
    assert mullineux(image, 3) == staircase


@pytest.mark.parametrize("ell", [3, 4])
def test_mullineux_regularization_identity(ell):
    # the composite of transposition and regularization computes the
    # Mullineux image exactly on the balanced-hook class
    for n in range(0, 11):
        for lam in all_partitions(n):
            holds = mullineux(regularize(lam, ell), ell) == regularize(
                transpose(lam), ell
            )
            assert holds == is_L_partition(lam, ell)
