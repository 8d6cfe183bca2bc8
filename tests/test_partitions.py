"""Partition primitives: validation, hooks, ladders, corners, dominance."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from laddercrystal.partitions import (
    EMPTY,
    _children,
    _partitions_by_size,
    _transpose,
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    BoxNotInDiagramError,
    addable_boxes,
    addable_corners,
    add_box,
    all_partitions,
    arm,
    boxes,
    check_partition,
    contains,
    dominance_compare,
    hook_grid,
    hook_length,
    is_regular,
    ladder_index,
    ladder_positions,
    leg,
    remove_box,
    removable_boxes,
    removable_corners,
    residue,
    size,
    transpose,
)

import oracles
from strategies import partitions, moduli


# Known values of the partition counting function.
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_check_partition_canonicalizes():
    assert check_partition([3, 2, 2, 0, 0]) == (3, 2, 2)
    assert check_partition([]) == EMPTY
    assert check_partition((5,)) == (5,)
    assert check_partition((3, 2, 0)) == (3, 2)
    assert check_partition(iter([3, 1, 0])) == (3, 1)  # any iterable of ints
    lam = (4, 2, 1)
    assert check_partition(lam) is lam  # a partition tuple is returned, not copied


def test_check_partition_strips_many_trailing_zeros():
    # the zeros are cut with one slice (a slice per zero took 1.8 s here)
    assert check_partition([1] + [0] * 40000) == (1,)
    assert check_partition((0,) * 40000) == EMPTY
    with pytest.raises(ValueError, match=r"positive integers: \(2, 0, 1\)$"):
        check_partition((2, 0, 1) + (0,) * 40000)


@pytest.mark.parametrize(
    "bad, message",
    [
        ((3, -1, 2), "parts must be positive integers: (3, -1, 2)"),
        ((2, 0, 1), "parts must be positive integers: (2, 0, 1)"),
        ((1, 2), "parts must be weakly decreasing: (1, 2)"),
        ((2, -1), "parts must be positive integers: (2, -1)"),
    ],
)
def test_check_partition_reports_a_non_positive_part_before_the_order(bad, message):
    # a part <= 0 is named even where the order also fails; once the parts
    # decrease, the last one alone decides positivity
    with pytest.raises(ValueError) as err:
        check_partition(bad)
    assert str(err.value) == message


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition([1, 2])
    with pytest.raises(ValueError):
        check_partition([3, -1])
    with pytest.raises(ValueError):
        check_partition([2, 0, 1])
    for bad in [(1, 2), (2, -1), (2, 0, 1)]:
        with pytest.raises(ValueError):
            check_partition(bad)
    # a float or a bool is not a part (tests/test_contract.py has the rest)
    for bad in [[2.5, 1], [2.0], (True, 1), [1, False]]:
        with pytest.raises(ValueError, match="sequence of integer parts"):
            check_partition(bad)


def test_transpose_golden():
    assert transpose((4, 2, 1, 1)) == (4, 2, 1, 1)
    assert transpose((3,)) == (1, 1, 1)
    assert transpose((6, 3)) == (2, 2, 2, 1, 1, 1)
    assert transpose(EMPTY) == EMPTY


@given(partitions())
def test_transpose_involution(lam):
    assert transpose(transpose(lam)) == lam
    assert size(transpose(lam)) == size(lam)


def test_transpose_walks_either_side_like_the_box_count():
    # rows walked when len(lam) <= lam_1, columns bisected otherwise
    shapes = [lam for n in range(15) for lam in all_partitions(n)]
    rng = random.Random(2500)
    for _ in range(20):
        cap = rng.choice([3, 40, 400])
        lam = tuple(sorted((rng.randint(1, cap) for _ in range(rng.randint(1, 400))), reverse=True))
        shapes += [lam, oracles.conjugate(lam)]
    shapes += [(1,) * 500, (500,), (2,) * 300, (300, 300)]
    assert any(lam and len(lam) > lam[0] for lam in shapes)
    assert any(lam and len(lam) < lam[0] for lam in shapes)
    for lam in shapes:
        assert _transpose(lam) == transpose(lam) == oracles.conjugate(lam), lam


@given(partitions())
def test_boxes_and_contains_agree(lam):
    listed = set(boxes(lam))
    assert len(listed) == size(lam)
    for box in listed:
        assert contains(lam, box)
    assert not contains(lam, (len(lam) + 1, 1))


@given(partitions(max_part=6, max_len=6))
def test_hook_length_counts_hook_boxes(lam):
    cols = transpose(lam)
    for (a, b) in boxes(lam):
        row_part = {(a, c) for c in range(b, lam[a - 1] + 1)}
        col_part = {(r, b) for r in range(a, cols[b - 1] + 1)}
        assert hook_length(lam, (a, b)) == len(row_part | col_part)
        assert hook_length(lam, (a, b)) == arm(lam, (a, b)) + leg(lam, (a, b)) + 1


def test_hook_grid_matches_hook_length():
    lam = (5, 3, 3, 1)
    grid = hook_grid(lam)
    assert len(grid) == len(lam)
    for (a, b) in boxes(lam):
        assert grid[a - 1][b - 1] == hook_length(lam, (a, b))


def test_hook_queries_outside_diagram_raise():
    with pytest.raises(BoxNotInDiagramError):
        hook_length((2, 1), (1, 3))
    with pytest.raises(BoxNotInDiagramError):
        arm((2, 1), (3, 1))
    with pytest.raises(BoxNotInDiagramError):
        leg(EMPTY, (1, 1))


def test_residue_pattern():
    # residues increase to the right and decrease downward, mod ell
    assert residue((1, 1), 3) == 0
    assert residue((1, 2), 3) == 1
    assert residue((2, 1), 3) == 2
    assert residue((4, 4), 3) == 0
    assert residue((1, 1), 4) == 0
    assert residue((3, 1), 4) == 2


@given(st.integers(1, 30), moduli())
def test_ladder_positions_share_index_and_residue(k, ell):
    positions = ladder_positions(k, ell)
    assert positions, "every ladder meets column one"
    assert positions[-1] == (k, 1)
    res = {residue(p, ell) for p in positions}
    assert res == {(1 - k) % ell}
    for p in positions:
        assert ladder_index(p, ell) == k
    # topmost first: rows increase along the returned list
    rows = [p[0] for p in positions]
    assert rows == sorted(rows)


def test_ladder_index_golden():
    # ell = 3: ladders move two rows down for one column left
    assert ladder_index((1, 1), 3) == 1
    assert ladder_index((1, 2), 3) == 3
    assert ladder_index((3, 1), 3) == 3
    assert ladder_index((1, 3), 3) == 5


def test_is_regular_golden():
    assert is_regular((3, 2, 1), 3)
    assert not is_regular((2, 2, 2, 1, 1, 1), 3)
    assert not is_regular((1, 1, 1), 3)
    assert is_regular((1, 1), 3)
    assert is_regular(EMPTY, 2)


def test_is_regular_checks_the_partition():
    # the other public predicates already raised for a non-partition
    for bad in ((1, 2), (2, 0, 1), (2, -1)):
        with pytest.raises(ValueError):
            is_regular(bad, 3)
    assert is_regular([1, 1], 3) and not is_regular([1, 1, 1, 0], 3)


@given(partitions(), moduli())
def test_is_regular_matches_run_lengths(lam, ell):
    longest = 0
    run = 0
    prev = None
    for part in lam:
        run = run + 1 if part == prev else 1
        prev = part
        longest = max(longest, run)
    assert is_regular(lam, ell) == (longest < ell)


def test_corners_golden():
    lam = (4, 2, 1, 1)
    assert removable_corners(lam) == [(1, 4), (2, 2), (4, 1)]
    assert addable_corners(lam) == [(1, 5), (2, 3), (3, 2), (5, 1)]
    assert addable_corners(EMPTY) == [(1, 1)]
    assert removable_corners(EMPTY) == []


@given(partitions())
def test_add_remove_round_trip(lam):
    for box in addable_corners(lam):
        bigger = add_box(lam, box)
        assert size(bigger) == size(lam) + 1
        assert remove_box(bigger, box) == lam
    for box in removable_corners(lam):
        smaller = remove_box(lam, box)
        assert size(smaller) == size(lam) - 1
        assert add_box(smaller, box) == lam


@given(partitions(), moduli())
def test_residue_filtered_corners(lam, ell):
    for i in range(ell):
        assert addable_boxes(lam, i, ell) == [
            b for b in addable_corners(lam) if residue(b, ell) == i
        ]
        assert removable_boxes(lam, i, ell) == [
            b for b in removable_corners(lam) if residue(b, ell) == i
        ]


def test_residue_filter_rejects_bad_residue():
    # 1.0 and True would select residue 1: addable_boxes((2, 1), 1, 3) == [(3, 1)]
    for fn in (addable_boxes, removable_boxes):
        for i in (3, -1, 1.0, True, False, "1", None):
            with pytest.raises(ValueError):
                fn((2, 1), i, 3)


def test_dominance_golden():
    assert dominance_compare((4,), (2, 2)) == GREATER
    assert dominance_compare((2, 2), (4,)) == LESS
    assert dominance_compare((3, 3), (4, 1, 1)) == INCOMPARABLE
    assert dominance_compare((2, 1), (2, 1)) == EQUAL
    assert dominance_compare((3,), (2, 2)) == INCOMPARABLE  # different sizes


@given(partitions(max_part=6, max_len=6))
def test_dominance_against_prefix_sums(lam):
    for mu in all_partitions(size(lam)) if size(lam) <= 8 else ():
        rel = dominance_compare(lam, mu)
        width = max(len(lam), len(mu))
        lam_sums = [sum(lam[: k + 1]) for k in range(width)]
        mu_sums = [sum(mu[: k + 1]) for k in range(width)]
        ge = all(a >= b for a, b in zip(lam_sums, mu_sums))
        le = all(a <= b for a, b in zip(lam_sums, mu_sums))
        if ge and le:
            assert rel == EQUAL
        elif ge:
            assert rel == GREATER
        elif le:
            assert rel == LESS
        else:
            assert rel == INCOMPARABLE


@pytest.mark.parametrize("n", range(len(PARTITION_COUNTS)))
def test_partition_counts(n):
    found = all_partitions(n)
    assert len(found) == PARTITION_COUNTS[n]
    assert len(set(found)) == len(found)
    for lam in found:
        assert check_partition(lam) == lam
        assert size(lam) == n


def test_child_rule_gives_each_level_in_reverse_lex_order():
    level = [EMPTY]
    for n in range(1, 19):
        grown = list(_children(level))
        assert [lam for _, lam, _ in grown] == list(oracles.partitions(n, n)), n
        for mu, lam, box in grown:  # the parent is the child less its last row's last box
            assert mu in level and add_box(mu, box) == lam and box == (len(lam), lam[-1]), lam
        level = [lam for _, lam, _ in grown]


@pytest.mark.parametrize("k", range(7))
def test_child_rule_with_a_row_cap_gives_the_partitions_of_at_most_k_parts(k):
    by_size = _partitions_by_size(14, k)
    for n in range(15):
        assert by_size[n] == [lam for lam in oracles.partitions(n, n) if len(lam) <= k], (n, k)
