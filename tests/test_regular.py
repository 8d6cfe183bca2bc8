"""Regularization, locked boxes, deregularization, Mullineux."""

from __future__ import annotations

import pytest
from hypothesis import given

from laddercrystal.partitions import (
    EQUAL,
    GREATER,
    LESS,
    all_partitions,
    dominance_compare,
    is_regular,
    size,
    transpose,
)
from laddercrystal.jm import is_jm
from laddercrystal.regular import (
    LOCKED_I,
    LOCKED_II,
    UNLOCKED,
    NotRegularError,
    deregularize,
    is_L_partition,
    is_ladder_node,
    is_weak_ell_partition,
    ladder_counts,
    lock_labels,
    mullineux,
    _mullineux,
    reg_class,
    regularize,
)

from strategies import partitions, moduli, jm_moduli


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
            assert _mullineux(lam, ell, True) == image


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
