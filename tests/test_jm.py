"""The (ell,0)-JM layer: witnesses, classifications, decomposition, counting."""

from __future__ import annotations

import pytest
from hypothesis import given

from laddercrystal.partitions import all_partitions, hook_grid, is_regular, size, transpose
from laddercrystal.jm import (
    InvalidDecompositionError,
    JMDecomposition,
    NotACoreError,
    NotJMPartitionError,
    compose_jm,
    count_jm,
    decompose_jm,
    enumerate_jm,
    fayers_witness,
    is_ell_partition,
    is_generalized_ell_partition,
    is_jm,
    star_condition,
)
from laddercrystal.rimhooks import ell_core, is_core

from strategies import partitions, jm_moduli


JM_EXAMPLE = (10, 8, 3, 2, 2, 1, 1, 1, 1, 1)


def test_hook_grid_of_running_example():
    assert hook_grid(JM_EXAMPLE) == (
        (19, 13, 10, 8, 7, 6, 5, 4, 2, 1),
        (16, 10, 7, 5, 4, 3, 2, 1),
        (10, 4, 1),
        (8, 2),
        (7, 1),
        (5,),
        (4,),
        (3,),
        (2,),
        (1,),
    )


def test_witness_golden():
    assert fayers_witness(JM_EXAMPLE, 3) is None
    witness = fayers_witness((3, 1, 1, 1), 3)
    assert witness is not None
    assert witness.base == (1, 1)
    assert witness.row_mate == (1, 2)
    assert witness.col_mate == (3, 1)


@given(partitions(), jm_moduli())
def test_witness_shape_is_valid(lam, ell):
    witness = fayers_witness(lam, ell)
    if witness is None:
        return
    (a, b) = witness.base
    (a2, y) = witness.row_mate
    (x, b2) = witness.col_mate
    assert a2 == a and b2 == b
    grid = hook_grid(lam)
    assert grid[a - 1][b - 1] % ell == 0
    assert grid[a - 1][y - 1] % ell != 0
    assert grid[x - 1][b - 1] % ell != 0


@given(partitions(max_part=7, max_len=7), jm_moduli())
def test_jm_iff_no_witness_and_transpose_symmetric(lam, ell):
    assert is_jm(lam, ell) == (fayers_witness(lam, ell) is None)
    assert is_jm(lam, ell) == is_jm(transpose(lam), ell)


@pytest.mark.parametrize(
    "fn",
    [is_jm, fayers_witness, is_ell_partition, is_generalized_ell_partition, star_condition, decompose_jm],
)
def test_public_boundary_rejects_non_partitions(fn):
    for bad in ((1, 2), [1, 2], (2, 0, 1), (2, -1)):
        with pytest.raises(ValueError):
            fn(bad, 3)


def test_public_boundary_accepts_lists():
    lam = list(JM_EXAMPLE)
    assert is_jm(lam, 3) and fayers_witness(lam, 3) is None
    assert is_generalized_ell_partition(lam, 3)
    assert is_ell_partition([4, 1], 3) and not is_ell_partition([3, 3, 3], 3)
    assert star_condition([3, 1], 3) == star_condition((3, 1), 3)
    assert decompose_jm(lam, 3) == decompose_jm(JM_EXAMPLE, 3)
    assert not is_jm([3, 2], 3) and fayers_witness([3, 2], 3) == fayers_witness((3, 2), 3)


def test_jm_requires_ell_at_least_three():
    with pytest.raises(ValueError):
        is_jm((2, 1), 2)
    with pytest.raises(ValueError):
        count_jm((1,), 1, 2)


@pytest.mark.parametrize("ell", [3, 4])
def test_jm_equals_generalized_ell_partition(ell):
    for n in range(0, 11):
        for lam in all_partitions(n):
            assert is_jm(lam, ell) == is_generalized_ell_partition(lam, ell)


def test_star_condition_golden():
    # a single row has one hook per column, so divisibility is all-or-none
    assert star_condition((3,), 3)
    assert star_condition((6,), 3)
    # column 1 of the big example mixes hook 3 with non-multiples
    assert not star_condition(JM_EXAMPLE, 3)
    assert not star_condition((2, 2, 2, 1, 1, 1), 3)


@pytest.mark.parametrize("ell", [3, 4])
def test_ell_partition_is_regular_plus_star(ell):
    for n in range(0, 11):
        for lam in all_partitions(n):
            expected = is_regular(lam, ell) and star_condition(lam, ell)
            assert is_ell_partition(lam, ell) == expected


def test_decompose_golden():
    lam = (15, 10, 8, 6, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1)
    dec = decompose_jm(lam, 3)
    assert dec == JMDecomposition(mu=(1,), r=3, s=2, rho=(2, 1, 1, 1), sigma=(2, 1))
    assert compose_jm(dec, 3) == lam


def test_hereditary_checks_at_large_weight():
    # weight 603: far deeper than the interpreter's recursion limit allows a
    # recursive peel to go
    dec = JMDecomposition(mu=(1,), r=3, s=2, rho=(600,), sigma=(2, 1))
    lam = transpose(compose_jm(dec, 3))
    assert ell_core(lam, 3) == ((8, 6, 4, 3, 3, 2, 2, 1, 1), 603)
    assert is_jm(lam, 3)
    assert is_generalized_ell_partition(lam, 3)
    assert decompose_jm(lam, 3) == JMDecomposition(mu=(1,), r=2, s=3, rho=(2, 1), sigma=(600,))
    horizontal = compose_jm(JMDecomposition(mu=(1,), r=3, s=2, rho=(600,), sigma=()), 3)
    assert is_ell_partition(horizontal, 3)
    # 600 horizontal hooks peel off row 1 before (2, 2) shows a bent one
    assert not is_ell_partition((3 * 600 + 2, 2), 3)


def test_compose_canonicalizes_trailing_zeros():
    dec = JMDecomposition(mu=(1,), r=3, s=2, rho=(2, 1, 1, 1), sigma=(2, 1, 0))
    assert compose_jm(dec, 3) == (15, 10, 8, 6, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1)


def test_compose_empty_mu_frames():
    assert compose_jm(JMDecomposition((), 0, 1, (), ()), 3) == (1, 1)
    assert compose_jm(JMDecomposition((), 1, 1, (), ()), 3) == (3, 1, 1)
    assert compose_jm(JMDecomposition((), 0, 1, (1,), ()), 3) == (4, 1)
    assert compose_jm(JMDecomposition((), 0, 2, (), ()), 3) == (2, 2, 1, 1)


def test_compose_rejects_double_full_arms_on_empty_mu():
    # with no sub-partition, boxes cannot pile onto both the last row and column
    with pytest.raises(InvalidDecompositionError):
        compose_jm(JMDecomposition((), 0, 1, (1,), (1, 1)), 3)


def test_decompose_rejects_non_jm():
    with pytest.raises(NotJMPartitionError):
        decompose_jm((2, 2), 3)


def test_count_rejects_non_core():
    with pytest.raises(NotACoreError):
        count_jm((3,), 1, 3)


def test_count_and_enumerate_reject_negative_weight():
    for fn in (count_jm, enumerate_jm):
        with pytest.raises(ValueError, match="weight must be non-negative"):
            fn((), -1, 3)


def test_count_golden():
    assert count_jm((3, 1), 3, 3) == 6
    assert enumerate_jm((3, 1), 3, 3) == [
        (12, 1),
        (9, 4),
        (9, 1, 1, 1, 1),
        (6, 4, 1, 1, 1),
        (6, 1, 1, 1, 1, 1, 1, 1),
        (3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    ]


def test_count_degenerate_core_regression():
    # a core whose frame touches both margins used to be double counted
    assert count_jm((2,), 1, 3) == 2
    assert enumerate_jm((2,), 1, 3) == [(5,), (2, 1, 1, 1)]
    assert count_jm((2,), 0, 3) == 1


@pytest.mark.parametrize("ell", [3, 4])
def test_count_matches_enumeration_and_brute_force(ell):
    cores = [
        lam
        for n in range(0, 7)
        for lam in all_partitions(n)
        if is_core(lam, ell)
    ]
    for core in cores:
        for w in range(0, 4):
            found = enumerate_jm(core, w, ell)
            assert count_jm(core, w, ell) == len(found)
            brute = sorted(
                (
                    lam
                    for lam in all_partitions(size(core) + ell * w)
                    if is_jm(lam, ell) and ell_core(lam, ell) == (core, w)
                ),
                reverse=True,
            )
            assert found == brute


@pytest.mark.parametrize("ell", [3, 4])
def test_enumerated_partitions_round_trip(ell):
    for core in [(), (1,), (2,), (3, 1), (1, 1)]:
        if not is_core(core, ell):
            continue
        for w in range(0, 4):
            for lam in enumerate_jm(core, w, ell):
                dec = decompose_jm(lam, ell)
                assert compose_jm(dec, ell) == lam
