"""The (ell,0)-JM layer: witnesses, classifications, decomposition, counting."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given

from laddercrystal.partitions import (
    add_box,
    addable_corners,
    all_partitions,
    hook_grid,
    is_regular,
    remove_box,
    removable_corners,
    size,
    transpose,
)
from laddercrystal.jm import (
    InvalidDecompositionError,
    JMDecomposition,
    NotACoreError,
    NotJMPartitionError,
    _only_horizontal_hereditarily,
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
from laddercrystal.rimhooks import (
    HORIZONTAL,
    VERTICAL,
    _remove,
    adjacent,
    ell_core,
    is_core,
    removable_rim_hooks,
)

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


def _reference_only_horizontal(lam, ell):
    """Walk every partition that hook removals reach; each hook must be horizontal."""
    seen = {lam}
    todo = [lam]
    while todo:
        cur = todo.pop()
        hooks = removable_rim_hooks(cur, ell)
        if any(h.shape != HORIZONTAL for h in hooks):
            return False
        for hook in hooks:
            rest = _remove(cur, hook)
            if rest not in seen:
                seen.add(rest)
                todo.append(rest)
    return True


def _reference_generalized(lam, ell):
    """Walk every partition that hook removals reach: each hook must be
    horizontal or vertical, and removing one must not expose a touching hook
    of the opposite orientation."""
    seen = {lam}
    todo = [(lam, removable_rim_hooks(lam, ell))]
    while todo:
        cur, hooks = todo.pop()
        if any(h.shape not in (HORIZONTAL, VERTICAL) for h in hooks):
            return False
        for hook in hooks:
            rest = _remove(cur, hook)
            rest_hooks = removable_rim_hooks(rest, ell)
            opposite = VERTICAL if hook.shape == HORIZONTAL else HORIZONTAL
            for other in rest_hooks:
                if other.shape == opposite and adjacent(hook, other):
                    return False
            if rest not in seen:
                seen.add(rest)
                todo.append((rest, rest_hooks))
    return True


def _assert_matches_walk(lam, ell):
    assert _only_horizontal_hereditarily(lam, ell) == _reference_only_horizontal(lam, ell), (lam, ell)
    assert is_generalized_ell_partition(lam, ell) == _reference_generalized(lam, ell), (lam, ell)


@pytest.mark.parametrize("ell,nmax", [(2, 14), (3, 18), (4, 16), (5, 14)])
def test_hereditary_checks_match_the_walk(ell, nmax):
    for n in range(nmax + 1):
        for lam in all_partitions(n):
            _assert_matches_walk(lam, ell)


def _random_partition(n, rng):
    """A partition of n from parts drawn up to a random cap (long rows or long columns)."""
    cap = rng.choice([2, 5, int(n**0.5) + 1, n // 4 + 1, n])
    parts = []
    while n:
        part = rng.randint(1, min(cap, n))
        parts.append(part)
        n -= part
    return tuple(sorted(parts, reverse=True))


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_hereditary_checks_match_the_walk_on_random_partitions(ell):
    rng = random.Random(7100 + ell)
    for _ in range(750):
        _assert_matches_walk(_random_partition(rng.randint(20, 90), rng), ell)


def _one_box_away(lam):
    return [add_box(lam, b) for b in addable_corners(lam)] + [remove_box(lam, b) for b in removable_corners(lam)]


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_hereditary_checks_match_the_walk_on_multi_row_jm_partitions(ell):
    # cores with a frame of several rows or columns carry hooks on several
    # rows, where the walk reaches many partitions; every one-box neighbour
    # is a near miss
    rng = random.Random(7200 + ell)
    cores = [c for n in range(1, 13) for c in all_partitions(n) if is_core(c, ell)]
    for core in rng.sample(cores, 12):
        members = enumerate_jm(core, rng.randint(2, 5), ell)
        for lam in rng.sample(members, min(6, len(members))):
            assert is_generalized_ell_partition(lam, ell) and _reference_generalized(lam, ell)
            for near in _one_box_away(lam):
                _assert_matches_walk(near, ell)


@pytest.mark.parametrize("ell", [3, 4])
def test_opposite_hooks_touch_iff_their_contents_differ_by_ell(ell):
    # The abacus check relies on this: after removing h, an opposite hook g
    # touches h exactly when its northeast box's content is h's plus or
    # minus ell, i.e. g moves the same bead again or the bead one level above.
    pairs = touching = 0
    for n in range(15):
        for lam in all_partitions(n):
            for h in removable_rim_hooks(lam, ell):
                if h.shape not in (HORIZONTAL, VERTICAL):
                    continue
                opposite = VERTICAL if h.shape == HORIZONTAL else HORIZONTAL
                for g in removable_rim_hooks(_remove(lam, h), ell):
                    if g.shape != opposite:
                        continue
                    (hr, hc), (gr, gc) = h.boxes[0], g.boxes[0]
                    pairs += 1
                    touching += adjacent(h, g)
                    assert adjacent(h, g) == (abs((hc - hr) - (gc - gr)) == ell), (lam, h, g)
    assert pairs > touching > 0


def _multi_row_case(r, rho):
    """At ell = 3: a core of r rows of difference 2 and horizontal hook tallies rho."""
    return compose_jm(JMDecomposition(mu=(), r=r, s=0, rho=rho, sigma=()), 3)


MULTI_ROW_CASES = [
    _multi_row_case(8, tuple(2 * k for k in range(9, 0, -1))),  # 342 boxes
    _multi_row_case(10, tuple(range(11, 0, -1))),  # 308 boxes
]


@pytest.mark.parametrize("lam", MULTI_ROW_CASES, ids=lambda lam: f"n{size(lam)}")
def test_hereditary_checks_with_hooks_on_many_rows(lam):
    # the walk took minutes here (it reaches every product of per-row peels);
    # the abacus checks take under a millisecond, so the bound leaves room
    # for a loaded machine and still catches a return of the walk
    start = time.perf_counter()
    assert is_generalized_ell_partition(lam, 3)
    assert is_ell_partition(lam, 3)
    assert is_jm(lam, 3)
    assert time.perf_counter() - start < 10


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
