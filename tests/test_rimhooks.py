"""Rim hooks: enumeration, removal, shape classes, cores, adjacency."""

from __future__ import annotations

import random

import pytest
from hypothesis import given

from laddercrystal.partitions import (
    all_partitions,
    boxes,
    check_partition,
    hook_grid,
    size,
)
from laddercrystal.rimhooks import (
    HORIZONTAL,
    NEITHER,
    VERTICAL,
    InvalidHookError,
    RimHook,
    _ell_core,
    _is_core,
    adjacent,
    ell_core,
    is_core,
    remove_rim_hook,
    removable_rim_hooks,
)

import oracles
from strategies import partitions, moduli


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_abacus_matches_hook_grid_oracle(ell):
    for n in range(15):
        for lam in all_partitions(n):
            expected = oracles.rim_hooks(lam, ell)
            hooks = removable_rim_hooks(lam, ell)
            assert [(h.boxes, h.shape) for h in hooks] == expected, lam
            for hook, (path, _shape) in zip(hooks, expected):
                assert remove_rim_hook(lam, hook) == oracles.remove(lam, path), (lam, hook)
            assert ell_core(lam, ell) == oracles.core(lam, ell), lam


def _assert_matches_the_peel(lam, ell):
    """The padded abacus (_ell_core, _is_core) against the core peeled off the diagram."""
    core, weight = oracles.core(lam, ell)
    assert _ell_core(lam, ell) == (core, weight), lam
    assert _is_core(lam, ell) == (weight == 0), lam


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6, 7])
def test_padded_abacus_matches_the_unpadded_bead_loop(ell):
    for n in range(19):
        for lam in all_partitions(n):
            _assert_matches_the_peel(lam, ell)


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6, 7])
def test_padded_abacus_matches_the_unpadded_bead_loop_on_large_partitions(ell):
    rng = random.Random(5300 + ell)
    for _ in range(12):
        _assert_matches_the_peel(oracles.random_partition(rng.randint(500, 5000), rng), ell)


def test_hooks_of_321():
    hooks = removable_rim_hooks((3, 2, 1), 3)
    assert [h.boxes for h in hooks] == [
        ((1, 3), (1, 2), (2, 2)),
        ((2, 2), (2, 1), (3, 1)),
    ]
    assert [h.shape for h in hooks] == [NEITHER, NEITHER]
    assert remove_rim_hook((3, 2, 1), hooks[0]) == (1, 1, 1)
    assert remove_rim_hook((3, 2, 1), hooks[1]) == (3,)


def test_hooks_of_4111():
    hooks = removable_rim_hooks((4, 1, 1, 1), 3)
    assert [h.shape for h in hooks] == [HORIZONTAL, VERTICAL]
    assert hooks[0].boxes == ((1, 4), (1, 3), (1, 2))
    assert hooks[1].boxes == ((2, 1), (3, 1), (4, 1))
    assert not adjacent(hooks[0], hooks[1])


def test_adjacent_hooks():
    first = removable_rim_hooks((3, 2, 1), 3)[0]
    rest = remove_rim_hook((3, 2, 1), first)
    assert rest == (1, 1, 1)
    second = removable_rim_hooks(rest, 3)[0]
    assert second.shape == VERTICAL
    assert adjacent(first, second)


def test_adjacent_rejects_overlap():
    hooks = removable_rim_hooks((3, 2, 1), 3)
    # the two hooks share the box (2,2)
    with pytest.raises(InvalidHookError):
        adjacent(hooks[0], hooks[1])


def test_remove_validates_membership():
    hooks = removable_rim_hooks((4, 1, 1, 1), 3)
    with pytest.raises(InvalidHookError):
        remove_rim_hook((3, 2, 1), hooks[0])
    bogus = RimHook(boxes=((1, 1), (1, 2), (1, 3)), shape=HORIZONTAL)
    with pytest.raises(InvalidHookError):
        remove_rim_hook((3, 2, 1), bogus)


@pytest.mark.parametrize(
    "hook",
    [
        None,
        (((1, 1), (1, 2), (1, 3)), HORIZONTAL),
        RimHook(5, HORIZONTAL),
        RimHook(((4, 1), (4, True), (4, 3)), HORIZONTAL),
    ],
    ids=["None", "plain tuple", "boxes not iterable", "bool coordinate"],
)
def test_hook_functions_reject_non_hooks(hook):
    # None raised AttributeError, and boxes that are lists raised TypeError
    real = removable_rim_hooks((3,), 3)[0]
    with pytest.raises(InvalidHookError):
        remove_rim_hook((3,), hook)
    with pytest.raises(InvalidHookError):
        adjacent(real, hook)
    with pytest.raises(InvalidHookError):
        adjacent(hook, real)


def test_remove_rejects_a_one_box_hook():
    with pytest.raises(InvalidHookError, match="too short"):
        remove_rim_hook((3,), RimHook(((1, 3),), HORIZONTAL))


def test_hook_boxes_may_be_lists():
    listed = RimHook(([1, 1], [1, 2], [1, 3]), HORIZONTAL)
    assert remove_rim_hook((3,), listed) == ()
    assert adjacent(listed, RimHook(([2, 1], [2, 2], [2, 3]), HORIZONTAL))


@given(partitions(), moduli())
def test_enumerated_hooks_are_consistent(lam, ell):
    hooks = removable_rim_hooks(lam, ell)
    rows = [h.boxes[0][0] for h in hooks]
    assert rows == sorted(rows), "hooks are listed from the northeast down"
    assert len(set(rows)) == len(rows), "at most one removable hook per row"
    for hook in hooks:
        assert len(hook) == ell
        assert len(hook.box_set) == ell
        smaller = remove_rim_hook(lam, hook)
        assert check_partition(smaller) == smaller
        assert size(smaller) == size(lam) - ell
        row_set = {a for a, _ in hook.boxes}
        col_set = {b for _, b in hook.boxes}
        if hook.shape == HORIZONTAL:
            assert len(row_set) == 1
        elif hook.shape == VERTICAL:
            assert len(col_set) == 1
        else:
            assert len(row_set) > 1 and len(col_set) > 1


@given(partitions(), moduli())
def test_hooks_match_divisible_hook_lengths(lam, ell):
    grid = hook_grid(lam)
    expected = sum(
        1
        for (a, b) in boxes(lam)
        if grid[a - 1][b - 1] == ell
    )
    assert len(removable_rim_hooks(lam, ell)) == expected


@pytest.mark.parametrize("fn", [ell_core, is_core, removable_rim_hooks])
def test_core_boundary_rejects_non_partitions(fn):
    for bad in ((1, 2), [1, 2], (2, 0, 1), (2, -1)):
        with pytest.raises(ValueError):
            fn(bad, 3)


def test_remove_rim_hook_rejects_non_partitions():
    hook = removable_rim_hooks((3,), 3)[0]
    with pytest.raises(ValueError):
        remove_rim_hook((1, 3), hook)


def test_core_boundary_accepts_lists():
    assert ell_core([4, 2], 3) == ell_core((4, 2), 3)
    assert is_core([2], 3) and not is_core([3], 3)
    assert removable_rim_hooks([3, 2, 1], 3) == removable_rim_hooks((3, 2, 1), 3)
    hook = removable_rim_hooks((3, 2, 1), 3)[1]
    assert remove_rim_hook([3, 2, 1], hook) == (3,)


def test_core_golden():
    assert ell_core((3, 2, 1), 3) == ((), 2)
    assert ell_core((2, 1), 3) == ((), 1)
    # beta-numbers 19,16,10,8,7,5,4,3,2,1 pack on 3 runners with 3 bead moves
    assert ell_core((10, 8, 3, 2, 2, 1, 1, 1, 1, 1), 3) == ((7, 5, 3, 2, 2, 1, 1), 3)
    core, weight = ell_core((15, 10, 8, 6, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1), 3)
    assert core == (9, 7, 5, 3, 2, 2, 1, 1)
    assert weight == 8
    # one runner, 1000 bead slides: no hook is peeled one at a time
    assert ell_core((3000,), 3) == ((), 1000)
    assert ell_core((1,) * 3001, 3) == ((1,), 1000)


@given(partitions(), moduli())
def test_core_properties(lam, ell):
    core, weight = ell_core(lam, ell)
    assert size(lam) == size(core) + ell * weight
    assert is_core(core, ell)
    assert ell_core(core, ell) == (core, 0)
    assert not removable_rim_hooks(core, ell)


@given(partitions(max_part=6, max_len=6), moduli())
def test_is_core_means_no_divisible_hooks(lam, ell):
    grid = hook_grid(lam)
    brute = all(grid[a - 1][b - 1] % ell for (a, b) in boxes(lam))
    assert is_core(lam, ell) == brute


@pytest.mark.parametrize("ell", [3, 4])
def test_core_is_order_independent(ell):
    # every sequence of hook removals ends at the same core with the same count
    def explore(lam):
        hooks = removable_rim_hooks(lam, ell)
        if not hooks:
            return {(lam, 0)}
        ends = set()
        for hook in hooks:
            for core, w in explore(remove_rim_hook(lam, hook)):
                ends.add((core, w + 1))
        return ends

    for n in range(0, 13):
        for lam in all_partitions(n):
            ends = explore(lam)
            assert len(ends) == 1
            assert next(iter(ends)) == tuple(ell_core(lam, ell))
