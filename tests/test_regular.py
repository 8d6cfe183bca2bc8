"""Regularization, locked boxes, deregularization, Mullineux."""

from __future__ import annotations

import random

import pytest
from hypothesis import given

from laddercrystal.partitions import (
    EQUAL,
    GREATER,
    LESS,
    all_partitions,
    boxes,
    check_partition,
    dominance_compare,
    is_regular,
    ladder_index,
    ladder_positions,
    size,
    transpose,
)
from laddercrystal.jm import is_generalized_ell_partition, is_jm
from laddercrystal.crystal import CLASSICAL, reduced_word
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
    _mullineux_level,
    reg_class,
    regularize,
)

from helpers import (
    ladder_node_by_hooks,
    mullineux_by_largest_residue,
    mullineux_image_symbol,
    mullineux_symbol,
)
from strategies import partitions, moduli, jm_moduli


# Reference implementation, box by box: sets of (row, col) boxes, a rescan of
# each box's ladder for the type I test, and reg_class as a scan of every
# partition of |lam|.


def _reference_ladder_counts(lam, ell):
    counts = {}
    for box in boxes(lam):
        k = ladder_index(box, ell)
        counts[k] = counts.get(k, 0) + 1
    return counts


def _reference_diagram(filled, context):
    if not filled:
        return ()
    row_counts = {}
    for row, _col in filled:
        row_counts[row] = row_counts.get(row, 0) + 1
    rows = [row_counts.get(r, 0) for r in range(1, max(row_counts) + 1)]
    for r, length in enumerate(rows, start=1):
        if {(r, c) for c in range(1, length + 1)} != {b for b in filled if b[0] == r}:
            raise ValueError(f"{context} produced a non-contiguous row {r}")
    try:
        return check_partition(rows)
    except ValueError as exc:
        raise ValueError(f"{context} did not produce a partition: {rows}") from exc


def _reference_regularize(lam, ell):
    filled = set()
    for k, count in _reference_ladder_counts(lam, ell).items():
        filled.update(ladder_positions(k, ell)[:count])
    return _reference_diagram(filled, "regularization")


def _inside(lam, box):
    """contains() without its partition check, which would cost O(len(lam)) a box here."""
    row, col = box
    return 1 <= row <= len(lam) and 1 <= col <= lam[row - 1]


def _reference_gaps_stacked(lam, box, ell):
    row, col = box
    k = ladder_index(box, ell)
    for b in range(1, col):
        pos = (k - (ell - 1) * (b - 1), b)
        if not _inside(lam, pos) and _inside(lam, (pos[0] - 1, pos[1])):
            return False
    return True


def _reference_lock_labels(lam, ell):
    labels = {}
    locked = set()
    for row in range(1, len(lam) + 1):
        type_one = []
        for col in range(1, lam[row - 1] + 1):
            above_ok = row == 1 or (row - 1, col) in locked
            if above_ok and _reference_gaps_stacked(lam, (row, col), ell):
                type_one.append(col)
        rightmost = max(type_one) if type_one else 0
        for col in range(1, lam[row - 1] + 1):
            if col in type_one:
                labels[(row, col)] = LOCKED_I
                locked.add((row, col))
            elif col < rightmost:
                labels[(row, col)] = LOCKED_II
                locked.add((row, col))
            else:
                labels[(row, col)] = UNLOCKED
    return labels


def _reference_deregularize(lam, ell):
    labels = _reference_lock_labels(lam, ell)
    locked_by_ladder = {}
    loose_by_ladder = {}
    for box, label in labels.items():
        k = ladder_index(box, ell)
        if label == UNLOCKED:
            loose_by_ladder[k] = loose_by_ladder.get(k, 0) + 1
        else:
            locked_by_ladder.setdefault(k, set()).add(box)
    filled = set()
    for fixed in locked_by_ladder.values():
        filled.update(fixed)
    for k, count in loose_by_ladder.items():
        fixed = locked_by_ladder.get(k, set())
        free = [p for p in reversed(ladder_positions(k, ell)) if p not in fixed]
        filled.update(free[:count])
    result = _reference_diagram(filled, "deregularization")
    if any(label == UNLOCKED for label in _reference_lock_labels(result, ell).values()):
        raise ValueError(f"deregularization of {lam} left unlocked boxes: {result}")
    return result


def _assert_postconditions(lam, ell):
    """What regularize and deregularize guarantee by construction and no call
    re-checks: both give partitions with lam's ladder counts, the first
    ell-regular and the second a ladder node by the hook rule."""
    counts = _reference_ladder_counts(lam, ell)
    reg, dereg = regularize(lam, ell), deregularize(lam, ell)
    for mu in (reg, dereg):
        assert all(part > 0 for part in mu) and list(mu) == sorted(mu, reverse=True), (lam, mu)
        assert _reference_ladder_counts(mu, ell) == counts, (lam, mu)
    assert is_regular(reg, ell), lam
    assert ladder_node_by_hooks(dereg, ell), lam


def _reference_classes(n, ell):
    """The p(n) scan: every partition of n grouped by its regularization."""
    classes = {}
    for mu in all_partitions(n):
        classes.setdefault(_reference_regularize(mu, ell), []).append(mu)
    return {image: tuple(sorted(members)) for image, members in classes.items()}


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


def _random_partition(n, rng):
    """A partition of n from parts drawn up to a random cap (long rows or long columns)."""
    cap = rng.choice([2, 5, int(n**0.5) + 1, n // 4 + 1, n])
    parts = []
    while n:
        part = rng.randint(1, min(cap, n))
        parts.append(part)
        n -= part
    return tuple(sorted(parts, reverse=True))


def _assert_matches_reference(lam, ell):
    assert ladder_counts(lam, ell) == _reference_ladder_counts(lam, ell), lam
    assert _outcome(regularize, lam, ell) == _outcome(_reference_regularize, lam, ell), lam
    assert _outcome(lock_labels, lam, ell) == _outcome(_reference_lock_labels, lam, ell), lam
    assert _outcome(deregularize, lam, ell) == _outcome(_reference_deregularize, lam, ell), lam


@pytest.mark.parametrize("ell,nmax", [(2, 14), (3, 16), (4, 16), (5, 16)])
def test_ladder_arithmetic_matches_reference(ell, nmax):
    for n in range(nmax + 1):
        for lam in all_partitions(n):
            _assert_matches_reference(lam, ell)


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_ladder_arithmetic_matches_reference_on_large_partitions(ell):
    rng = random.Random(20090 + ell)
    for _ in range(12):
        lam = _random_partition(rng.randint(100, 800), rng)
        _assert_matches_reference(lam, ell)
        _assert_postconditions(lam, ell)


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
    for n in range(17):
        classes = _reference_classes(n, ell)
        for lam in all_partitions(n):
            image = _reference_regularize(lam, ell)
            assert reg_class(lam, ell) == RegClass(image, classes[image]), lam


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
            assert is_ladder_node(lam, ell) == ladder_node_by_hooks(lam, ell), lam
    # large diagrams and their deregularizations, which are all nodes
    rng = random.Random(8100 + ell)
    for _ in range(40):
        n = rng.randint(200, 4000)
        cap = rng.choice([2, ell, int(n**0.5) + 1, n])
        parts = []
        while n:
            parts.append(rng.randint(1, min(cap, n)))
            n -= parts[-1]
        lam = tuple(sorted(parts, reverse=True))
        for mu in (lam, deregularize(lam, ell)):
            assert is_ladder_node(mu, ell) == ladder_node_by_hooks(mu, ell), mu
        _assert_postconditions(lam, ell)


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
            assert mullineux_by_largest_residue(lam, ell) == image


# Reference Mullineux map, box by box: peel one good box per step and replay
# one cogood box per step, reading a fresh reduced word each time.


def _reference_mullineux(lam, ell):
    peeled = []
    cur = lam
    while cur:
        for i in range(ell):
            word = reduced_word(cur, i, ell, CLASSICAL)
            if word.minus:
                break
        else:
            raise ValueError(f"no removable good box for {cur}; is it {ell}-regular?")
        peeled.append(i)
        row, col = word.minus[0]
        cur = cur[: row - 1] + ((col - 1,) if col > 1 else ()) + cur[row:]
    image = ()
    for i in reversed(peeled):
        word = reduced_word(image, (-i) % ell, ell, CLASSICAL)
        assert word.plus, f"mullineux replay stalled at {lam}"
        row, col = word.plus[-1]
        image = image[: row - 1] + (col,) + image[row:]
    return image


def _random_regular_partition(n, ell, rng):
    """An ell-regular partition of at most n boxes: parts from a random cap
    down to 1, each taken 0..ell-1 times while it fits (many short rows or a
    few long ones)."""
    cap = rng.choice([int((2 * n) ** 0.5), n // 16, n // 4])
    parts = []
    for value in range(cap, 0, -1):
        parts += [value] * min(rng.randint(0, ell - 1), (n - sum(parts)) // value)
    return tuple(parts)


def _large_regular_partitions(ell):
    rng = random.Random(19790 + ell)
    return [_random_regular_partition(rng.randint(500, 4096), ell, rng) for _ in range(6)]


def _regular_partitions(ell, nmax):
    return [lam for n in range(nmax + 1) for lam in all_partitions(n) if is_regular(lam, ell)]


@pytest.mark.parametrize("ell,nmax", [(3, 18), (4, 16), (5, 16)])
def test_mullineux_matches_one_box_reference(ell, nmax):
    for lam in _regular_partitions(ell, nmax):
        expected = _reference_mullineux(lam, ell)
        assert mullineux(lam, ell) == expected, lam
        assert mullineux_by_largest_residue(lam, ell) == expected, lam


@pytest.mark.parametrize("ell", [3, 4])
def test_mullineux_matches_one_box_reference_on_large_partitions(ell):
    for lam in _large_regular_partitions(ell):
        assert is_regular(lam, ell) and 300 < size(lam) <= 4096, lam
        expected = _reference_mullineux(lam, ell)
        assert mullineux(lam, ell) == expected, lam
        assert mullineux_by_largest_residue(lam, ell) == expected, lam


@pytest.mark.parametrize("ell,nmax", [(3, 18), (4, 16), (5, 16)])
def test_level_built_mullineux_matches_mullineux_and_the_symbol_oracle(ell, nmax):
    below: dict = {}
    for n in range(nmax + 1):
        level = [lam for lam in all_partitions(n) if is_regular(lam, ell)]
        here = _mullineux_level(level, below, ell)
        assert list(here) == level
        for lam, image in here.items():
            assert image == mullineux(lam, ell), lam
            assert mullineux_symbol(image, ell) == mullineux_image_symbol(lam, ell), lam
        below = here


def test_mullineux_symbol_golden():
    # the 3-rim of (3,2,1) is (1,3),(1,2),(2,2) then (3,1); (1,1) is left
    assert mullineux_symbol((3, 2, 1), 3) == [(4, 3), (2, 2)]
    assert mullineux_image_symbol((3, 2, 1), 3) == [(4, 2), (2, 1)]
    assert mullineux_symbol((5, 1), 3) == [(4, 2), (2, 1)]
    assert mullineux_symbol((), 3) == []


@pytest.mark.parametrize("ell", [3, 4])
def test_mullineux_symbol_determines_the_partition(ell):
    seen = {}
    for lam in _regular_partitions(ell, 14):
        symbol = tuple(mullineux_symbol(lam, ell))
        assert seen.setdefault(symbol, lam) == lam, (lam, seen[symbol])


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_mullineux_matches_the_symbol_oracle(ell):
    for lam in _regular_partitions(ell, 16):
        assert mullineux_symbol(mullineux(lam, ell), ell) == mullineux_image_symbol(lam, ell), lam


@pytest.mark.parametrize("ell", [3, 4])
def test_mullineux_matches_the_symbol_oracle_on_large_partitions(ell):
    for lam in _large_regular_partitions(ell):
        assert mullineux_symbol(mullineux(lam, ell), ell) == mullineux_image_symbol(lam, ell), lam


def test_mullineux_involution_and_symbol_at_size_4096():
    lam = _random_regular_partition(4096, 3, random.Random(4097))
    assert size(lam) == 4038 and len(lam) == 89
    image = mullineux(lam, 3)
    assert mullineux_symbol(image, 3) == mullineux_image_symbol(lam, 3)
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
