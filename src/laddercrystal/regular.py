"""Regularization, locked boxes, deregularization, and the Mullineux map.

Regularization slides the boxes of each ladder to the top of that ladder,
producing the unique ell-regular partition in the same ladder class.
Deregularization is the opposite extreme: boxes that are not locked in place
slide to the bottom of their ladders, producing the dominance-least member of
the class.  Fixed points of deregularization are exactly the partitions that
appear as nodes of the ladder crystal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .partitions import (
    Box,
    Partition,
    all_partitions,
    boxes,
    check_ell,
    check_partition,
    contains,
    hook_grid,
    is_regular,
    ladder_index,
    ladder_positions,
    transpose,
)
from .crystal import CLASSICAL, apply_e, f_tilde, reduced_word
from .jm import is_jm

LOCKED_I = "I"
LOCKED_II = "II"
UNLOCKED = "unlocked"


class NotRegularError(ValueError):
    pass


@dataclass(frozen=True)
class RegClass:
    """All partitions sharing a regularization image."""

    representative: Partition  # the unique ell-regular member
    members: tuple[Partition, ...]


def ladder_counts(lam: Partition, ell: int) -> dict[int, int]:
    """Number of boxes of lam on each ladder (only nonzero counts)."""
    check_ell(ell)
    counts: dict[int, int] = {}
    for box in boxes(lam):
        k = ladder_index(box, ell)
        counts[k] = counts.get(k, 0) + 1
    return counts


def _diagram_from_boxes(filled: set[Box], context: str) -> Partition:
    """Assemble a box set into a partition, insisting on contiguous rows."""
    if not filled:
        return ()
    row_counts: dict[int, int] = {}
    for row, _col in filled:
        row_counts[row] = row_counts.get(row, 0) + 1
    depth = max(row_counts)
    rows = [row_counts.get(r, 0) for r in range(1, depth + 1)]
    for r, length in enumerate(rows, start=1):
        if {(r, c) for c in range(1, length + 1)} != {b for b in filled if b[0] == r}:
            raise ValueError(f"{context} produced a non-contiguous row {r}")
    try:
        return check_partition(rows)
    except ValueError as exc:
        raise ValueError(f"{context} did not produce a partition: {rows}") from exc


@functools.lru_cache(maxsize=None)
def regularize(lam: Partition, ell: int) -> Partition:
    """Slide the boxes of every ladder into that ladder's topmost positions."""
    filled: set[Box] = set()
    for k, count in ladder_counts(lam, ell).items():
        filled.update(ladder_positions(k, ell)[:count])
    return _diagram_from_boxes(filled, "regularization")


def lock_labels(lam: Partition, ell: int) -> dict[Box, str]:
    """Label every box LOCKED_I, LOCKED_II or UNLOCKED.

    A box is type I when the box directly above is locked (or it sits in the
    first row) and every unoccupied position below it on its ladder has an
    unoccupied position directly above.  Boxes left of a locked box in the
    same row are locked too (type II when not already type I).  Locks only
    propagate downward and leftward, so one top-down sweep reaches the
    fixpoint.
    """
    check_ell(ell)
    labels: dict[Box, str] = {}
    locked: set[Box] = set()
    for row in range(1, len(lam) + 1):
        type_one = []
        for col in range(1, lam[row - 1] + 1):
            above_ok = row == 1 or (row - 1, col) in locked
            if above_ok and _ladder_gaps_stacked(lam, (row, col), ell):
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


def _ladder_gaps_stacked(lam: Partition, box: Box, ell: int) -> bool:
    """Every empty ladder position below *box* has an empty position above it."""
    row, col = box
    k = ladder_index(box, ell)
    for b in range(1, col):
        pos = (k - (ell - 1) * (b - 1), b)
        if not contains(lam, pos) and contains(lam, (pos[0] - 1, pos[1])):
            return False
    return True


def deregularize(lam: Partition, ell: int) -> Partition:
    """Slide every unlocked box to the lowest free position on its ladder.

    The result keeps each ladder's box count, is itself a partition, and is
    fully locked; those postconditions are re-checked rather than trusted.
    """
    labels = lock_labels(lam, ell)
    locked_by_ladder: dict[int, set[Box]] = {}
    loose_by_ladder: dict[int, int] = {}
    for box, label in labels.items():
        k = ladder_index(box, ell)
        if label == UNLOCKED:
            loose_by_ladder[k] = loose_by_ladder.get(k, 0) + 1
        else:
            locked_by_ladder.setdefault(k, set()).add(box)
    filled: set[Box] = set()
    for k, fixed in locked_by_ladder.items():
        filled.update(fixed)
    for k, count in loose_by_ladder.items():
        fixed = locked_by_ladder.get(k, set())
        free = [p for p in reversed(ladder_positions(k, ell)) if p not in fixed]
        filled.update(free[:count])
    result = _diagram_from_boxes(filled, "deregularization")
    if any(label == UNLOCKED for label in lock_labels(result, ell).values()):
        raise ValueError(f"deregularization of {lam} left unlocked boxes: {result}")
    return result


def reg_class(lam: Partition, ell: int) -> RegClass:
    """Every partition of |lam| with the same regularization, smallest-lex first."""
    image = regularize(lam, ell)
    members = tuple(
        sorted(mu for mu in all_partitions(sum(lam)) if regularize(mu, ell) == image)
    )
    return RegClass(representative=image, members=members)


def is_ladder_node(lam: Partition, ell: int) -> bool:
    """True when no box has hook length equal to ell times its arm.

    These are exactly the partitions fixed by deregularization, i.e. the
    nodes of the ladder crystal.
    """
    check_ell(ell)
    grid = hook_grid(lam)
    for row in range(1, len(lam) + 1):
        for col in range(1, lam[row - 1] + 1):
            if grid[row - 1][col - 1] == ell * (lam[row - 1] - col):
                return False
    return True


def is_L_partition(lam: Partition, ell: int) -> bool:
    """No box has a divisible hook that is short relative to both arm and leg.

    A box (i, j) is disqualifying when ell divides its hook length h and
    h / ell <= min(arm, leg), equivalently when both arm < (ell-1) * leg
    and leg < (ell-1) * arm hold.
    """
    check_ell(ell, minimum=3)
    grid = hook_grid(lam)
    cols = transpose(lam)
    for row in range(1, len(lam) + 1):
        for col in range(1, lam[row - 1] + 1):
            h = grid[row - 1][col - 1]
            if h % ell:
                continue
            a = lam[row - 1] - col
            g = cols[col - 1] - row
            if h // ell <= min(a, g):
                return False
    return True


def is_weak_ell_partition(lam: Partition, ell: int) -> bool:
    """An ell-regular partition whose deregularization is (ell,0)-JM.

    Raises NotRegularError on non-regular input; callers wanting a plain
    boolean over all partitions should pre-filter.
    """
    check_ell(ell, minimum=3)
    if not is_regular(lam, ell):
        raise NotRegularError(f"{lam} is not {ell}-regular")
    return is_jm(deregularize(lam, ell), ell)


@functools.lru_cache(maxsize=None)
def _mullineux(lam: Partition, ell: int, largest: bool) -> Partition:
    residues = range(ell - 1, -1, -1) if largest else range(ell)
    peeled = []
    cur = lam
    while cur:
        for i in residues:
            word = reduced_word(cur, i, ell, CLASSICAL)
            if word.minus:
                break
        else:
            raise ValueError(f"no removable good box for {cur}; is it {ell}-regular?")
        peeled.append(i)
        cur = apply_e(cur, word)
    image: Partition = ()
    for i in reversed(peeled):
        image = f_tilde(image, (-i) % ell, ell)
        assert image is not None, f"mullineux replay stalled at {lam}"
    return image


def mullineux(lam: Partition, ell: int) -> Partition:
    """The Mullineux map, computed through the crystal recursion.

    The image of lam adds the cogood box of residue -i mod ell to the image
    of lam with the good i-box removed, for the smallest live residue i.  It
    is computed without recursion: peel good boxes down to the empty
    partition, then replay the negated residues from the empty partition
    upward.  The choice of live residue does not affect the result.
    """
    check_ell(ell, minimum=3)
    lam = check_partition(lam)
    if not is_regular(lam, ell):
        raise NotRegularError(f"{lam} is not {ell}-regular")
    return _mullineux(lam, ell, largest=False)
