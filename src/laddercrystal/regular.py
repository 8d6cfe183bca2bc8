"""Regularization, locked boxes, deregularization, and the Mullineux map.

Regularization slides the boxes of each ladder to the top of that ladder,
producing the unique ell-regular partition in the same ladder class.
Deregularization is the opposite extreme: boxes that are not locked in place
slide to the bottom of their ladders, producing the dominance-least member of
the class.  Fixed points of deregularization are exactly the partitions that
appear as nodes of the ladder crystal.

Everything here is integer arithmetic on ladders: row r meets ladders
r, r + (ell-1), ..., r + (ell-1)(lam_r - 1), so ladder counts and
regularization cost O(|lam|).  The locked boxes of every row form a prefix
1..R_r (type I boxes and everything left of the rightmost one), and R_r
follows from R_{r-1} and the columns whose first empty position lies on each
ladder, so lock labels and deregularization cost O(|lam|) too.  Each column
covers consecutive ladders, so a regularization class is built column by
column while walking the ladders in order, instead of scanning every
partition of |lam|.

The Mullineux map twists the crystal residues i -> -i, so it carries a
whole i-string to a (-i)-string of the same length.  It peels whole strings
(e_i^eps of the first live residue i) down to the empty partition and
replays f_{-i}^eps upward; which live residue and which string length are
taken does not change the image.  Each string costs one reduced word, not
one per box.  A sweep over all sizes builds the images level by level
instead: m(rho) = f_{-i} m(e_i rho) reads them off the level below.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Iterable
from itertools import combinations
from typing import NamedTuple

from .partitions import (
    Box,
    Partition,
    _hook_grid,
    _is_regular,
    _transpose,
    check_ell,
    check_partition,
    partition_cache,
)
from .crystal import CLASSICAL, _live_word, apply_e, apply_f, reduced_word
from .jm import _is_jm

LOCKED_I = "I"
LOCKED_II = "II"
UNLOCKED = "unlocked"


class NotRegularError(ValueError):
    pass


class RegClass(NamedTuple):
    """All partitions sharing a regularization image."""

    representative: Partition  # the unique ell-regular member
    members: tuple[Partition, ...]


def _ladder_tally(lam: Partition, ell: int) -> list[int]:
    """Box count of every ladder, indexed by ladder (index 0 is unused)."""
    if not lam:
        return [0]
    step = ell - 1
    tally = [0] * (len(lam) + step * (lam[0] - 1) + 1)
    for row, part in enumerate(lam, start=1):
        for k in range(row, row + step * part, step):
            tally[k] += 1
    return tally


def ladder_counts(lam: Partition, ell: int) -> dict[int, int]:
    """Number of boxes of lam on each ladder (only nonzero counts), by ladder."""
    check_ell(ell)
    lam = check_partition(lam)
    return {k: count for k, count in enumerate(_ladder_tally(lam, ell)) if count}


def _assemble(lengths: list[int]) -> Partition:
    """Row box counts (index 0 unused) as a partition, less the empty rows at the end.

    The callers fill contiguous rows that form a partition by construction;
    the tests check that rather than each call.
    """
    depth = len(lengths) - 1
    while depth and not lengths[depth]:
        depth -= 1
    return tuple(lengths[1 : depth + 1])


@partition_cache
def regularize(lam: Partition, ell: int) -> Partition:
    """Slide the boxes of every ladder into that ladder's topmost positions."""
    check_ell(ell)
    return _regularize(lam, ell)


def _regularize(lam: Partition, ell: int) -> Partition:
    """regularize without the checks or the cache; the filled ladder tops form a partition (James)."""
    step = ell - 1
    tally = _ladder_tally(lam, ell)
    lengths = [0] * len(tally)
    for k, count in enumerate(tally):
        if not count:
            continue
        # ladder k's topmost position is in column top; fill columns top-count+1..top
        top = (k - 1) // step + 1
        for col in range(top - count + 1, top + 1):
            lengths[k - step * (col - 1)] += 1
    return _assemble(lengths)


def _blocking(lam: Partition, ell: int) -> list[int]:
    """blocked[k]: the leftmost column b whose first empty position (lam'_b + 1, b)
    lies on ladder k, or lam_1 + 1.  A box (r, c) on ladder k has its empty ladder
    positions below stacked under empty positions exactly when no column b < c
    blocks ladder k, that is when blocked[k] >= c.  O(len(lam) + lam_1).
    """
    step = ell - 1
    width = lam[0] if lam else 0
    blocked = [width + 1] * (len(lam) + step * width + 2)
    for b, col_length in enumerate(_transpose(lam), start=1):
        k = col_length + 1 + step * (b - 1)
        blocked[k] = min(blocked[k], b)
    return blocked


def _lock_prefixes(lam: Partition, blocked: list[int], ell: int) -> list[int]:
    """Each row's locked prefix: up to its rightmost type I box, a passing box under a locked one."""
    step = ell - 1
    prefixes = []
    bound = lam[0] if lam else 0
    for row, part in enumerate(lam, start=1):
        col = min(part, bound)
        k = row + step * (col - 1)
        while col and blocked[k] < col:
            col -= 1
            k -= step
        prefixes.append(col)
        bound = col
    return prefixes


def lock_labels(lam: Partition, ell: int) -> dict[Box, str]:
    """Label every box LOCKED_I, LOCKED_II or UNLOCKED.

    A box is type I when the box directly above is locked (or it sits in the
    first row) and every unoccupied position below it on its ladder has an
    unoccupied position directly above.  Boxes left of a locked box in the
    same row are locked too (type II when not already type I).  Locks only
    propagate downward and leftward, so the locked boxes of each row form a
    prefix, and each row's prefix follows from the one above in a single
    scan of the row: O(|lam|) in all.
    """
    check_ell(ell)
    lam = check_partition(lam)
    step = ell - 1
    blocked = _blocking(lam, ell)
    prefixes = _lock_prefixes(lam, blocked, ell)
    labels: dict[Box, str] = {}
    for row, (part, locked) in enumerate(zip(lam, prefixes), start=1):
        for col in range(1, part + 1):
            if col > locked:
                labels[(row, col)] = UNLOCKED
            elif blocked[row + step * (col - 1)] >= col:
                labels[(row, col)] = LOCKED_I
            else:
                labels[(row, col)] = LOCKED_II
    return labels


def _deregularize(lam: Partition, ell: int) -> Partition:
    step = ell - 1
    prefixes = _lock_prefixes(lam, _blocking(lam, ell), ell)
    size = len(lam) + step * (lam[0] - 1) + 1 if lam else 1
    loose = [0] * size
    lengths = [0] * size
    for row, (part, locked) in enumerate(zip(lam, prefixes), start=1):
        lengths[row] = locked
        for k in range(row + step * locked, row + step * part, step):
            loose[k] += 1
    depth = len(lam)
    for k, count in enumerate(loose):
        # walk ladder k upward from column 1, skipping locked positions
        row, col = k, 1
        while count:
            if row > depth or col > prefixes[row - 1]:
                lengths[row] += 1
                count -= 1
            row -= step
            col += 1
    return _assemble(lengths)


def deregularize(lam: Partition, ell: int) -> Partition:
    """Slide every unlocked box to the lowest free position on its ladder.

    The result keeps each ladder's box count, is itself a partition, and is
    fully locked (a ladder node), as the paper shows; the tests check those
    postconditions, so no call repeats them.  O(|lam|): each ladder is
    walked once from the bottom, past its locked positions, until its loose
    boxes are placed.
    """
    check_ell(ell)
    return _deregularize(check_partition(lam), ell)


def _class_members(tally: list[int], ell: int) -> list[Partition]:
    """Every partition with these ladder counts, built ladder by ladder.

    Column c (from 0) covers the consecutive ladders 1 + (ell-1)c, ...,
    (ell-1)c + lam'_c, so a member is a weakly decreasing sequence of
    column lengths whose ladder intervals add up to tally.  The walk visits
    ladders in order.  Column c can open only on ladder 1 + (ell-1)c (once
    that ladder is passed with c columns, no further column opens); then
    open columns close so that exactly tally[k] of them cover ladder k, and
    a column must close before it grows longer than a closed column to its
    left.  Every state is a prefix of ladders with exact counts.
    """
    step = ell - 1
    members: list[Partition] = []
    # (ladder, column lengths with None for an open column)
    stack: list[tuple[int, tuple]] = [(1, ())]
    while stack:
        k, cols = stack.pop()
        want = tally[k] if k < len(tally) else 0
        open_cols = [c for c, length in enumerate(cols) if length is None]
        # an open column c covering ladder k would have length k - step*c
        forced = [c for c in open_cols if c and cols[c - 1] is not None and k - step * c > cols[c - 1]]
        free = [c for c in open_cols if c not in forced]
        for opens in (True, False) if k == 1 + step * len(cols) else (False,):
            closing = len(open_cols) + opens - want
            if not len(forced) <= closing <= len(open_cols):
                continue
            for extra in combinations(free, closing - len(forced)):
                new = list(cols)
                for c in forced + list(extra):
                    new[c] = k - 1 - step * c
                if opens:
                    new.append(None)
                if k < len(tally):
                    stack.append((k + 1, tuple(new)))
                else:  # past the last ladder every column has closed; rows are the conjugate
                    members.append(_transpose(new))
    return members


def reg_class(lam: Partition, ell: int) -> RegClass:
    """Every partition of |lam| with the same regularization, smallest-lex first.

    Members are exactly the partitions with lam's ladder counts; they are
    built column by column while walking the ladders in order, keeping
    only ladder prefixes whose counts are exact, instead of scanning every
    partition of |lam|.  The representative R(lam) dominates the class, so
    it is the last member.
    """
    check_ell(ell)
    lam = check_partition(lam)
    members = tuple(sorted(_class_members(_ladder_tally(lam, ell), ell)))
    return RegClass(representative=members[-1], members=members)


def _is_ladder_node(lam: Partition, ell: int) -> bool:
    """Row by row from the top, a row is locked exactly when its last box passes the blocking test."""
    blocked = _blocking(lam, ell)
    return all(blocked[row + (ell - 1) * (part - 1)] >= part for row, part in enumerate(lam, start=1))


def is_ladder_node(lam: Partition, ell: int) -> bool:
    """True when every box is locked (equivalently, no box has hook length
    equal to ell times its arm).

    These are exactly the partitions fixed by deregularization, i.e. the
    nodes of the ladder crystal.  O(|lam|), from the locked prefixes.
    """
    check_ell(ell)
    return _is_ladder_node(check_partition(lam), ell)


def _is_L_partition(lam: Partition, ell: int) -> bool:
    for hooks, part in zip(_hook_grid(lam), lam):
        for col, h in enumerate(hooks, start=1):
            if not h % ell and h // ell <= min(part - col, h - 1 - part + col):  # arm, leg
                return False
    return True


def is_L_partition(lam: Partition, ell: int) -> bool:
    """No box has a divisible hook that is short relative to both arm and leg.

    A box (i, j) is disqualifying when ell divides its hook length h and
    h / ell <= min(arm, leg), equivalently when both arm < (ell-1) * leg
    and leg < (ell-1) * arm hold.
    """
    check_ell(ell, minimum=3)
    return _is_L_partition(check_partition(lam), ell)


def is_weak_ell_partition(lam: Partition, ell: int) -> bool:
    """An ell-regular partition whose deregularization is (ell,0)-JM.

    Raises NotRegularError on non-regular input; callers wanting a plain
    boolean over all partitions should pre-filter.
    """
    check_ell(ell, minimum=3)
    lam = check_partition(lam)
    if not _is_regular(lam, ell):
        raise NotRegularError(f"{lam} is not {ell}-regular")
    return _is_jm(_deregularize(lam, ell), ell)


def _mullineux_level(
    level: Iterable[Partition], below: dict[Partition, Partition], ell: int
) -> dict[Partition, Partition]:
    """Mullineux images of the ell-regular partitions *level*, all of one size n.

    *below* maps every ell-regular partition of size n - 1 to its image.
    m(rho) = f_{-i} m(e_i rho) for the smallest live residue i of rho, so
    each image costs one read of rho's words and one of its image's, and
    nothing is peeled below n - 1.  A sweep over n keeps two levels.
    """
    here = {}
    for rho in level:
        if not rho:
            here[rho] = rho
            continue
        i, word = _live_word(rho, ell)
        image = below[apply_e(rho, word)]
        image = apply_f(image, reduced_word(image, (-i) % ell, ell, CLASSICAL))
        assert image is not None, f"mullineux step stalled at {rho}"
        here[rho] = image
    return here


@functools.lru_cache(maxsize=None)
def _mullineux(lam: Partition, ell: int) -> Partition:
    peeled = []
    cur = lam
    while cur:
        i, word = _live_word(cur, ell)
        eps = len(word.minus)
        peeled.append((i, eps))
        cur = apply_e(cur, word, eps)
    image: Partition = ()
    for i, k in reversed(peeled):
        image = apply_f(image, reduced_word(image, (-i) % ell, ell, CLASSICAL), k)
        assert image is not None, f"mullineux replay stalled at {lam}"
    return image


def mullineux(lam: Partition, ell: int) -> Partition:
    """The Mullineux map, computed through the crystal recursion.

    The Mullineux map is the crystal involution that twists residues
    i -> -i (Ford-Kleshchev), so m(e_i^k lam) = e_{-i}^k m(lam) for every
    k <= epsilon_i(lam).  The image of lam is therefore f_{-i}^eps applied
    to the image of e_i^eps lam, where i is the smallest live residue and
    eps = epsilon_i(lam): any live residue and any string length would do,
    and taking the whole string costs the fewest steps.  It is computed
    without recursion: peel whole i-strings down to the empty partition
    (e_i^eps removes every minus box of one reduced word), then replay
    f_{-i}^eps from the empty partition upward (the last eps plus boxes of
    one reduced word).  Each string costs one signature read, not one per
    box.
    """
    check_ell(ell, minimum=3)
    lam = check_partition(lam)
    if not _is_regular(lam, ell):
        raise NotRegularError(f"{lam} is not {ell}-regular")
    if sum(lam) > sys.maxsize:  # the peel takes one step per string, so it would never end
        raise OverflowError(f"{lam} has more boxes than the index range holds")
    return _mullineux(lam, ell)
