"""Regularization, locked boxes, deregularization, and the Mullineux map.

Regularization slides the boxes of each ladder to the top of that ladder,
producing the unique ell-regular partition in the same ladder class.
Deregularization is the opposite extreme: boxes that are not locked in place
slide to the bottom of their ladders, producing the dominance-least member of
the class.  Fixed points of deregularization are exactly the partitions that
appear as nodes of the ladder crystal.

Everything here is integer arithmetic on ladders: row r meets ladders
r, r + (ell-1), ..., r + (ell-1)(lam_r - 1).  The rows of one class mod
ell - 1 meet only the ladders whose top positions lie on those rows, so
ladder counts and regularization work one row class at a time: one list of
end markers per class, summed by accumulate, and one bisection per row for
the slide.  That is O(len(lam)) Python steps plus C-level sums over the
ladders, not a step per box.  R is fixed by the ladder counts alone
(James), so R(lam + box) is R(lam) plus a box at the first empty position
of the box's ladder, and R(lam - box) is R(lam) less the last box of that
ladder.  One walk down the ladder from its top finds both (_ladder_end):
both sweeps step R up so from R(()) = (), and verify_isomorphism compares
the box the walk finds with the classical operator's.

The locked boxes of every row form a prefix 1..R_r (type I boxes and
everything left of the rightmost one), and R_r follows from R_{r-1} and the
columns whose first empty position lies on each ladder.  That table of
columns takes one strided slice write per row, O(len(lam)) writes and no
transpose: the columns a row ends all have the same length.  Lock labels
cost O(|lam|); deregularization makes one pass over the rows, counting
their unlocked boxes per ladder (a ladder node has none, and no count list
is made for it), and walks up only the ladders that hold one, with no lock
test below the last row of lam, where every position is free.  Each
column covers consecutive ladders, so a regularization class is built
column by column while walking the ladders in order, instead of scanning
every partition of |lam|; the walk skips the ladders where no column can
open or must close and the count does not change.

The Mullineux map is read off Mullineux's symbol: peel ell-rims down to the
empty partition, map each column (a; r) to (a; a - r + eps), and add the
rims back from the innermost column, each in O(len(lam)) on one mutable
list of rows, with no crystal signature read.  Ford-Kleshchev proved that
this is the crystal involution twisting residues i -> -i.  The public
mullineux caches its answers; a sweep calls the uncached _mullineux_symbol.
"""

from __future__ import annotations

import functools
import sys
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate, combinations, compress

from .partitions import (
    Box,
    Partition,
    _is_regular,
    _transpose,
    check_ell,
    check_partition,
    partition_cache,
)
from .jm import _is_jm
from .rimhooks import _beads

LOCKED_I = "I"
LOCKED_II = "II"
UNLOCKED = "unlocked"


class NotRegularError(ValueError):
    pass


class RegClass(namedtuple("RegClass", "representative members")):
    """All partitions sharing a regularization image: representative
    (Partition), the unique ell-regular member, and members
    (tuple[Partition, ...])."""

    __slots__ = ()


def _class_ladders(lam: Partition, ell: int) -> list[list[int]]:
    """The box counts of each row class's ladders, for the classes c = 1 .. min(ell-1, len(lam)).

    Rows c, c + s, c + 2s, ... (s = ell - 1) meet only the ladders c,
    c + s, c + 2s, ..., and those ladders have their top positions on those
    rows.  With mu = lam[c-1::s], class ladder t (ladder c + st) holds one
    box of class row j (row c + sj) when j <= t < j + mu_j, so one list of
    end markers, summed by accumulate, counts them all.  Entry t of class
    c's list is class ladder t's count, for the len(mu) + lam_1 - 1 class
    ladders that _ladder_tally indexes.  O(len(lam)) Python steps.
    """
    step = ell - 1
    width = lam[0] if lam else 0
    classes = []
    for c in range(min(step, len(lam))):
        mu = lam[c::step]
        marks = [1] * len(mu) + [0] * width
        for j, part in enumerate(mu):
            marks[j + part] -= 1  # row j's boxes end before class ladder j + mu_j
        marks.pop()  # past the last class ladder, where the count is 0
        classes.append(list(accumulate(marks)))
    return classes


def _ladder_tally(lam: Partition, ell: int) -> list[int]:
    """Box count of every ladder, indexed by ladder (index 0 is unused)."""
    if not lam:
        return [0]
    step = ell - 1
    tally = [0] * (len(lam) + step * (lam[0] - 1) + 1)
    for c, counts in enumerate(_class_ladders(lam, ell), start=1):
        tally[c::step] = counts
    return tally


def ladder_counts(lam: Partition, ell: int) -> dict[int, int]:
    """Number of boxes of lam on each ladder (only nonzero counts), by ladder."""
    check_ell(ell)
    lam = check_partition(lam)
    return {k: count for k, count in enumerate(_ladder_tally(lam, ell)) if count}


@partition_cache
def regularize(lam: Partition, ell: int) -> Partition:
    """Slide the boxes of every ladder into that ladder's topmost positions."""
    check_ell(ell)
    return _regularize(lam, ell)


def _regularize(lam: Partition, ell: int) -> Partition:
    """regularize without the checks or the cache; the filled ladder tops form a partition (James).

    A class ladder's top positions lie on class rows 0, 1, ..., so after the
    slide class row j holds one box for each class ladder with more than j
    boxes: the class's rows are the conjugate of its sorted ladder counts,
    read by bisection; the rows left empty come last.
    """
    step, depth = ell - 1, len(lam)
    lengths = [0] * (depth + 1)  # by row from 1
    for c, counts in enumerate(_class_ladders(lam, ell), start=1):
        counts.sort()
        held = len(counts)  # class row j gets held - #{counts <= j} boxes
        lengths[c::step] = [held - bisect_right(counts, j) for j in range((depth - c) // step + 1)]
    while depth and not lengths[depth]:
        depth -= 1
    return tuple(lengths[1 : depth + 1])


def _ladder_end(rho: Partition, box: Box, ell: int) -> Box:
    """The first empty position of box's ladder in rho = R(lam), for a box
    addable to or removable from lam.

    rho fills each ladder from its top, so the walk starts there, on row
    (row - 1) mod (ell-1) + 1, (row - 1) // (ell-1) columns right of the
    box, and goes ell - 1 rows down and one column left at a time:
    O(boxes of rho on it) steps.  It stops by the ladder's foot, since a
    removable box of lam leaves the next ladder down unfilled below it.
    """
    step = ell - 1
    up, row = divmod(box[0] - 1, step)
    row, col = row + 1, box[1] + up
    depth = len(rho)
    while row <= depth and rho[row - 1] >= col:
        row += step
        col -= 1
    return row, col


def _add_at(rho: Partition, end: Box) -> Partition:
    """rho with one box more at end: an addable box, such as the first empty position of a ladder (_ladder_end)."""
    row, col = end
    return rho[: row - 1] + (col,) + rho[row:]


def _add_to_ladder(rho: Partition, box: Box, ell: int) -> Partition:
    """R(lam + box) from rho = R(lam): one box more at the first empty position of the box's ladder."""
    return _add_at(rho, _ladder_end(rho, box, ell))


def _remove_from_ladder(rho: Partition, box: Box, ell: int) -> Partition:
    """R(lam - box) from rho = R(lam): rho less the last box of the box's ladder, which ends its row."""
    row, col = _ladder_end(rho, box, ell)
    row -= ell - 1  # the last box is (row, col + 1)
    return rho[: row - 1] + ((col,) if col else ()) + rho[row:]


def _blocking(lam: Partition, ell: int) -> list[int]:
    """blocked[k]: the leftmost column b whose first empty position (lam'_b + 1, b)
    lies on ladder k, or lam_1 + 1.  A box (r, c) on ladder k has its empty ladder
    positions below stacked under empty positions exactly when no column b < c
    blocks ladder k, that is when blocked[k] >= c.

    The columns lam_{r+1} + 1 .. lam_r have length r, so their first empty
    positions lie on the ladders r + 1 + (ell-1) lam_{r+1}, ... in steps of
    ell - 1: one strided slice write per row, of a slice of one list of
    column numbers, with no transpose.  The rows go from the top down, so a
    ladder's leftmost column is written last.  O(len(lam) + lam_1).
    """
    step = ell - 1
    width = lam[0] if lam else 0
    blocked = [width + 1] * (len(lam) + step * width + 2)
    columns = [*range(width + 1)]  # a list slice writes faster than a range
    part, row = width, 1
    for below in (*lam[1:], 0):
        row += 1  # the row of part below
        if below != part:
            k = row + step * below
            blocked[k : k + step * (part - below) : step] = columns[below + 1 : part + 1]
            part = below
    return blocked


def lock_labels(lam: Partition, ell: int) -> dict[Box, str]:
    """Label every box LOCKED_I, LOCKED_II or UNLOCKED.

    A box is type I when the box directly above is locked (or it sits in the
    first row) and every unoccupied position below it on its ladder has an
    unoccupied position directly above.  Boxes left of a locked box in the
    same row are locked too (type II when not already type I).  Locks only
    propagate downward and leftward, so the locked boxes of each row form a
    prefix, up to its rightmost type I box, and each row's prefix follows
    from the one above in a single scan of the row: O(|lam|) in all.
    """
    check_ell(ell)
    lam = check_partition(lam)
    step = ell - 1
    blocked = _blocking(lam, ell)
    labels: dict[Box, str] = {}
    locked = lam[0] if lam else 0
    for row, part in enumerate(lam, start=1):
        locked = min(part, locked)
        while locked and blocked[row + step * (locked - 1)] < locked:
            locked -= 1
        for col in range(1, locked + 1):
            labels[(row, col)] = LOCKED_I if blocked[row + step * (col - 1)] >= col else LOCKED_II
        for col in range(locked + 1, part + 1):
            labels[(row, col)] = UNLOCKED
    return labels


def _deregularize(lam: Partition, ell: int) -> Partition:
    step = ell - 1
    blocked = _blocking(lam, ell)
    locked = [0]  # by row from 1, the locked prefix
    loose = None  # by ladder, the unlocked boxes; made at the first one
    prefix = lam[0] if lam else 0
    row = 0
    for part in lam:
        row += 1
        if part < prefix:
            prefix = part
        while blocked[row + step * (prefix - 1)] < prefix:  # never below 1: blocked[row] >= 1
            prefix -= 1
        locked.append(prefix)
        if prefix < part:  # the row's unlocked boxes, one per ladder
            if loose is None:
                loose = [0] * (len(lam) + step * (lam[0] - 1) + 1)
            for k in range(row + step * prefix, row + step * part, step):
                loose[k] += 1
    if loose is None:
        return lam  # a ladder node: every box is locked
    depth = len(lam)
    lengths = locked + [0] * (len(loose) - depth - 1)
    for k in compress(range(len(loose)), loose):  # walk ladder k up from column 1
        count, row = loose[k], k
        while row > depth:  # below lam every position is free
            lengths[row] += 1
            count -= 1
            if not count:
                break
            row -= step
        else:  # the rest go past the locked prefixes of lam's rows
            col = (k - row) // step + 1
            while count:
                if col > locked[row]:
                    lengths[row] += 1
                    count -= 1
                row -= step
                col += 1
    return tuple(lengths[1 : max(depth, k) + 1])  # the last ladder walked put a box on row k


def deregularize(lam: Partition, ell: int) -> Partition:
    """Slide every unlocked box to the lowest free position on its ladder.

    The result keeps each ladder's box count, is itself a partition, and is
    fully locked (a ladder node), as the paper shows; the tests check those
    postconditions, so no call repeats them.  One pass over the rows finds
    the locked prefixes and counts the unlocked boxes per ladder (a ladder
    node has none and comes back as it is); then each ladder holding some is
    walked once from the bottom, with no lock test on the rows below lam,
    and past the locked positions above: O(|lam|) at most.  Box (r, 1) is
    always locked, so the result keeps lam's rows and adds one for each
    ladder below them that holds a box.  On small inputs the fixed cost
    dominates: about 5 microseconds a call on the 3-regular partitions of
    up to 20 boxes (2-core VM, Python 3.11).
    """
    check_ell(ell)
    return _deregularize(check_partition(lam), ell)


def _class_members(tally: list[int], ell: int) -> list[Partition]:
    """Every partition with these ladder counts, built ladder by ladder.

    Column c (from 0) covers the consecutive ladders 1 + (ell-1)c, ..., e_c,
    so a member is a weakly decreasing sequence of column lengths
    e_c - (ell-1)c whose ladder intervals add up to tally.  The walk visits
    ladders in order.  Column c can open only on ladder 1 + (ell-1)c (once
    that ladder is passed with c columns, no further column opens); then
    open columns close so that exactly tally[k] of them cover ladder k, and
    a column must close before it grows longer than a closed column to its
    left, so by ladder e + ell when that one ended on ladder e.  Every state
    is a prefix of ladders with exact counts, and it moves straight on to
    the next ladder where a column can open or must close or the count
    changes: on the ladders between, the open columns just grow.  A state
    holds its open columns and shares the list of closed ones with its
    parent, so it costs O(open columns), not O(columns): a single row of N
    boxes, 2N states, takes O(N).
    """
    step = ell - 1
    size = len(tally)
    while size > 1 and not tally[size - 1]:
        size -= 1
    change = [size] * size  # change[k]: the first ladder after k with another count
    for k in range(size - 2, 0, -1):
        change[k] = k + 1 if tally[k + 1] != tally[k] else change[k + 1]
    never = size + ell  # past every ladder
    members: list[Partition] = []
    # (ladder, columns opened, open columns as (column, due), due of the next
    # column to open, closed columns as ((column, last ladder), rest)): a
    # column is due to close ell ladders past the end of its left neighbour
    stack: list[tuple] = [(1, 0, (), never, ())]
    while stack:
        k, columns, open_cols, next_due, closed = stack.pop()
        forced = [c for c, due in open_cols if due <= k]
        free = [c for c, due in open_cols if due > k]
        spare = len(open_cols) - (tally[k] if k < size else 0)
        for opens in (1, 0) if k == 1 + step * columns else (0,):
            closing = spare + opens - len(forced)
            if not 0 <= closing <= len(free):
                continue
            for extra in combinations(free, closing):
                shut = {*forced, *extra}
                ends = closed
                for c in shut:
                    ends = ((c, k - 1), ends)
                due = k - 1 + ell  # of a column whose left neighbour ends on ladder k - 1
                still = tuple((c, due if c - 1 in shut else d) for c, d in open_cols if c not in shut)
                after_next = due if columns - 1 in shut else next_due
                if opens:
                    still += ((columns, after_next),)
                    after_next = never
                if k == size:  # past the last ladder every column has closed; rows are the conjugate
                    lengths = [0] * columns
                    while ends:
                        (c, end), ends = ends
                        lengths[c] = end - step * c
                    members.append(_transpose(lengths))
                    continue
                after = change[k]
                opening = 1 + step * (columns + opens)
                if k < opening < after:
                    after = opening
                for _, d in still:
                    if d < after:
                        after = d
                stack.append((after, columns + opens, still, after_next, ends))
    return members


def reg_class(lam: Partition, ell: int) -> RegClass:
    """Every partition of |lam| with the same regularization, smallest-lex first.

    Members are exactly the partitions with lam's ladder counts; they are
    built column by column while walking the ladders in order, keeping
    only ladder prefixes whose counts are exact, instead of scanning every
    partition of |lam| (see _class_members).  A state stops only on the
    ladders where a column can open or must close or the count changes, so
    a class takes a few states per member: 353 for the 24 members of four
    random partitions of 30 at ell = 3.  The representative R(lam)
    dominates the class, so it is the last member.
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
    """One ascending pass over lam's beads (rimhooks._beads).

    A box is a gap g below a bead b; ell divides its hook b - g exactly
    when g and b share a runner, its leg is the number of beads between
    them and its arm the number of gaps.  So each gap is recorded on its
    runner with its count of beads below, and each bead is tested against
    the recorded gaps of its runner.  A disqualifying box has
    (b - g) / ell <= leg < len(lam), so gaps farther than *reach* below a
    bead are neither recorded nor tested: a long row costs no more than a
    short one.  When ell exceeds every hook length, lam_1 + len(lam) - 1 at
    most, no hook is divisible and nothing is read.
    """
    if not lam or ell >= lam[0] + len(lam):
        return True
    reach = ell * len(lam)
    gaps: list[list[tuple[int, int]]] = [[] for _ in range(ell)]  # (gap, beads below it), ascending
    start = 0  # the lowest position not yet read
    for count, bead in enumerate(_beads(lam, ell)):
        for g in range(max(start, bead - reach), bead):
            gaps[g % ell].append((g, count))
        start = bead + 1
        for g, below in reversed(gaps[bead % ell]):
            if bead - g > reach:
                break
            q, leg = (bead - g) // ell, count - below
            if q <= leg and q <= bead - g - 1 - leg:  # leg, arm
                return False
    return True


def is_L_partition(lam: Partition, ell: int) -> bool:
    """No box has a divisible hook that is short relative to both arm and leg.

    A box (i, j) is disqualifying when ell divides its hook length h and
    h / ell <= min(arm, leg), equivalently when both arm < (ell-1) * leg
    and leg < (ell-1) * arm hold.

    Decided on James's abacus, with no hook grid: a box with a divisible
    hook is a gap and a bead on one runner, and in a disqualifying box they
    lie less than ell * len(lam) positions apart.  One pass over the beads
    costs O(len(lam) + ell + lam_1 + w) for weight w, and never more than
    O(ell * (len(lam) + ell)^2) however long the rows: a row of 10**18 - 1
    boxes is answered as fast as a short one.
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


def _peel_rims(lam: Partition, ell: int) -> list[tuple[int, int]]:
    """Mullineux's symbol: peel ell-rims (Mullineux 1979) until lam is empty,
    recording each rim's size a and the row count r before the peel.

    The rim walk, south-west from (1, lam_1), enters each row at its last
    box and takes boxes leftward down to the column of the row below (to
    column 1 on the last row).  A segment of ell boxes that ends inside a
    row starts the next segment at the end of the row below, exactly where
    the walk would have gone, so only the segment count restarts.  Every
    rim is peeled in place from one list of rows, O(len(lam)) per column.
    """
    rows = list(lam)
    symbol = []
    while rows:
        depth = len(rows)
        size = 0
        left = ell  # boxes left in the current segment
        part = rows[0]
        for row in range(1, depth):
            below = rows[row]
            take = left if part - below >= left else part - below + 1
            rows[row - 1] = part - take
            size += take
            left = left - take or ell
            part = below
        take = left if part > left else part
        rows[-1] = part - take
        size += take
        while rows and not rows[-1]:
            rows.pop()
        symbol.append((size, depth))
    return symbol


def _add_rims(symbol: list[tuple[int, int]], ell: int) -> Partition:
    """The partition with this Mullineux symbol: its ell-rims added back
    from the innermost column (a; r), one rim of a boxes ending on row r at
    a time, on one list of rows.

    A rim's ceil(a / ell) segments are laid from the bottom up: all have
    ell boxes but the last, and the last ends on row r.  A segment of k
    boxes over rows u..e gets lam_u = c + u, with c = k - e + mu_e, and
    lam_i = mu_{i-1} + 1 below it (so it has k boxes); u is the row with
    mu_{u-1} - (u-1) >= c > mu_u - u (or 1).  mu_i - i strictly decreases,
    so u is found, and the rows below it shifted, in one walk up from e, and
    the next segment ends on row u - 1.  The walk only moves up: O(r) per
    column.
    """
    rows: list[int] = []
    for a, r in reversed(symbol):
        if r > len(rows):
            rows += [0] * (r - len(rows))
        e = r - 1  # rows are 0-based here: rows[e] is row e + 1
        k = (a - 1) % ell + 1
        while a:
            c = k - e - 1 + rows[e]
            u = e
            while u and rows[u - 1] - u < c:
                rows[u] = rows[u - 1] + 1
                u -= 1
            rows[u] = c + u + 1
            a -= k
            e, k = u - 1, ell
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def _mullineux(lam: Partition, ell: int) -> Partition:
    return _add_rims([(a, a - r + (1 if a % ell else 0)) for a, r in _peel_rims(lam, ell)], ell)


# The uncached body, for sweeps that compute each image once.
_mullineux_symbol = _mullineux.__wrapped__


def mullineux(lam: Partition, ell: int) -> Partition:
    """The Mullineux map, computed from Mullineux's symbol.

    Peeling ell-rims until lam is empty gives the symbol's columns (a; r):
    the rim's size and lam's row count at each peel.  The map sends each
    column to (a; a - r + eps), eps = 0 when ell divides a and 1 otherwise
    (Mullineux 1979; Bessenrodt-Olsson 1998), and the image is rebuilt from
    the innermost column outwards, one rim at a time.  Ford-Kleshchev proved
    that this is the crystal involution twisting residues i -> -i; the tests
    check it against that crystal map.

    Each column, peeled or rebuilt, costs O(len(lam)), so a call costs the
    sum over the symbol's columns of the row count.  A single row of N boxes
    has ceil(N / ell) columns, so it costs O(N / ell) steps although it is
    one row: a row near sys.maxsize does not return in practice.
    """
    check_ell(ell, minimum=3)
    lam = check_partition(lam)
    if not _is_regular(lam, ell):
        raise NotRegularError(f"{lam} is not {ell}-regular")
    if sum(lam) > sys.maxsize:  # the peel takes one step per ell-rim, so it would never end
        raise OverflowError(f"{lam} has more boxes than the index range holds")
    return _mullineux(lam, ell)
