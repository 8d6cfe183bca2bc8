"""Young diagram primitives: boxes, hooks, residues, ladders, dominance.

Partitions are tuples of weakly decreasing positive ints; () is the empty
partition.  Boxes are 1-based (row, col) pairs in English notation: row 1 is
the longest row, column 1 the longest column.
"""

from __future__ import annotations

import functools
import operator
from bisect import bisect_left
from collections.abc import Iterable, Iterator

Partition = tuple[int, ...]
Box = tuple[int, int]

EMPTY: Partition = ()

# dominance_compare results
LESS = "less"
EQUAL = "equal"
GREATER = "greater"
INCOMPARABLE = "incomparable"


class BoxNotInDiagramError(ValueError):
    pass


def check_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize a non-string iterable of ints (no floats or bools; trailing
    zeros dropped) or raise ValueError.

    A tuple of ints is used as it is (a copy per checked call raised peak
    memory in sweeps).  Public operators check every call, so valid parts
    cost two C-level passes: one over their types, and one sort, which
    finds a weakly decreasing tuple in a single run; once the parts
    decrease, the last decides positivity.
    """
    if type(parts) is tuple and operator.countOf(map(type, parts), int) == len(parts):
        lam = parts
    else:
        try:
            if isinstance(parts, str) or bool in map(type, parts := tuple(parts)):
                raise TypeError
            lam = tuple(map(operator.index, parts))
        except TypeError:
            raise ValueError(f"a partition is a sequence of integer parts, got {parts!r}") from None
    if lam and not lam[-1]:
        end = len(lam) - 1
        while end and lam[end - 1] == 0:
            end -= 1
        lam = lam[:end]  # one slice, so stripping is linear in the number of zeros
    if lam and (lam[-1] <= 0 or sorted(lam, reverse=True) != list(lam)):
        kind = "positive integers" if min(lam) <= 0 else "weakly decreasing"  # a non-positive part is named first
        raise ValueError(f"parts must be {kind}: {lam!r}")
    return lam


def partition_cache(fn):
    """An unbounded lru_cache on fn(lam, ...) that checks lam first.

    lam is checked and canonicalized (a list becomes a tuple, trailing zeros
    go) before the cache hashes it, so fn always gets a partition and needs
    no check of its own; fn stays reachable, uncached, as __wrapped__.  The
    cache is typed, so 2.0 and True never hit the entries of 2 and 1.
    Arguments may be passed by keyword.
    """
    cached = functools.lru_cache(maxsize=None, typed=True)(fn)

    @functools.wraps(fn)
    def call(lam, *args, **kwargs):
        return cached(check_partition(lam), *args, **kwargs)

    call.cache_info = cached.cache_info
    call.cache_clear = cached.cache_clear
    return call


def check_ell(ell: int, minimum: int = 2) -> int:
    if not isinstance(ell, int) or ell < minimum:
        raise ValueError(f"modulus must be an integer >= {minimum}, got {ell!r}")
    return ell


def _is_int(value) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_residue(i: int, ell: int) -> int:
    """i as a residue mod ell, after checking ell; a bool is not a residue."""
    check_ell(ell)
    if not _is_int(i) or not 0 <= i < ell:
        raise ValueError(f"residue must be an integer in 0..{ell - 1}, got {i!r}")
    return i


def check_count(name: str, value: int) -> int:
    """value as a non-negative count (a depth, a size bound, a weight); a bool is not one."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_box(box: Box) -> Box:
    """box as a (row, col) tuple of ints, whatever their range; a bool is not a coordinate."""
    try:
        row, col = box
    except (TypeError, ValueError):
        row = col = None
    if not (_is_int(row) and _is_int(col)):
        raise ValueError(f"a box is a (row, col) pair of integers, got {box!r}")
    return row, col


def size(lam: Partition) -> int:
    return sum(check_partition(lam))


def contains(lam: Partition, box: Box) -> bool:
    lam = check_partition(lam)
    row, col = check_box(box)
    return 1 <= row <= len(lam) and 1 <= col <= lam[row - 1]


def boxes(lam: Partition) -> Iterator[Box]:
    """All boxes of the diagram, row by row."""
    lam = check_partition(lam)
    return ((row, col) for row, part in enumerate(lam, start=1) for col in range(1, part + 1))


@partition_cache
def transpose(lam: Partition) -> Partition:
    """Column lengths, walking the shorter side of the diagram.

    With more rows than columns, column c has len(lam) - #{parts < c}
    boxes, found by bisection of the ascending parts: one step per column.
    Otherwise row i ends columns lam_{i+1} + 1 .. lam_i (zero rows none):
    one step per row.  So min(len(lam), lam_1) Python steps, plus
    C-level list work of O(lam_1) or one O(log len(lam)) bisection per column.
    """
    depth = len(lam)
    if lam and depth > lam[0]:
        ascending = lam[::-1]
        return tuple([depth - bisect_left(ascending, c) for c in range(1, lam[0] + 1)])
    cols: list[int] = []
    for i in range(depth, 0, -1):
        cols += [i] * (lam[i - 1] - len(cols))
    return tuple(cols)


# The body of a cached function, unchecked and uncached, is what library code calls.
_transpose = transpose.__wrapped__


def _require_box(lam: Partition, box: Box) -> tuple[Partition, Box]:
    """lam and box, checked, once box is known to lie in lam's diagram."""
    lam, box = check_partition(lam), check_box(box)
    if not contains(lam, box):
        raise BoxNotInDiagramError(f"box {box} not in diagram of {lam}")
    return lam, box


def arm(lam: Partition, box: Box) -> int:
    """Number of boxes strictly to the right of *box* in its row."""
    lam, (row, col) = _require_box(lam, box)
    return lam[row - 1] - col


def leg(lam: Partition, box: Box) -> int:
    """Number of boxes strictly below *box* in its column."""
    lam, (row, col) = _require_box(lam, box)
    return _transpose(lam)[col - 1] - row


def hook_length(lam: Partition, box: Box) -> int:
    lam, (row, col) = _require_box(lam, box)
    return (lam[row - 1] - col) + (_transpose(lam)[col - 1] - row) + 1


@partition_cache
def hook_grid(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """Hook lengths of every box, as rows: box (i, j + 1) has hook lam'_{j+1} - (i - lam_i + j)."""
    cols = _transpose(lam)
    return tuple(tuple(map(operator.sub, cols, range(i - part, i))) for i, part in enumerate(lam, start=1))


_hook_grid = hook_grid.__wrapped__


def residue(box: Box, ell: int) -> int:
    """(col - row) mod ell, normalized to 0..ell-1."""
    check_ell(ell)
    row, col = check_box(box)
    return (col - row) % ell


def ladder_index(box: Box, ell: int) -> int:
    """Index of the ladder through *box*: row + (ell-1)(col-1).

    The ladder with index k meets column 1 at (k, 1); all its positions share
    the residue (1 - k) mod ell.
    """
    check_ell(ell)
    row, col = check_box(box)
    return row + (ell - 1) * (col - 1)


def ladder_positions(k: int, ell: int) -> list[Box]:
    """Positions of ladder k in the first quadrant, topmost (smallest row) first."""
    check_ell(ell)
    if not _is_int(k) or k < 1:
        raise ValueError(f"ladder index must be a positive integer, got {k!r}")
    top_col = (k - 1) // (ell - 1) + 1
    return [(k - (ell - 1) * (b - 1), b) for b in range(top_col, 0, -1)]


def is_regular(lam: Partition, ell: int) -> bool:
    """True when no part value repeats ell or more times."""
    check_ell(ell)
    return _is_regular(check_partition(lam), ell)


def _is_regular(lam: Partition, ell: int) -> bool:
    run = 1
    for k in range(1, len(lam)):
        run = run + 1 if lam[k] == lam[k - 1] else 1
        if run >= ell:
            return False
    return True


def addable_corners(lam: Partition) -> list[Box]:
    """Positions where a box can be added leaving a partition, top row first."""
    lam = check_partition(lam)
    out = []
    for row in range(1, len(lam) + 1):
        if row == 1 or lam[row - 2] > lam[row - 1]:
            out.append((row, lam[row - 1] + 1))
    out.append((len(lam) + 1, 1))
    return out


def removable_corners(lam: Partition) -> list[Box]:
    """Positions where a box can be removed leaving a partition, top row first."""
    lam = check_partition(lam)
    out = []
    for row in range(1, len(lam) + 1):
        if row == len(lam) or lam[row] < lam[row - 1]:
            out.append((row, lam[row - 1]))
    return out


def addable_boxes(lam: Partition, i: int, ell: int) -> list[Box]:
    """Addable boxes of residue i, ordered top row first."""
    check_residue(i, ell)
    return [(r, c) for r, c in addable_corners(lam) if (c - r) % ell == i]


def removable_boxes(lam: Partition, i: int, ell: int) -> list[Box]:
    """Removable boxes of residue i, ordered top row first."""
    check_residue(i, ell)
    return [(r, c) for r, c in removable_corners(lam) if (c - r) % ell == i]


def add_box(lam: Partition, box: Box) -> Partition:
    lam, (row, col) = check_partition(lam), check_box(box)
    if (row, col) not in addable_corners(lam):
        raise ValueError(f"box {box} is not addable to {lam}")
    if row == len(lam) + 1:
        return lam + (1,)
    return lam[: row - 1] + (lam[row - 1] + 1,) + lam[row:]


def remove_box(lam: Partition, box: Box) -> Partition:
    lam, (row, col) = check_partition(lam), check_box(box)
    if (row, col) not in removable_corners(lam):
        raise ValueError(f"box {box} is not removable from {lam}")
    if lam[row - 1] == 1:
        return lam[: row - 1]
    return lam[: row - 1] + (lam[row - 1] - 1,) + lam[row:]


def dominance_compare(lam: Partition, mu: Partition) -> str:
    """Compare in dominance order; partitions of unequal size are incomparable."""
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        return INCOMPARABLE
    if lam == mu:
        return EQUAL
    width = max(len(lam), len(mu))
    seen_le = seen_ge = True
    acc_l = acc_m = 0
    for k in range(width):
        acc_l += lam[k] if k < len(lam) else 0
        acc_m += mu[k] if k < len(mu) else 0
        if acc_l < acc_m:
            seen_ge = False
        elif acc_l > acc_m:
            seen_le = False
    if seen_le and not seen_ge:
        return LESS
    if seen_ge and not seen_le:
        return GREATER
    return INCOMPARABLE


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n with parts at most max_part, reverse-lex, from a stack: no recursion."""
    stack = [((), n, n if max_part is None else max_part)] if n >= 0 else []
    while stack:
        prefix, rest, cap = stack.pop()
        if not rest:
            yield prefix
        for part in range(1, min(cap, rest) + 1):
            stack.append((prefix + (part,), rest - part, part))


def _children(level: Iterable[Partition], max_rows: int | None = None) -> Iterator[tuple[Partition, Partition, Box]]:
    """(parent, child, added box) for each partition one box larger than one of *level*,
    with at most max_rows rows.  A partition's parent is itself less the last box of its
    last row, so all those of n in partitions_of order give those of n + 1 in order."""
    for mu in level:
        depth = len(mu)
        if depth and (depth == 1 or mu[-2] > mu[-1]):
            yield mu, mu[:-1] + (mu[-1] + 1,), (depth, mu[-1] + 1)
        if max_rows is None or depth < max_rows:
            yield mu, mu + (1,), (depth + 1, 1)


@functools.lru_cache(maxsize=None)
def all_partitions(n: int) -> tuple[Partition, ...]:
    return tuple(partitions_of(n))
