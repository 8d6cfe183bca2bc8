"""Young diagram primitives: boxes, hooks, residues, ladders, dominance.

Partitions are tuples of weakly decreasing positive ints; () is the empty
partition.  Boxes are 1-based (row, col) pairs in English notation: row 1 is
the longest row, column 1 the longest column.
"""

from __future__ import annotations

import functools
import operator
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
    """Canonicalize a part sequence (trailing zeros dropped) or raise ValueError.

    A tuple of ints is used as it is (a copy per checked call raised peak
    memory in sweeps), and both checks are C-level passes, since the public
    operators check every call.
    """
    if type(parts) is tuple and set(map(type, parts)) <= {int}:
        lam = parts
    else:
        lam = tuple(int(p) for p in parts)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    if lam and min(lam) <= 0:
        raise ValueError(f"parts must be positive integers: {lam!r}")
    if not all(map(operator.ge, lam, lam[1:])):
        raise ValueError(f"parts must be weakly decreasing: {lam!r}")
    return lam


def partition_cache(fn):
    """An unbounded lru_cache on fn(lam, ...) that also takes lists.

    A tuple goes straight to the cache, so a hit costs no check; fn must
    check lam itself, which then runs only on a miss.  Anything else is
    checked (and made a tuple) before the cache hashes it.  Arguments may
    be passed by keyword, lam included, as to fn itself.
    """
    cached = functools.lru_cache(maxsize=None)(fn)

    @functools.wraps(fn)
    def call(lam, *args, **kwargs):
        if type(lam) is not tuple:
            lam = check_partition(lam)
        return cached(lam, *args, **kwargs)

    call.cache_info = cached.cache_info
    call.cache_clear = cached.cache_clear
    return call


def check_ell(ell: int, minimum: int = 2) -> int:
    if not isinstance(ell, int) or ell < minimum:
        raise ValueError(f"modulus must be an integer >= {minimum}, got {ell!r}")
    return ell


def size(lam: Partition) -> int:
    return sum(lam)


def contains(lam: Partition, box: Box) -> bool:
    row, col = box
    return 1 <= row <= len(lam) and 1 <= col <= lam[row - 1]


def boxes(lam: Partition) -> Iterator[Box]:
    """All boxes of the diagram, row by row."""
    for row, part in enumerate(lam, start=1):
        for col in range(1, part + 1):
            yield (row, col)


@functools.lru_cache(maxsize=None)
def transpose(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= c) for c in range(1, lam[0] + 1))


def _require_box(lam: Partition, box: Box) -> None:
    if not contains(lam, box):
        raise BoxNotInDiagramError(f"box {box} not in diagram of {lam}")


def arm(lam: Partition, box: Box) -> int:
    """Number of boxes strictly to the right of *box* in its row."""
    _require_box(lam, box)
    return lam[box[0] - 1] - box[1]


def leg(lam: Partition, box: Box) -> int:
    """Number of boxes strictly below *box* in its column."""
    _require_box(lam, box)
    return transpose(lam)[box[1] - 1] - box[0]


def hook_length(lam: Partition, box: Box) -> int:
    _require_box(lam, box)
    row, col = box
    return (lam[row - 1] - col) + (transpose(lam)[col - 1] - row) + 1


@functools.lru_cache(maxsize=None)
def hook_grid(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """Hook lengths of every box, as a tuple of rows."""
    cols = transpose(lam)
    return tuple(
        tuple(lam[i] - (j + 1) + cols[j] - (i + 1) + 1 for j in range(lam[i]))
        for i in range(len(lam))
    )


def residue(box: Box, ell: int) -> int:
    """(col - row) mod ell, normalized to 0..ell-1."""
    check_ell(ell)
    row, col = box
    return (col - row) % ell


def ladder_index(box: Box, ell: int) -> int:
    """Index of the ladder through *box*: row + (ell-1)(col-1).

    The ladder with index k meets column 1 at (k, 1); all its positions share
    the residue (1 - k) mod ell.
    """
    check_ell(ell)
    row, col = box
    return row + (ell - 1) * (col - 1)


def ladder_positions(k: int, ell: int) -> list[Box]:
    """Positions of ladder k in the first quadrant, topmost (smallest row) first."""
    check_ell(ell)
    if k < 1:
        raise ValueError(f"ladder index must be positive, got {k}")
    top_col = (k - 1) // (ell - 1) + 1
    return [(k - (ell - 1) * (b - 1), b) for b in range(top_col, 0, -1)]


def is_regular(lam: Partition, ell: int) -> bool:
    """True when no part value repeats ell or more times."""
    check_ell(ell)
    run = 1
    for k in range(1, len(lam)):
        run = run + 1 if lam[k] == lam[k - 1] else 1
        if run >= ell:
            return False
    return True


def addable_corners(lam: Partition) -> list[Box]:
    """Positions where a box can be added leaving a partition, top row first."""
    out = []
    for row in range(1, len(lam) + 1):
        if row == 1 or lam[row - 2] > lam[row - 1]:
            out.append((row, lam[row - 1] + 1))
    out.append((len(lam) + 1, 1))
    return out


def removable_corners(lam: Partition) -> list[Box]:
    """Positions where a box can be removed leaving a partition, top row first."""
    out = []
    for row in range(1, len(lam) + 1):
        if row == len(lam) or lam[row] < lam[row - 1]:
            out.append((row, lam[row - 1]))
    return out


def addable_boxes(lam: Partition, i: int, ell: int) -> list[Box]:
    """Addable boxes of residue i, ordered top row first."""
    _check_residue(i, ell)
    return [b for b in addable_corners(lam) if residue(b, ell) == i]


def removable_boxes(lam: Partition, i: int, ell: int) -> list[Box]:
    """Removable boxes of residue i, ordered top row first."""
    _check_residue(i, ell)
    return [b for b in removable_corners(lam) if residue(b, ell) == i]


def _check_residue(i: int, ell: int) -> None:
    check_ell(ell)
    if not 0 <= i < ell:
        raise ValueError(f"residue must lie in 0..{ell - 1}, got {i}")


def add_box(lam: Partition, box: Box) -> Partition:
    row, col = box
    if box not in addable_corners(lam):
        raise ValueError(f"box {box} is not addable to {lam}")
    if row == len(lam) + 1:
        return lam + (1,)
    return lam[: row - 1] + (lam[row - 1] + 1,) + lam[row:]


def remove_box(lam: Partition, box: Box) -> Partition:
    row, col = box
    if box not in removable_corners(lam):
        raise ValueError(f"box {box} is not removable from {lam}")
    if lam[row - 1] == 1:
        return lam[: row - 1]
    return lam[: row - 1] + (lam[row - 1] - 1,) + lam[row:]


def dominance_compare(lam: Partition, mu: Partition) -> str:
    """Compare in dominance order; partitions of unequal size are incomparable."""
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
    """Generate all partitions of n with parts bounded by max_part."""
    if n < 0:
        return
    cap = n if max_part is None else min(max_part, n)
    if n == 0:
        yield ()
        return
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


@functools.lru_cache(maxsize=None)
def all_partitions(n: int) -> tuple[Partition, ...]:
    return tuple(partitions_of(n))
