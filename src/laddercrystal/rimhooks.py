"""Removable rim hooks of length ell, ell-cores and ell-weights.

Hooks and cores are read off James's abacus (James–Kerber 1981).  Row r of
lam (1-based) carries the bead lam_r - r, and rows past the end carry -r, so
the beads fill every integer below the first one except finitely many gaps.
An ell-rim hook whose northeast box ends row r is removable exactly when
position bead_r - ell is a gap; removing it slides that bead into the gap,
and its leg is the number of beads passed, at most ell - 1.  Sliding the
beads of each runner (residue class mod ell) as far up as they go gives the
ell-core, and the number of slides is the ell-weight.

``_beads`` is the one bead reader: cores count its beads per runner, the
core test reads it up to the first bead that can slide, and jm's hereditary
checks read the per-runner levels that ``_abacus`` sorts out of it.

So no hook-length grid is built: finding the hooks costs about ell^2 per
distinct part of lam, removing one costs a tuple slice, a core costs
O(n log n + ell) for n rows, and testing for a core (weight 0) costs O(n),
whatever the weight.
"""

from __future__ import annotations

import bisect
import operator
from collections.abc import Iterator
from itertools import chain
from typing import NamedTuple

from .partitions import (
    Box,
    Partition,
    check_box,
    check_ell,
    check_partition,
    partition_cache,
)

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
NEITHER = "neither"


class InvalidHookError(ValueError):
    pass


class RimHook(NamedTuple):
    """A removable rim hook; boxes run along the rim from northeast to southwest."""

    boxes: tuple[Box, ...]
    shape: str

    def __len__(self) -> int:
        return len(self.boxes)

    @property
    def box_set(self) -> frozenset[Box]:
        return frozenset(self.boxes)


# NamedTuple's _make, which _replace calls, compares len() with the field
# count, but len() counts boxes here; a NamedTuple body may not override it.
RimHook._make = classmethod(lambda cls, fields: cls(*fields))


class CoreResult(NamedTuple):
    core: Partition
    weight: int


def _hook_from_row(lam: Partition, r: int, ell: int) -> RimHook | None:
    """The removable ell-rim hook whose northeast box ends row r+1, if any.

    Row s (0-based) has bead lam[s] - s; the hook exists when the position
    ell below row r's bead is a gap.  Rows whose bead lies strictly between
    are the rows the hook passes through below row r+1.
    """
    n = len(lam)
    foot = lam[r] - ell  # lam[r] - ell + leg is the new length of the hook's last row
    s = r + 1
    while s < n and lam[s] - (s - r) > foot:
        s += 1
    if foot + (s - r) <= (lam[s] if s < n else 0):
        return None  # the bead ell below is occupied
    boxes = []
    for i in range(r, s):
        kept = lam[i + 1] - 1 if i + 1 < s else foot + (s - r - 1)
        boxes.extend((i + 1, col) for col in range(lam[i], kept, -1))
    if s == r + 1:
        shape = HORIZONTAL
    elif s - r == ell:
        shape = VERTICAL
    else:
        shape = NEITHER
    return RimHook(tuple(boxes), shape)


def _removable_rim_hooks(lam: Partition, ell: int) -> list[RimHook]:
    """All removable ell-rim hooks, ordered by the row of their northeast box.

    A row starts at most one hook (its bead moves ell down or not at all), and
    row r can start one only if lam_r != lam_{r+ell}: otherwise the ell beads
    below it are packed.  So only the last ell rows of each run of equal
    parts are tried, the runs are skipped with bisect, and each try scans at
    most ell rows: a call costs O(d * (ell^2 + log n)) for d distinct parts
    and n rows, instead of a hook grid of |lam| boxes.
    """
    out = []
    start, n = 0, len(lam)
    while start < n:
        end = bisect.bisect_right(lam, -lam[start], start, n, key=operator.neg)
        for r in range(max(start, end - ell), end):
            hook = _hook_from_row(lam, r, ell)
            if hook is not None:
                out.append(hook)
        start = end
    return out


def removable_rim_hooks(lam: Partition, ell: int) -> list[RimHook]:
    """All removable ell-rim hooks of lam, ordered by the row of their northeast box."""
    check_ell(ell)
    return _removable_rim_hooks(check_partition(lam), ell)


def _remove(lam: Partition, hook: RimHook) -> Partition:
    """lam without *hook*, which must be one of its removable rim hooks."""
    top, bottom = hook.boxes[0][0], hook.boxes[-1][0]
    rows = [0] * (bottom - top + 1)
    for row, col in hook.boxes:
        rows[row - top] = col - 1  # the leftmost box of each row comes last
    if bottom == len(lam):
        while rows and rows[-1] == 0:
            rows.pop()
    return lam[: top - 1] + tuple(rows) + lam[bottom:]


def _check_hook(hook: RimHook) -> RimHook:
    """hook with its boxes as (row, col) tuples; InvalidHookError unless it is a RimHook of boxes."""
    if isinstance(hook, RimHook):
        try:
            return RimHook(tuple(map(check_box, hook.boxes)), hook.shape)
        except (TypeError, ValueError):
            pass
    raise InvalidHookError(f"not a rim hook of (row, col) boxes: {hook!r}")


def remove_rim_hook(lam: Partition, hook: RimHook) -> Partition:
    """Remove *hook* from lam; raises InvalidHookError unless it is removable."""
    lam = check_partition(lam)
    hook = _check_hook(hook)
    ell = len(hook.boxes)
    if ell < 2:
        raise InvalidHookError(f"hook too short: {hook}")
    for candidate in _removable_rim_hooks(lam, ell):
        if candidate.box_set == hook.box_set:
            return _remove(lam, candidate)
    raise InvalidHookError(f"{hook} is not a removable rim hook of {lam}")


def _beads(lam: Partition, ell: int) -> Iterator[int]:
    """lam's bead positions, ascending: row r (0-based) of n carries lam[r] + n - 1 - r.

    The rows are padded with zero parts to n, a multiple of ell, so runner i
    holds the rows whose last box has residue i; that changes neither core nor weight.
    """
    n = -(-len(lam) // ell) * ell
    return map(operator.add, reversed(lam + (0,) * (n - len(lam))), range(n))


def _abacus(lam: Partition, ell: int) -> list[list[int]]:
    """The bead levels of each runner of lam's abacus, ascending, indexed by runner."""
    levels: list[list[int]] = [[] for _ in range(ell)]
    for bead in _beads(lam, ell):
        level, runner = divmod(bead, ell)
        levels[runner].append(level)
    return levels


def _ell_core(lam: Partition, ell: int) -> CoreResult:
    counts = [0] * ell  # beads seen so far on each runner
    weight = 0
    for bead in _beads(lam, ell):
        level, runner = divmod(bead, ell)
        weight += level - counts[runner]
        counts[runner] += 1
    packed = chain.from_iterable(range(runner, runner + ell * k, ell) for runner, k in enumerate(counts))
    parts = map(operator.sub, sorted(packed, reverse=True), range(sum(counts) - 1, -1, -1))
    return CoreResult(tuple(filter(None, parts)), weight)


@partition_cache
def ell_core(lam: Partition, ell: int) -> CoreResult:
    """The ell-core and ell-weight of lam, read off James's abacus.

    Each runner's beads slide up to its lowest levels; the core is read back
    from the packed beads, and the weight is the number of slides.  The cost
    is O(n log n + ell) for n rows, whatever the weight.
    """
    check_ell(ell)
    return _ell_core(lam, ell)


def _is_core(lam: Partition, ell: int) -> bool:
    """Weight 0: each bead lies right above its runner's earlier beads; stops at the first that does not."""
    counts = [0] * ell  # beads seen so far on each runner
    for bead in _beads(lam, ell):
        level, runner = divmod(bead, ell)
        if level != counts[runner]:
            return False
        counts[runner] += 1
    return True


def is_core(lam: Partition, ell: int) -> bool:
    """True when no hook length is divisible by ell: no bead can slide up its runner."""
    check_ell(ell)
    return _is_core(check_partition(lam), ell)


def adjacent(a: RimHook, b: RimHook) -> bool:
    """True when some box of a shares an edge with some box of b.

    The hooks must not overlap.
    """
    sa, sb = _check_hook(a).box_set, _check_hook(b).box_set
    if sa & sb:
        raise InvalidHookError(f"hooks overlap: {sorted(sa & sb)}")
    for row, col in sa:
        for nbr in ((row + 1, col), (row - 1, col), (row, col + 1), (row, col - 1)):
            if nbr in sb:
                return True
    return False
